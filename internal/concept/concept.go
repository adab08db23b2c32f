// Package concept implements the conceptualization substrate KBQA relies on
// to turn entity mentions into concept (category) distributions.
//
// In the paper this is Probase [32] together with context-aware
// conceptualization [25]: given a question q and an entity e in it, produce
// P(c|q,e) — the probability that the mention refers to concept c in this
// context, so "apple" in "what is the headquarter of apple" conceptualizes to
// $company rather than $fruit. We reproduce both layers:
//
//   - a probabilistic isA taxonomy (entity → weighted concepts), and
//   - context evidence (concept → context words that co-occur with it),
//     combined by naive-Bayes style reweighting.
package concept

import (
	"cmp"
	"slices"

	"repro/internal/text"
)

// Scored pairs a concept name with a probability mass.
type Scored struct {
	Concept string
	P       float64
}

// Taxonomy is a probabilistic isA network plus context evidence. The zero
// value is empty but usable; construct with NewTaxonomy for clarity.
type Taxonomy struct {
	// isA maps a normalized entity surface form to its concepts with prior
	// weights (not necessarily normalized; Conceptualize normalizes).
	isA map[string][]Scored
	// ctx maps a concept to context-word weights: evidence that seeing the
	// word near a mention indicates the concept.
	ctx map[string]map[string]float64
	// concepts is the set of all concept names ever registered.
	concepts map[string]bool
}

// NewTaxonomy returns an empty taxonomy.
func NewTaxonomy() *Taxonomy {
	return &Taxonomy{
		isA:      make(map[string][]Scored),
		ctx:      make(map[string]map[string]float64),
		concepts: make(map[string]bool),
	}
}

// AddIsA registers "entity isA concept" with the given prior weight.
// Repeated calls for the same pair accumulate weight.
func (t *Taxonomy) AddIsA(entity, concept string, weight float64) {
	if weight <= 0 {
		return
	}
	key := text.Normalize(entity)
	t.concepts[concept] = true
	for i := range t.isA[key] {
		if t.isA[key][i].Concept == concept {
			t.isA[key][i].P += weight
			return
		}
	}
	t.isA[key] = append(t.isA[key], Scored{Concept: concept, P: weight})
}

// AddContextEvidence registers that word is evidence for concept with the
// given strength (e.g. "headquarter" for company, "pie" for fruit).
func (t *Taxonomy) AddContextEvidence(concept, word string, weight float64) {
	if weight <= 0 {
		return
	}
	m, ok := t.ctx[concept]
	if !ok {
		m = make(map[string]float64)
		t.ctx[concept] = m
	}
	m[text.Normalize(word)] += weight
	t.concepts[concept] = true
}

// Concepts returns the prior concept distribution P(c|e) for the entity
// surface form, normalized to sum to 1. The result is sorted by descending
// probability, ties broken by concept name for determinism.
func (t *Taxonomy) Concepts(entity string) []Scored {
	return normalize(slices.Clone(t.isA[text.Normalize(entity)]))
}

// HasConcept reports whether the concept name is known to the taxonomy.
func (t *Taxonomy) HasConcept(c string) bool { return t.concepts[c] }

// smoothing added to context likelihoods so that a concept with no evidence
// for the observed words is damped rather than eliminated; mirrors the
// smoothed naive-Bayes of short-text conceptualization [25].
const ctxSmoothing = 0.1

// Conceptualize computes P(c|q,e): the concept distribution of the entity
// mention given the question context. contextTokens should be the question
// tokens with the mention removed. With no context evidence at all this
// reduces to the prior P(c|e).
func (t *Taxonomy) Conceptualize(entity string, contextTokens []string) []Scored {
	return t.ConceptualizeInto(nil, text.Normalize(entity), contextTokens)
}

// ConceptualizeInto appends Conceptualize(surface, contextTokens) to dst for
// a surface form that is normalized already, as a mention lexicon returns
// it. It allocates nothing when dst has room, and it drops the context's
// stopwords once rather than once per concept; the products and the
// normalisation run in Conceptualize's order, so the scores are bit-equal.
func (t *Taxonomy) ConceptualizeInto(dst []Scored, surface string, contextTokens []string) []Scored {
	prior := t.isA[surface]
	if len(prior) == 0 {
		return dst
	}
	var buf [24]string
	content := buf[:0]
	for _, w := range contextTokens {
		if !text.IsStopword(w) {
			content = append(content, w)
		}
	}
	n := len(dst)
	for _, s := range prior {
		like := 1.0
		ev := t.ctx[s.Concept]
		for _, w := range content {
			like *= ctxSmoothing + ev[w]
		}
		dst = append(dst, Scored{Concept: s.Concept, P: s.P * like})
	}
	normalize(dst[n:])
	return dst
}

// Best returns the highest-probability concept for the mention in context,
// or "" when the entity is unknown.
func (t *Taxonomy) Best(entity string, contextTokens []string) string {
	cs := t.Conceptualize(entity, contextTokens)
	if len(cs) == 0 {
		return ""
	}
	return cs[0].Concept
}

// normalize scales s to sum to 1 and sorts it by descending probability,
// ties by concept name, in place.
func normalize(s []Scored) []Scored {
	if len(s) == 0 {
		return nil
	}
	var sum float64
	for _, c := range s {
		sum += c.P
	}
	if sum <= 0 {
		u := 1.0 / float64(len(s))
		for i := range s {
			s[i].P = u
		}
	} else {
		for i := range s {
			s[i].P /= sum
		}
	}
	slices.SortFunc(s, func(a, b Scored) int {
		if a.P != b.P {
			return cmp.Compare(b.P, a.P)
		}
		return cmp.Compare(a.Concept, b.Concept)
	})
	return s
}
