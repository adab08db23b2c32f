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
//
// A Taxonomy is built by name. The question path reads it compiled
// (Compile): concepts numbered in ascending name order, an entity's isA
// weights found once per surface by whoever compiles the mentions, and
// context evidence in a table by the word's vocabulary ID. The by-name
// Conceptualize is a thin adapter over the same compiled form.
package concept

import (
	"cmp"
	"slices"
	"strings"
	"sync/atomic"

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
	// own is the taxonomy compiled over a vocabulary of its own, for
	// Conceptualize: built on first use, dropped by every change.
	own atomic.Pointer[ownCompiled]
}

type ownCompiled struct {
	c     *Compiled
	vocab *text.Vocab
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
	t.own.Store(nil)
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
	t.own.Store(nil)
}

// Concepts returns the prior concept distribution P(c|e) for the entity
// surface form, normalized to sum to 1. The result is sorted by descending
// probability, ties broken by concept name for determinism.
func (t *Taxonomy) Concepts(entity string) []Scored {
	return t.Conceptualize(entity, nil)
}

// smoothing added to context likelihoods so that a concept with no evidence
// for the observed words is damped rather than eliminated; mirrors the
// smoothed naive-Bayes of short-text conceptualization [25].
const ctxSmoothing = 0.1

// Conceptualize computes P(c|q,e): the concept distribution of the entity
// mention given the question context. contextTokens should be the question
// tokens with the mention removed. With no context evidence at all this
// reduces to the prior P(c|e). It maps its arguments onto the compiled form
// and runs Compiled.ConceptualizeInto.
func (t *Taxonomy) Conceptualize(entity string, contextTokens []string) []Scored {
	own := t.own.Load()
	if own == nil {
		// Two goroutines that miss together compile equal forms.
		own = &ownCompiled{vocab: text.NewVocab()}
		own.c = t.Compile(own.vocab)
		t.own.Store(own)
	}
	var ctx [24]uint32
	var buf [8]ScoredID
	ws := own.c.ConceptualizeInto(buf[:0], own.c.Priors(text.Normalize(entity)), own.vocab.AppendIDs(ctx[:0], contextTokens))
	if len(ws) == 0 {
		return nil
	}
	out := make([]Scored, len(ws))
	for i, w := range ws {
		out[i] = Scored{Concept: own.c.names[w.Concept], P: w.P}
	}
	return out
}

// ScoredID is Scored with the concept by its ID in a Compiled taxonomy.
type ScoredID struct {
	Concept uint32
	P       float64
}

// Compiled is a taxonomy laid out for a question read as vocabulary IDs.
// Concepts are numbered in ascending name order, so a tie broken by ID is a
// tie broken by name. It is immutable: a later change to the taxonomy does
// not reach it.
type Compiled struct {
	names  []string // by concept ID, ascending
	ids    map[string]uint32
	priors map[string][]ScoredID // normalized surface → isA weights, in the order they were registered
	// ev is, by word ID, the concepts the word is evidence for, with the
	// weight.
	ev [][]ScoredID
}

// Compile lays the taxonomy out over v, adding every context word to it.
// A context word of several tokens (or none) can never be one question
// token, so it is left out.
func (t *Taxonomy) Compile(v *text.Vocab) *Compiled {
	c := &Compiled{ids: make(map[string]uint32, len(t.concepts)), priors: make(map[string][]ScoredID, len(t.isA))}
	for name := range t.concepts {
		c.names = append(c.names, name)
	}
	slices.Sort(c.names)
	for i, name := range c.names {
		c.ids[name] = uint32(i)
	}
	for surface, prior := range t.isA {
		ps := make([]ScoredID, len(prior))
		for i, s := range prior {
			ps[i] = ScoredID{Concept: c.ids[s.Concept], P: s.P}
		}
		c.priors[surface] = ps
	}
	for concept, words := range t.ctx {
		for w, weight := range words {
			if w == "" || strings.Contains(w, " ") {
				continue
			}
			id := v.Add(w)
			if int(id) >= len(c.ev) {
				c.ev = slices.Grow(c.ev, int(id)+1-len(c.ev))[:id+1]
			}
			c.ev[id] = append(c.ev[id], ScoredID{Concept: c.ids[concept], P: weight})
		}
	}
	return c
}

// ID returns the ID of the concept name.
func (c *Compiled) ID(name string) (uint32, bool) {
	id, ok := c.ids[name]
	return id, ok
}

// Len is the number of concepts: their IDs are 0 to Len()-1.
func (c *Compiled) Len() int { return len(c.names) }

// Name returns the name of concept id.
func (c *Compiled) Name(id uint32) string { return c.names[id] }

// Priors returns the isA weights of the entity with the normalized surface,
// for ConceptualizeInto. The slice is the compiled form's own.
func (c *Compiled) Priors(surface string) []ScoredID { return c.priors[surface] }

// ConceptualizeInto appends P(c|q,e) to dst for an entity whose isA weights
// are prior (Priors) in a context given by vocabulary IDs — the question
// without the mention; an ID the vocabulary does not know (text.NoWord) is
// a word without evidence. It allocates nothing when dst has room, hashes
// nothing, and drops the context's stopwords once rather than once per
// concept; the products and the normalisation run in the order of the
// by-name definition, so the scores are bit-equal to it.
func (c *Compiled) ConceptualizeInto(dst, prior []ScoredID, ctx []uint32) []ScoredID {
	if len(prior) == 0 {
		return dst
	}
	var buf [24][]ScoredID // the content words' evidence
	content := buf[:0]
	for _, w := range ctx {
		if !text.IsStopID(w) {
			var ev []ScoredID
			if int(w) < len(c.ev) {
				ev = c.ev[w]
			}
			content = append(content, ev)
		}
	}
	n := len(dst)
	for _, s := range prior {
		like := 1.0
		for _, ev := range content {
			var weight float64
			for _, e := range ev {
				if e.Concept == s.Concept {
					weight = e.P
					break
				}
			}
			like *= ctxSmoothing + weight
		}
		dst = append(dst, ScoredID{Concept: s.Concept, P: s.P * like})
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
// ties by concept ID — by name — in place.
func normalize(s []ScoredID) {
	if len(s) == 0 {
		return
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
	slices.SortFunc(s, func(a, b ScoredID) int {
		if a.P != b.P {
			return cmp.Compare(b.P, a.P)
		}
		return cmp.Compare(a.Concept, b.Concept)
	})
}
