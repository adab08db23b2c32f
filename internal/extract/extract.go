// Package extract implements entity identification and the joint
// entity–value extraction of Sec 4.1.1.
//
// Three pieces:
//
//   - Lexicon: gazetteer entity recognition against the knowledge base
//     (longest-match over token spans, by a trie), condition (a)+(b) of Sec 3.2 —
//     "it is an entity in the question AND it is in the knowledge base".
//   - NoisyCapNER: a stand-in for the Stanford Named Entity Recognizer used
//     as the comparison baseline in Sec 7.5. It relies on capitalization
//     heuristics and therefore misses lower-cased mentions and picks up
//     spurious capitalized tokens, reproducing the precision gap the paper
//     reports (72% joint vs 30% NER-only).
//   - Extractor.EntityValues: EV_i = {(e,v) | e ⊂ q_i, v ⊂ a_i,
//     ∃p (e,p,v) ∈ K} (Eq 8), refined by answer-type agreement between the
//     question class and the value's predicate class.
package extract

import (
	"strings"
	"unicode"

	"repro/internal/qclass"
	"repro/internal/rdf"
	"repro/internal/text"
)

// maxMentionTokens bounds the length of an entity surface form in tokens.
const maxMentionTokens = 6

// Mention is an entity mention located in a token sequence.
type Mention struct {
	Span     text.Span
	Surface  string   // normalized surface form
	Entities []rdf.ID // all KB entities carrying this surface form
}

// Lexicon is the knowledge base's entity gazetteer compiled for lookup by
// token: a trie over the tokens of every entity label. It is built once per
// knowledge base and immutable afterwards, so every learner, baseline and
// engine over that knowledge base shares one, from any goroutine.
type Lexicon struct {
	root lexNode
}

// lexNode is the trie position after one token path from the root.
type lexNode struct {
	next map[string]*lexNode
	// surface is the normalized label the path spells and entities the
	// nodes carrying it, ascending; both empty when no label ends here.
	surface  string
	entities []rdf.ID
}

// NewLexicon compiles the entity labels of kb. A label is filed under its
// tokens, so a lookup by tokens finds exactly the entities
// kb.EntitiesByLabel finds for their join.
func NewLexicon(kb rdf.Graph) *Lexicon {
	lx := &Lexicon{}
	for _, e := range kb.Entities() {
		toks := text.Tokenize(kb.Label(e))
		n := &lx.root
		for _, t := range toks {
			child := n.next[t]
			if child == nil {
				if n.next == nil {
					n.next = make(map[string]*lexNode)
				}
				child = &lexNode{}
				n.next[t] = child
			}
			n = child
		}
		// A label without tokens lands on the root, which no lookup reads.
		n.surface, n.entities = text.Join(toks), append(n.entities, e)
	}
	return lx
}

// Find locates entity mentions in toks by longest-match lookup against the
// entity labels. Overlapping shorter matches are suppressed by longer ones
// (leftmost-longest), the standard gazetteer discipline. Each position costs
// at most maxMentionTokens map steps and nothing is allocated but the
// result; a mention's Entities are the lexicon's own slice and must not be
// modified.
func (lx *Lexicon) Find(toks []string) []Mention {
	var out []Mention
	for i := 0; i < len(toks); i++ {
		var match *lexNode
		end := 0
		n := &lx.root
		for j := i; j < len(toks) && j < i+maxMentionTokens; j++ {
			if n = n.next[toks[j]]; n == nil {
				break
			}
			// Single-token stopwords ("the") are never entity mentions.
			if len(n.entities) > 0 && !(j == i && text.IsStopword(toks[i])) {
				match, end = n, j+1
			}
		}
		if match != nil {
			out = append(out, Mention{text.Span{Start: i, End: end}, match.surface, match.entities})
			i = end - 1
		}
	}
	return out
}

// Has reports whether the tokens of span sp are, exactly, the label of some
// entity — the entity-mention test of the decomposition statistics
// (Sec 5.2), which unlike Find bounds neither the span's length nor its
// vocabulary.
func (lx *Lexicon) Has(toks []string, sp text.Span) bool {
	n := &lx.root
	for _, t := range text.CutSpan(toks, sp) {
		if n = n.next[t]; n == nil {
			return false
		}
	}
	return len(n.entities) > 0
}

// NoisyCapNER extracts entity-looking spans from the raw (cased) question
// using capitalization heuristics, imitating an off-the-shelf newswire NER
// applied to user-generated questions. Returned surfaces are normalized.
//
// Characteristic errors, intentional and load-bearing for the Sec 7.5
// comparison: sentence-initial capitalized words are treated as
// non-entities (newswire models discount them), all-lowercase entity
// mentions are missed entirely, and any capitalized mid-sentence token is
// reported whether or not it names a KB entity.
func NoisyCapNER(rawQuestion string) []string {
	words := strings.Fields(rawQuestion)
	var out []string
	var cur []string
	flush := func() {
		if len(cur) > 0 {
			out = append(out, text.Normalize(strings.Join(cur, " ")))
			cur = nil
		}
	}
	for i, w := range words {
		capitalized := isCapitalized(w)
		if capitalized && i > 0 {
			cur = append(cur, w)
			continue
		}
		flush()
	}
	flush()
	return out
}

func isCapitalized(w string) bool {
	for _, r := range w {
		if unicode.IsLetter(r) {
			return unicode.IsUpper(r)
		}
	}
	return false
}

// EVPair is one extracted entity–value candidate with the predicates
// (direct or expanded) that connect them in the knowledge base.
type EVPair struct {
	Entity rdf.ID
	Value  rdf.ID
	Paths  []rdf.Path // every connecting predicate path, length 1 = direct
}

// Extractor performs joint entity–value extraction against a knowledge base.
type Extractor struct {
	KB *rdf.ShardedStore
	// Lexicon is KB's mention lexicon.
	Lexicon *Lexicon
	// MaxPathLen bounds the expanded predicates considered when testing
	// (e, p, v) ∈ K; 1 restricts to direct predicates. The paper uses k=3.
	MaxPathLen int
	// EndFilter accepts the final predicate of a multi-edge path (the
	// paper's end-with-name rule). Nil accepts everything.
	EndFilter func(rdf.PID) bool
	// PredClass maps a predicate to its manually-labeled answer class
	// (Sec 4.1.1: "The predicates' categories are manually labeled").
	// Nil disables refinement.
	PredClass func(rdf.PID) qclass.Class
	// DisableRefinement turns off the answer-type filter, used by the
	// ablation experiments.
	DisableRefinement bool
}

// EntityValues extracts the refined EV set for a QA pair. Candidate values
// are token spans of the answer whose label matches a KB node connected to a
// question entity; refinement drops pairs whose predicate class disagrees
// with the question class.
func (x *Extractor) EntityValues(question, answer string) []EVPair {
	qToks := text.Tokenize(question)
	aToks := text.Tokenize(answer)
	mentions := x.Lexicon.Find(qToks)
	if len(mentions) == 0 || len(aToks) == 0 {
		return nil
	}
	qClass := qclass.ClassifyTokens(qToks)

	maxLen := x.MaxPathLen
	if maxLen <= 0 {
		maxLen = 1
	}

	var out []EVPair
	seen := make(map[[2]rdf.ID]bool)
	for _, m := range mentions {
		for _, e := range m.Entities {
			// Enumerate candidate value spans in the answer. Longest first
			// at each position so "michelle obama" beats "michelle".
			for i := 0; i < len(aToks); i++ {
				lmax := maxMentionTokens
				if rem := len(aToks) - i; rem < lmax {
					lmax = rem
				}
				for l := lmax; l >= 1; l-- {
					if l == 1 && text.IsStopword(aToks[i]) {
						continue
					}
					label := text.Join(aToks[i : i+l])
					for _, v := range x.KB.NodesByLabel(label) {
						if v == e {
							continue // the entity itself echoed in the answer
						}
						key := [2]rdf.ID{e, v}
						if seen[key] {
							continue
						}
						paths := x.connecting(e, v, maxLen)
						if len(paths) == 0 {
							continue
						}
						if !x.DisableRefinement && !x.agrees(qClass, paths) {
							continue
						}
						seen[key] = true
						out = append(out, EVPair{Entity: e, Value: v, Paths: paths})
					}
				}
			}
		}
	}
	return out
}

// connecting returns all predicate paths from e to v within maxLen.
func (x *Extractor) connecting(e, v rdf.ID, maxLen int) []rdf.Path {
	return rdf.PathsBetween(x.KB, e, v, maxLen, x.EndFilter)
}

// agrees reports whether at least one connecting predicate's answer class is
// compatible with the question class. The class of an expanded predicate is
// the class of its final edge, which is the edge that produces the value.
func (x *Extractor) agrees(q qclass.Class, paths []rdf.Path) bool {
	if x.PredClass == nil {
		return true
	}
	for _, p := range paths {
		if qclass.Agrees(q, x.PredClass(p[len(p)-1])) {
			return true
		}
	}
	return false
}

// Entities returns the distinct entities appearing in any EV pair; together
// with Eq (4) this gives P(e|q) for the offline procedure.
func Entities(pairs []EVPair) []rdf.ID {
	var out []rdf.ID
	seen := make(map[rdf.ID]bool)
	for _, p := range pairs {
		if !seen[p.Entity] {
			seen[p.Entity] = true
			out = append(out, p.Entity)
		}
	}
	return out
}

// EntityPrior computes P(e|q_i) by Eq (4): uniform over the entities that
// appear in the extracted EV set.
func EntityPrior(pairs []EVPair) map[rdf.ID]float64 {
	ents := Entities(pairs)
	if len(ents) == 0 {
		return nil
	}
	p := 1.0 / float64(len(ents))
	out := make(map[rdf.ID]float64, len(ents))
	for _, e := range ents {
		out[e] = p
	}
	return out
}
