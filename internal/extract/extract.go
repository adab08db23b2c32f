// Package extract implements entity identification and the joint
// entity–value extraction of Sec 4.1.1.
//
// Three pieces:
//
//   - Lexicon: gazetteer entity recognition against the knowledge base
//     (longest-match over token spans, by a trie over token IDs), condition
//     (a)+(b) of Sec 3.2 — "it is an entity in the question AND it is in the
//     knowledge base". The online engine reads it by ID (FindIDs); Find and
//     Has map tokens to IDs first for the offline callers.
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
	Span    text.Span
	Surface string // normalized surface form
	// Label is the lexicon's index of Surface, dense over its distinct
	// labels (Lexicon.Labels), so that what is known of a surface can be
	// kept in a table and read without hashing it.
	Label    uint32
	Entities []rdf.ID // all KB entities carrying this surface form
}

// Lexicon is the knowledge base's entity gazetteer compiled for lookup by
// token ID: a trie over the ID sequences of every entity label, the IDs
// from the lexicon's own vocabulary of label tokens. It is built once per
// knowledge base and immutable afterwards, so every learner, baseline and
// engine over that knowledge base shares one, from any goroutine. An engine
// reads questions with a vocabulary that extends Vocab, so its IDs walk the
// same trie.
type Lexicon struct {
	vocab *text.Vocab
	trie  text.Trie
	// at is, by trie node, 1 + the index into labels of the label the path
	// to the node spells, 0 when no label ends there.
	at     []uint32
	labels []lexLabel
}

// lexLabel is one distinct label: its normalized surface and the nodes
// carrying it, ascending.
type lexLabel struct {
	surface  string
	entities []rdf.ID
}

// NewLexicon compiles the entity labels of kb. A label is filed under its
// tokens, so a lookup by tokens finds exactly the entities
// kb.EntitiesByLabel finds for their join.
func NewLexicon(kb rdf.Graph) *Lexicon {
	lx := &Lexicon{vocab: text.NewVocab()}
	ends := make(map[uint32]uint32) // trie node → 1 + label index
	for _, e := range kb.Entities() {
		toks := text.Tokenize(kb.Label(e))
		var n uint32
		for _, t := range toks {
			n = lx.trie.Insert(n, lx.vocab.Add(t))
		}
		// A label without tokens lands on the root, which no lookup reads.
		i := ends[n]
		if i == 0 {
			lx.labels = append(lx.labels, lexLabel{surface: text.Join(toks)})
			i = uint32(len(lx.labels))
			ends[n] = i
		}
		lx.labels[i-1].entities = append(lx.labels[i-1].entities, e)
	}
	lx.at = make([]uint32, lx.trie.Len())
	for n, i := range ends {
		lx.at[n] = i
	}
	return lx
}

// Vocab is the vocabulary of the lexicon's label tokens. A vocabulary cloned
// from it and grown maps a question to IDs FindIDs reads.
func (lx *Lexicon) Vocab() *text.Vocab { return lx.vocab }

// Labels returns the distinct labels' surfaces, by Mention.Label.
func (lx *Lexicon) Labels() []string {
	out := make([]string, len(lx.labels))
	for i, l := range lx.labels {
		out[i] = l.surface
	}
	return out
}

// Find is FindIDs over toks mapped through the lexicon's vocabulary.
func (lx *Lexicon) Find(toks []string) []Mention {
	var buf [32]uint32
	return lx.FindIDs(nil, lx.vocab.AppendIDs(buf[:0], toks))
}

// FindIDs appends the entity mentions of a token sequence given by
// vocabulary IDs to dst, in order, and returns the extended slice; it finds
// them by longest-match lookup against the entity labels. Overlapping
// shorter matches are suppressed by longer ones (leftmost-longest), the
// standard gazetteer discipline. Each position costs at most
// maxMentionTokens trie steps, and nothing is allocated unless dst has to
// grow; a mention's Entities are the lexicon's own slice and must not be
// modified.
func (lx *Lexicon) FindIDs(dst []Mention, ids []uint32) []Mention {
	out := dst
	for i := 0; i < len(ids); i++ {
		var match uint32
		end := 0
		var n uint32
		for j := i; j < len(ids) && j < i+maxMentionTokens; j++ {
			var ok bool
			if n, ok = lx.trie.Child(n, ids[j]); !ok {
				break
			}
			// Single-token stopwords ("the") are never entity mentions.
			if l := lx.at[n]; l != 0 && !(j == i && text.IsStopID(ids[i])) {
				match, end = l, j+1
			}
		}
		if match != 0 {
			l := &lx.labels[match-1]
			out = append(out, Mention{text.Span{Start: i, End: end}, l.surface, match - 1, l.entities})
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
	var n uint32
	for _, t := range text.CutSpan(toks, sp) {
		var ok bool
		if n, ok = lx.trie.Child(n, lx.vocab.ID(t)); !ok {
			return false
		}
	}
	return lx.at[n] != 0
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
	KB *rdf.Store
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
	return x.EntityValuesOf(qToks, x.Lexicon.Find(qToks), answer)
}

// EntityValuesOf is EntityValues for a question already tokenized into
// qToks, in which Lexicon.Find found mentions, so that a caller that reads
// them too computes them once.
func (x *Extractor) EntityValuesOf(qToks []string, mentions []Mention, answer string) []EVPair {
	if len(mentions) == 0 {
		return nil
	}
	// The answer's candidate value spans, each looked up once by its joined
	// tokens, which are already normalized: longest first at each position
	// so "michelle obama" beats "michelle".
	aToks := text.Tokenize(answer)
	var spans [][]rdf.ID
	var key []byte
	for i := range aToks {
		for l := min(maxMentionTokens, len(aToks)-i); l >= 1; l-- {
			if l == 1 && text.IsStopword(aToks[i]) {
				continue
			}
			key = append(key[:0], aToks[i]...)
			for _, tok := range aToks[i+1 : i+l] {
				key = append(append(key, ' '), tok...)
			}
			if nodes := x.KB.NodesByKey(key); len(nodes) > 0 {
				spans = append(spans, nodes)
			}
		}
	}
	if len(spans) == 0 {
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
			for _, nodes := range spans {
				for _, v := range nodes {
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
