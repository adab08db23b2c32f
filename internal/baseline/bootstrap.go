package baseline

import (
	"strings"

	"repro/internal/extract"
	"repro/internal/rdf"
	"repro/internal/text"
)

// PatternModel is the output of BOA-style bootstrapping [14, 28]: for each
// predicate, the textual patterns observed between a subject and an object
// of that predicate in web documents. Patterns play the role KBQA's
// templates play, which is what Table 12 compares.
type PatternModel struct {
	// Patterns maps predicate name -> pattern text -> support count.
	Patterns map[string]map[string]int
}

// NumPatterns returns the total number of distinct (predicate, pattern)
// pairs — the bootstrapping row's "templates" count in Table 12.
func (m *PatternModel) NumPatterns() int {
	n := 0
	for _, ps := range m.Patterns {
		n += len(ps)
	}
	return n
}

// NumPredicates returns the number of predicates with at least one pattern.
func (m *PatternModel) NumPredicates() int { return len(m.Patterns) }

// Bootstrap learns BOA patterns from declarative sentences: for every
// sentence containing both an entity and one of its direct predicate
// values, the text between them (with the pair abstracted to ?D ?R) is
// recorded as a pattern for that predicate. Only direct predicates are
// learnable — the method has no notion of multi-edge structures, which is
// the coverage gap Table 12 quantifies.
func Bootstrap(kb *rdf.Store, lex *extract.Lexicon, docs []string) *PatternModel {
	m := &PatternModel{Patterns: make(map[string]map[string]int)}
	for _, doc := range docs {
		toks := text.Tokenize(doc)
		mentions := lex.Find(toks)
		for _, men := range mentions {
			for _, e := range men.Entities {
				// Scan value spans elsewhere in the sentence.
				for i := 0; i < len(toks); i++ {
					for l := 4; l >= 1; l-- {
						j := i + l
						if j > len(toks) {
							continue
						}
						sp := text.Span{Start: i, End: j}
						if sp.Overlaps(men.Span) {
							continue
						}
						for _, v := range kb.NodesByLabel(text.Join(toks[i:j])) {
							for _, pid := range kb.PredicatesBetween(e, v) {
								pred := kb.PredName(pid)
								if pred == "name" || pred == "alias" || pred == "category" {
									continue
								}
								pat := abstractPattern(toks, men.Span, sp)
								if pat == "" {
									continue
								}
								row := m.Patterns[pred]
								if row == nil {
									row = make(map[string]int)
									m.Patterns[pred] = row
								}
								row[pat]++
							}
						}
					}
				}
			}
		}
	}
	return m
}

// abstractPattern renders the sentence with the domain (entity) span
// replaced by ?D and the range (value) span by ?R, keeping only the
// connective text, BOA-style.
func abstractPattern(toks []string, dom, rng text.Span) string {
	if dom.Overlaps(rng) {
		return ""
	}
	first, second := dom, rng
	firstTag, secondTag := "?D", "?R"
	if rng.Start < dom.Start {
		first, second = rng, dom
		firstTag, secondTag = "?R", "?D"
	}
	between := toks[first.End:second.Start]
	var b strings.Builder
	b.WriteString(firstTag)
	for _, t := range between {
		b.WriteByte(' ')
		b.WriteString(t)
	}
	b.WriteByte(' ')
	b.WriteString(secondTag)
	return b.String()
}
