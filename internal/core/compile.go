package core

import (
	"slices"
	"strings"
	"sync/atomic"

	"repro/internal/extract"
	"repro/internal/learn"
	"repro/internal/rdf"
	"repro/internal/text"
)

// Symbols is a locally loaded knowledge base compiled for the question
// path: the symbols themselves, the mention lexicon over its entity labels,
// and each node's normalized label, worked out the first time an answer
// shows it (so mapping an image stays independent of its node count).
// Compile one per knowledge base and hand it to every engine over it — a
// retrain then recompiles θ and nothing else. Safe for concurrent use.
type Symbols struct {
	rdf.Graph
	// Lexicon finds entity mentions, for the offline learner too.
	Lexicon *extract.Lexicon

	norm []atomic.Pointer[string] // node ID → text.Normalize(Label(id))
}

// CompileSymbols compiles kb, unless it is compiled already.
func CompileSymbols(kb rdf.Graph) *Symbols {
	if s, ok := kb.(*Symbols); ok {
		return s
	}
	return &Symbols{
		Graph:   kb,
		Lexicon: extract.NewLexicon(kb),
		norm:    make([]atomic.Pointer[string], kb.NumNodes()),
	}
}

// normLabel returns text.Normalize(s.Label(id)). Two goroutines that miss
// together both normalize and store equal strings.
func (s *Symbols) normLabel(id rdf.ID) string {
	if p := s.norm[id].Load(); p != nil {
		return *p
	}
	label := text.Normalize(s.Label(id))
	s.norm[id].Store(&label)
	return label
}

// groundedPath is a path key of the model and the predicates it names.
type groundedPath struct {
	key  string // arrow notation
	path rdf.Path
}

// compiledTemplate is one learned template with a non-empty P(·|t).
type compiledTemplate struct {
	text string
	// paths is the row's entries with P(p|t) > 0 whose path grounds in the
	// knowledge base, in ascending key order — the order Eq (7)'s float
	// accumulation has always run in.
	paths []compiledPath
	// content is the template's tokens that are neither a placeholder nor a
	// stopword, repeats kept: what variant routing scores overlap against.
	content []string
	// best is the row's argmax path key and bestP its probability.
	best  string
	bestP float64
}

type compiledPath struct {
	*groundedPath
	p float64
}

// compileModel lays θ out for the question path: every template by text,
// and the same templates in ascending text order. A path key is parsed
// against kb here, once per model, so no question parses one. The compiled
// form is never persisted; a loaded model is compiled like a learned one.
func compileModel(kb rdf.Graph, model *learn.Model) (map[string]*compiledTemplate, []*compiledTemplate) {
	grounded := make(map[string]*groundedPath) // by key; nil when the KB lacks a predicate of it
	byText := make(map[string]*compiledTemplate, len(model.Theta))
	sorted := make([]*compiledTemplate, 0, len(model.Theta))
	for tpl, dist := range model.Theta {
		if len(dist) == 0 {
			continue
		}
		ct := &compiledTemplate{text: tpl}
		for key, p := range dist {
			g, seen := grounded[key]
			if !seen {
				if path, ok := rdf.ParsePath(kb, key); ok {
					g = &groundedPath{key, path}
				}
				grounded[key] = g
			}
			if g != nil && p > 0 {
				ct.paths = append(ct.paths, compiledPath{g, p})
			}
		}
		slices.SortFunc(ct.paths, func(a, b compiledPath) int { return strings.Compare(a.key, b.key) })
		for _, tok := range strings.Fields(tpl) {
			if !strings.HasPrefix(tok, "$") && !text.IsStopword(tok) {
				ct.content = append(ct.content, tok)
			}
		}
		ct.best, ct.bestP = model.BestPred(tpl)
		byText[tpl] = ct
		sorted = append(sorted, ct)
	}
	slices.SortFunc(sorted, func(a, b *compiledTemplate) int { return strings.Compare(a.text, b.text) })
	return byText, sorted
}
