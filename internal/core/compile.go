package core

import (
	"slices"
	"strings"
	"sync/atomic"

	"repro/internal/concept"
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

	values []atomic.Pointer[valueLabel] // by node ID
}

// valueLabel is what an answer value is known by: a node's normalized
// label, and the first node carrying that label, which stands for every
// node that does — they are one value to Eq (7)'s summation.
type valueLabel struct {
	text  string
	first rdf.ID
}

// emptyValue stands for every node whose label normalizes to "": no label
// index files the empty label, yet those nodes are one value too.
const emptyValue rdf.ID = -1

// CompileSymbols compiles kb, unless it is compiled already.
func CompileSymbols(kb rdf.Graph) *Symbols {
	if s, ok := kb.(*Symbols); ok {
		return s
	}
	return &Symbols{
		Graph:   kb,
		Lexicon: extract.NewLexicon(kb),
		values:  make([]atomic.Pointer[valueLabel], kb.NumNodes()),
	}
}

// value returns node id's valueLabel. Two goroutines that miss together
// both work it out and store equal values.
func (s *Symbols) value(id rdf.ID) *valueLabel {
	if v := s.values[id].Load(); v != nil {
		return v
	}
	v := &valueLabel{text: text.Normalize(s.Label(id)), first: id}
	if v.text == "" {
		v.first = emptyValue
	} else if same := s.NodesByLabel(v.text); len(same) > 0 {
		v.first = same[0]
	}
	s.values[id].Store(v)
	return v
}

// normLabel returns text.Normalize(s.Label(id)).
func (s *Symbols) normLabel(id rdf.ID) string { return s.value(id).text }

// groundedPath is a path key of the model and the predicates it names.
type groundedPath struct {
	key string // arrow notation
	// rank is the key's position among the model's grounded keys in
	// ascending order, so comparing ranks compares keys.
	rank uint32
	path rdf.Path
}

// compiledTemplate is one learned template with a non-empty P(·|t).
type compiledTemplate struct {
	text string
	// rank is the template's position in ascending text order, so
	// comparing ranks compares texts.
	rank int
	// paths is the row's entries with P(p|t) > 0 whose path grounds in the
	// knowledge base, in ascending key order — the order Eq (7)'s float
	// accumulation has always run in.
	paths []compiledPath
	// content is the IDs of the template's tokens that are neither a
	// placeholder nor a stopword, repeats kept: what variant routing scores
	// overlap against.
	content []uint32
	// best is the row's argmax path key and bestP its probability.
	best  string
	bestP float64
}

type compiledPath struct {
	*groundedPath
	p float64
}

// holeEdge marks a θ trie edge as the placeholder's: its label is the
// concept's ID with this bit set, and a word edge's is the word's ID.
const holeEdge = 1 << 31

// theta is θ as a trie over a template's token IDs: the words before the
// placeholder, the placeholder by concept ID, the words after it. A
// mention's question is looked up without building its template: the walk
// over the words before the mention is shared by all of its concepts.
type theta struct {
	trie text.Trie
	at   []*compiledTemplate // by trie node; nil where no template ends
}

// walk follows ids from node n; ok is false when some step has no edge.
func (th *theta) walk(n uint32, ids []uint32) (uint32, bool) {
	for _, id := range ids {
		var ok bool
		if n, ok = th.trie.Child(n, id); !ok {
			return 0, false
		}
	}
	return n, true
}

// lookup returns the template that continues the prefix node (a walk's
// end) with concept c's placeholder and then the words tail, nil if θ has
// none.
func (th *theta) lookup(prefix, c uint32, tail []uint32) *compiledTemplate {
	n, ok := th.trie.Child(prefix, holeEdge|c)
	if ok {
		n, ok = th.walk(n, tail)
	}
	if !ok {
		return nil
	}
	return th.at[n]
}

// compileModel lays θ out for the question path, as a trie (theta) and as
// every template in ascending text order. A path key is parsed against kb
// here, once per model, so no question parses one, and every word of a
// template gets an ID in vocab. A template is filed under each of its
// tokens that is a concept's placeholder; one that is not single-spaced,
// or has no such token, is in the sorted slice only, as no question's
// template can spell it. The compiled form is never persisted; a loaded
// model is compiled like a learned one.
func compileModel(kb rdf.Graph, model *learn.Model, vocab *text.Vocab, concepts *concept.Compiled) (theta, []*compiledTemplate) {
	grounded := make(map[string]*groundedPath) // by key; nil when the KB lacks a predicate of it
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
					g = &groundedPath{key: key, path: path}
				}
				grounded[key] = g
			}
			if g != nil && p > 0 {
				ct.paths = append(ct.paths, compiledPath{g, p})
			}
		}
		slices.SortFunc(ct.paths, func(a, b compiledPath) int { return strings.Compare(a.key, b.key) })
		ct.best, ct.bestP = model.BestPred(tpl)
		sorted = append(sorted, ct)
	}
	keys := make([]*groundedPath, 0, len(grounded))
	for _, g := range grounded {
		if g != nil {
			keys = append(keys, g)
		}
	}
	slices.SortFunc(keys, func(a, b *groundedPath) int { return strings.Compare(a.key, b.key) })
	for i, g := range keys {
		g.rank = uint32(i)
	}
	slices.SortFunc(sorted, func(a, b *compiledTemplate) int { return strings.Compare(a.text, b.text) })

	var th theta
	var at []*compiledTemplate
	for i, ct := range sorted {
		ct.rank = i
		fields := strings.Fields(ct.text)
		for _, tok := range fields {
			if !strings.HasPrefix(tok, "$") && !text.IsStopword(tok) {
				ct.content = append(ct.content, vocab.Add(tok))
			}
		}
		if strings.Join(fields, " ") != ct.text {
			continue
		}
		for hole, tok := range fields {
			name, isHole := strings.CutPrefix(tok, "$")
			c, ok := concepts.ID(name)
			if !isHole || !ok {
				continue
			}
			var n uint32
			for _, w := range fields[:hole] {
				n = th.trie.Insert(n, vocab.Add(w))
			}
			n = th.trie.Insert(n, holeEdge|c)
			for _, w := range fields[hole+1:] {
				n = th.trie.Insert(n, vocab.Add(w))
			}
			at = append(at, make([]*compiledTemplate, th.trie.Len()-len(at))...)
			at[n] = ct
		}
	}
	th.at = append(at, make([]*compiledTemplate, th.trie.Len()-len(at))...)
	return th, sorted
}
