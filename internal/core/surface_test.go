package core

import (
	"context"
	"reflect"
	"slices"
	"testing"

	"repro/internal/concept"
	"repro/internal/corpus"
	"repro/internal/extract"
	"repro/internal/learn"
	"repro/internal/template"
	"repro/internal/text"
)

// TestEngineSurface pins the engine's shape: one exported method, Answer.
// A second entry point — a variant-only call, a BFQ-only call — is a second
// place to parse a question.
func TestEngineSurface(t *testing.T) {
	engine := reflect.TypeOf((*Engine)(nil))
	var methods []string
	for i := 0; i < engine.NumMethod(); i++ {
		methods = append(methods, engine.Method(i).Name)
	}
	if !reflect.DeepEqual(methods, []string{"Answer"}) {
		t.Errorf("*core.Engine exports %v, want exactly [Answer]", methods)
	}
}

// TestParsesOncePerQuestion records every mention lookup of one Answer
// call: a token sequence is searched for mentions exactly once however many
// stages (variant routing, the direct path, decomposition, the chain's first
// hop) need its mentions.
func TestParsesOncePerQuestion(t *testing.T) {
	f := world(t)
	ctx := context.Background()
	var found []string // the token sequences handed to Find, joined
	engine := func(model *learn.Model) *Engine {
		e := NewEngine(f.engine.KB, f.engine.Index, f.kb.Taxonomy, model, f.engine.Stats)
		e.find = func(toks []string) []extract.Mention {
			found = append(found, text.Join(toks))
			return e.KB.Lexicon.Find(toks)
		}
		return e
	}

	// A BFQ with variant routing on, and the same BFQ trailing " or so"
	// under a model that learned that shape: the "or" sends it through
	// tryComparison, which needs the mentions, falls through, and must
	// leave them for the direct path.
	bfq, _ := answerableQuestion(t, f, 1)
	plain, err := askCtx(ctx, f.engine, bfq)
	if err != nil {
		t.Fatal(err)
	}
	orModel := &learn.Model{Theta: map[string]map[string]float64{plain.Template + " or so": {plain.Path: 1}}}
	for _, row := range []struct {
		q     string
		model *learn.Model
	}{
		{bfq, f.model},
		{bfq + " or so", orModel},
	} {
		found = nil
		ans, _, _, err := engine(row.model).Answer(ctx, row.q, 3, true)
		if err != nil || ans.Variant != nil || ans.Value != plain.Value {
			t.Fatalf("Answer(%q) = %+v, %v; want the BFQ answer %q", row.q, ans, err, plain.Value)
		}
		if want := []string{text.Normalize(row.q)}; !reflect.DeepEqual(found, want) {
			t.Errorf("%q: Find ran over %q, want %q (its tokens, once)", row.q, found, want)
		}
	}

	// A two-hop question: one Find for the question, one per proper span the
	// δ oracle examines (those containing a mention), one per bound question
	// of the later hops — and none for the whole-question span or the first
	// hop, whose token sequences were parsed already.
	e := engine(f.model)
	for _, cp := range corpus.ComposeComplex(f.kb, 99, 30) {
		found = nil
		ans, _, _, err := e.Answer(ctx, cp.Q, 0, true)
		if err != nil || len(ans.Steps) != 2 {
			continue
		}
		got := found
		toks := text.Tokenize(cp.Q)
		want := []string{text.Join(toks)}
		mentions := e.KB.Lexicon.Find(toks)
		for i := range toks {
			for j := i + 1; j <= len(toks); j++ {
				sp := text.Span{Start: i, End: j}
				for _, m := range mentions {
					if sp.Contains(m.Span) && sp.Len() < len(toks) {
						want = append(want, text.Join(toks[i:j]))
						break
					}
				}
			}
		}
		want = append(want, ans.Steps[1].Questions...)
		slices.Sort(got)
		slices.Sort(want)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%q: Find ran over\n%q, want\n%q", cp.Q, got, want)
		}
		return
	}
	t.Fatal("fixture decomposes no two-hop question")
}

// TestAllocationCeilings bounds what one question may allocate, so a
// regression in the compiled forms (a re-joined n-gram, a re-parsed path
// key, a re-normalized label, a template built as a string) fails here, by
// layer, and not only in the end-to-end ledger. The worst question of its
// kind is measured, and logged; the ceilings sit just above today's worst
// (a BFQ 24, a two-hop question 170; with template strings they were 43 and
// 406, before the lexicon they averaged 213 and 1,994).
func TestAllocationCeilings(t *testing.T) {
	f := world(t)
	ctx := context.Background()
	worst := func(questions []string, complex bool) (string, float64) {
		var q string
		var n float64
		for _, cand := range questions {
			ans, err := askCtx(ctx, f.engine, cand)
			if err != nil || complex != (len(ans.Steps) == 2) {
				continue
			}
			if a := testing.AllocsPerRun(10, func() { f.engine.Answer(ctx, cand, 0, false) }); a > n {
				q, n = cand, a
			}
		}
		if q == "" {
			t.Fatalf("fixture answers no such question (complex=%v)", complex)
		}
		return q, n
	}
	var bfqs, hops []string
	for _, p := range f.pairs[:200] {
		if !p.Noise {
			bfqs = append(bfqs, p.Q)
		}
	}
	for _, cp := range corpus.ComposeComplex(f.kb, 5, 16) {
		hops = append(hops, cp.Q)
	}
	q, n := worst(bfqs, false)
	t.Logf("worst BFQ: %v allocations (%q)", n, q)
	if n > 28 {
		t.Errorf("a BFQ allocates %v times (%q), ceiling 28", n, q)
	}
	q, n = worst(hops, true)
	t.Logf("worst two-hop question: %v allocations (%q)", n, q)
	if n > 190 {
		t.Errorf("a two-hop question allocates %v times (%q), ceiling 190", n, q)
	}
}

// TestTemplateKeysEqualDeriveAll pins the θ keys the engine writes into its
// key buffer to the template strings of the template package: over every
// corpus question and every complex question of the fixture — and every
// span the δ oracle could hand a BFQ, which is a prefix of neither — each
// mention × concept gives the bytes and the weight of
// template.DeriveAll's entry, in its order.
func TestTemplateKeysEqualDeriveAll(t *testing.T) {
	f := world(t)
	e := f.engine
	var questions [][]string
	for _, p := range f.pairs {
		questions = append(questions, text.Tokenize(p.Q))
	}
	for _, cp := range corpus.ComposeComplex(f.kb, 5, 200) {
		toks := text.Tokenize(cp.Q)
		for i := range toks {
			for j := i + 1; j <= len(toks); j++ {
				questions = append(questions, toks[i:j])
			}
		}
	}
	keys, terms := 0, 0
	var keyBuf [128]byte
	var conceptBuf [8]concept.Scored
	for _, toks := range questions {
		for _, m := range e.find(toks) {
			want := template.DeriveAll(e.Taxonomy, toks, m.Span, m.Surface)
			prefix, concepts := e.mentionTemplates(keyBuf[:0], conceptBuf[:0], toks, m)
			var got []template.Weighted
			for _, c := range concepts {
				if c.P > 0 {
					key := string(text.AppendPlaceholder(prefix, c.Concept, toks[m.Span.End:]))
					got = append(got, template.Weighted{Template: template.Template{Text: key, Concept: c.Concept}, P: c.P})
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%q, mention %q:\nengine keys %v\nDeriveAll   %v", text.Join(toks), m.Surface, got, want)
			}
			keys += len(got)
			terms++
		}
	}
	if terms == 0 || keys < terms {
		t.Fatalf("compared %d keys over %d mentions", keys, terms)
	}
	t.Logf("%d template keys over %d mentions of %d token sequences", keys, terms, len(questions))
}
