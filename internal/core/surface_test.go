package core

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/concept"
	"repro/internal/corpus"
	"repro/internal/extract"
	"repro/internal/learn"
	"repro/internal/obs"
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
	var found []string // the ID sequences handed to FindIDs, printed
	engine := func(model *learn.Model) *Engine {
		e := NewEngine(f.engine.KB, f.engine.Index, f.kb.Taxonomy, model, f.engine.Stats)
		e.find = func(ids []uint32) []extract.Mention {
			found = append(found, fmt.Sprint(ids))
			return e.KB.Lexicon.FindIDs(ids)
		}
		return e
	}
	idsOf := func(e *Engine, toks []string) string { return fmt.Sprint(e.parse(toks).ids) }

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
		e := engine(row.model)
		ans, _, _, err := e.Answer(ctx, row.q, 3, true)
		if err != nil || ans.Variant != nil || ans.Value != plain.Value {
			t.Fatalf("Answer(%q) = %+v, %v; want the BFQ answer %q", row.q, ans, err, plain.Value)
		}
		if want := []string{idsOf(e, text.Tokenize(row.q))}; !reflect.DeepEqual(found, want) {
			t.Errorf("%q: FindIDs ran over %q, want %q (its IDs, once)", row.q, found, want)
		}
	}

	// A two-hop question: one lookup for the question, one per proper span
	// the δ oracle examines (those containing a mention), one per bound
	// question of the later hops — and none for the whole-question span or
	// the first hop, whose token sequences were parsed already.
	e := engine(f.model)
	for _, cp := range corpus.ComposeComplex(f.kb, 99, 30) {
		found = nil
		ans, _, _, err := e.Answer(ctx, cp.Q, 0, true)
		if err != nil || len(ans.Steps) != 2 {
			continue
		}
		got := found
		toks := text.Tokenize(cp.Q)
		want := []string{idsOf(e, toks)}
		mentions := e.KB.Lexicon.Find(toks)
		for i := range toks {
			for j := i + 1; j <= len(toks); j++ {
				sp := text.Span{Start: i, End: j}
				for _, m := range mentions {
					if sp.Contains(m.Span) && sp.Len() < len(toks) {
						want = append(want, idsOf(e, toks[i:j]))
						break
					}
				}
			}
		}
		for _, q := range ans.Steps[1].Questions {
			want = append(want, idsOf(e, text.Tokenize(q)))
		}
		slices.Sort(got)
		slices.Sort(want)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%q: FindIDs ran over\n%q, want\n%q", cp.Q, got, want)
		}
		return
	}
	t.Fatal("fixture decomposes no two-hop question")
}

// TestAllocationCeilings bounds what one question may allocate, so a
// regression in the compiled forms (a re-joined n-gram, a re-parsed path
// key, a re-normalized label, a template built as a string, a token hashed
// twice) fails here, by layer, and not only in the end-to-end ledger. The
// worst question of its kind is measured, and logged, without a ranking
// and with the top 3 the server asks for (kbqa.DefaultTopK), which counts
// the merge of the ranked interpretations. The ceilings sit just above
// today's worst under the race detector, whose instrumentation moves some
// scratch off the stack: a BFQ 23 (24 under -race) and 27 (28) with the
// top 3, a two-hop question 111 (117) and 115 (121). Read by string, before
// the vocabulary, they were 24 and 46, 116 and 127, and the ceilings 28 and
// 145 without the top 3; with one read per sub-question the two-hop worst
// was 170, with template strings they were 43 and 406, before the lexicon
// they averaged 213 and 1,994.
func TestAllocationCeilings(t *testing.T) {
	f := world(t)
	ctx := context.Background()
	worst := func(questions []string, k int) (string, float64) {
		var q string
		var n float64
		for _, cand := range questions {
			if a := testing.AllocsPerRun(10, func() { f.engine.Answer(ctx, cand, k, false) }); a > n {
				q, n = cand, a
			}
		}
		return q, n
	}
	bfqs, hops := allocationQuestions(t, f)
	for _, row := range []struct {
		kind      string
		questions []string
		k         int
		ceiling   float64
	}{
		{"a BFQ", bfqs, 0, 26},
		{"a BFQ with the top 3", bfqs, 3, 30},
		{"a two-hop question", hops, 0, 120},
		{"a two-hop question with the top 3", hops, 3, 124},
	} {
		q, n := worst(row.questions, row.k)
		t.Logf("worst of %s: %v allocations (%q)", row.kind, n, q)
		if n > row.ceiling {
			t.Errorf("%s allocates %v times (%q), ceiling %v", row.kind, n, q, row.ceiling)
		}
	}
}

// allocationQuestions is what the allocation ceilings ask: the BFQs among
// the fixture's first 200 corpus questions, and the two-hop questions
// among 16 composed ones, each answered by the engine.
func allocationQuestions(t *testing.T, f *fixture) (bfqs, hops []string) {
	t.Helper()
	answered := func(q string, complex bool) bool {
		ans, err := askCtx(context.Background(), f.engine, q)
		return err == nil && complex == (len(ans.Steps) == 2)
	}
	for _, p := range f.pairs[:200] {
		if !p.Noise && answered(p.Q, false) {
			bfqs = append(bfqs, p.Q)
		}
	}
	for _, cp := range corpus.ComposeComplex(f.kb, 5, 16) {
		if answered(cp.Q, true) {
			hops = append(hops, cp.Q)
		}
	}
	if len(bfqs) == 0 || len(hops) == 0 {
		t.Fatalf("fixture answers %d BFQs and %d two-hop questions, want some of each", len(bfqs), len(hops))
	}
	return bfqs, hops
}

// TestTracedAllocationCeilings prices a traced question as a count. Slow
// capture traces every request, so the shipped server (-slow-query 500ms)
// asks every question under a live trace that it almost never retains.
// The mean over the same questions as TestAllocationCeilings, trace start
// and Finish included, may exceed the untraced mean by 4 allocations for
// a BFQ and 10 for a two-hop question. With a heap span, a context and
// growing attributes per span they exceeded it by 18.0 and 36.8.
func TestTracedAllocationCeilings(t *testing.T) {
	f := world(t)
	ctx := context.Background()
	tracer := obs.NewTracer(obs.Options{SlowThreshold: 500 * time.Millisecond})
	mean := func(questions []string, traced bool) float64 {
		var sum float64
		for _, q := range questions {
			sum += testing.AllocsPerRun(10, func() {
				if !traced {
					f.engine.Answer(ctx, q, 0, false)
					return
				}
				tctx, trace := tracer.Start(ctx, "question")
				f.engine.Answer(tctx, q, 0, false)
				trace.Finish()
			})
		}
		return sum / float64(len(questions))
	}
	bfqs, hops := allocationQuestions(t, f)
	for _, row := range []struct {
		kind      string
		questions []string
		ceiling   float64
	}{
		{"a BFQ", bfqs, 4},
		{"a two-hop question", hops, 10},
	} {
		plain, traced := mean(row.questions, false), mean(row.questions, true)
		t.Logf("%s: %.1f allocations untraced, %.1f traced (mean of %d)", row.kind, plain, traced, len(row.questions))
		if traced-plain > row.ceiling {
			t.Errorf("a trace adds %.1f allocations to %s, ceiling %v", traced-plain, row.kind, row.ceiling)
		}
	}
	if n := len(tracer.Snapshot()); n != 0 {
		t.Errorf("the tracer retained %d fast, unsampled traces", n)
	}
}

// TestThetaLookupEqualsDeriveAll pins θ's trie to the template strings of
// the template package: over every corpus question and every span of 200
// composed questions (what the δ oracle could hand a BFQ), each mention ×
// concept gives template.DeriveAll's entry, in its order, with P(c|q,e) bit
// for bit, and the trie finds exactly the compiled row of
// model.Theta[entry.Text] — nil iff the model has no row, or an empty one,
// for that text.
func TestThetaLookupEqualsDeriveAll(t *testing.T) {
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
	terms, mentions, hits := 0, 0, 0
	var conceptBuf [8]concept.ScoredID
	for _, toks := range questions {
		q := e.parse(toks)
		for _, m := range e.find(q.ids) {
			want := template.DeriveAll(e.Taxonomy, toks, m.Span, m.Surface)
			prefix, ok, concepts := e.mentionTemplates(conceptBuf[:0], q.ids, m)
			type term struct {
				concept string
				p       float64
				row     *compiledTemplate
			}
			var got []term
			for _, c := range concepts {
				if c.P <= 0 {
					continue
				}
				tm := term{concept: e.concepts.Name(c.Concept), p: c.P}
				if ok {
					tm.row = e.theta.lookup(prefix, c.Concept, q.ids[m.Span.End:])
				}
				got = append(got, tm)
			}
			if len(got) != len(want) {
				t.Fatalf("%q, mention %q: %d concepts, DeriveAll %d", text.Join(toks), m.Surface, len(got), len(want))
			}
			for i, w := range want {
				g := got[i]
				if g.concept != w.Concept || math.Float64bits(g.p) != math.Float64bits(w.P) {
					t.Fatalf("%q, mention %q, #%d: concept %q P %v, DeriveAll %q P %v", text.Join(toks), m.Surface, i, g.concept, g.p, w.Concept, w.P)
				}
				if row := f.model.Theta[w.Text]; (g.row == nil) != (len(row) == 0) || (g.row != nil && g.row.text != w.Text) {
					t.Fatalf("%q, mention %q: θ trie found %v for %q (the model's row: %v)", text.Join(toks), m.Surface, g.row, w.Text, row)
				}
				if g.row != nil {
					hits++
				}
			}
			terms += len(want)
			mentions++
		}
	}
	if mentions == 0 || terms < mentions || hits == 0 {
		t.Fatalf("compared %d templates (%d in θ) over %d mentions", terms, hits, mentions)
	}
	t.Logf("%d templates, %d of them in θ, over %d mentions of %d token sequences", terms, hits, mentions, len(questions))
}
