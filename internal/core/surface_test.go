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
		e.find = func(dst []extract.Mention, ids []uint32) []extract.Mention {
			found = append(found, fmt.Sprint(ids))
			return e.KB.Lexicon.FindIDs(dst, ids)
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
// twice) or in the per-question scratch (storage a stage builds afresh
// instead of taking from the scratch) fails here, by layer, and not only in
// the end-to-end ledger. The worst question of each class the ledger prices
// is measured, and logged: BFQs and two-hop questions without a ranking and
// with the top 3 the server asks for (kbqa.DefaultTopK), which counts the
// merge of the ranked interpretations, and unanswerable and variant
// questions as the server asks them, with the top 3 and variant routing on.
// What is left is what a question returns — an answer's Values, Steps and
// their texts, the ranked interpretations, a variant's entities and values
// — and a string per token that had a rune to lower-case. The ceilings are
// today's worst, the same under the race detector (answerCounted): a BFQ 3
// and 7 with the top 3, a two-hop question 10 and 14, an unanswerable
// question 4 and a variant 17. Before the per-question scratch they were
// 26 and 30, 120 and 124; read by string, before the vocabulary, 28 and
// 145 without the top 3; with one read per sub-question the two-hop worst
// was 170, with template strings they were 43 and 406, before the lexicon
// they averaged 213 and 1,994.
func TestAllocationCeilings(t *testing.T) {
	f := world(t)
	ctx := context.Background()
	worst := func(questions []string, k int, variants bool) (string, float64) {
		var q string
		var n float64
		for _, cand := range questions {
			held := new(scratch)
			if a := testing.AllocsPerRun(10, func() { answerCounted(ctx, f.engine, held, cand, k, variants) }); a > n || q == "" {
				q, n = cand, a
			}
		}
		return q, n
	}
	qc := allocationQuestions(t, f)
	for _, row := range []struct {
		kind      string
		questions []string
		k         int
		variants  bool
		ceiling   float64
	}{
		{"a BFQ", qc.bfqs, 0, false, 3},
		{"a BFQ with the top 3", qc.bfqs, 3, false, 7},
		{"a two-hop question", qc.hops, 0, false, 10},
		{"a two-hop question with the top 3", qc.hops, 3, false, 14},
		{"an unanswerable question", qc.unanswerable, 3, true, 4},
		{"a variant question", qc.variants, 3, true, 17},
	} {
		q, n := worst(row.questions, row.k, row.variants)
		t.Logf("worst of %s: %v allocations (%q)", row.kind, n, q)
		if n > row.ceiling {
			t.Errorf("%s allocates %v times (%q), ceiling %v", row.kind, n, q, row.ceiling)
		}
	}
}

// answerCounted is Answer as an allocation count should see it: through
// the engine's pool of scratches — except under the race detector, whose
// sync.Pool drops a quarter of the scratches put back, on purpose, so that
// a count through it would price the detector; there the question is
// answered in one scratch held across calls, which is what the pool hands
// out otherwise.
func answerCounted(ctx context.Context, e *Engine, held *scratch, q string, k int, variants bool) {
	if !raceEnabled {
		e.Answer(ctx, q, k, variants)
		return
	}
	e.answer(ctx, held, q, k, variants)
	held.reset()
}

// questionClasses are the questions of each class the ledger prices.
type questionClasses struct {
	bfqs, hops, unanswerable, variants []string
}

// allocationQuestions is what the allocation ceilings ask: the BFQs among
// the fixture's first 200 corpus questions and the two-hop questions among
// 16 composed ones, each answered by the engine; questions it refuses at
// each stage — without an entity, without a learned template, and "why is
// E famous?" around entity labels, which reach the δ oracle and the DP; and
// a ranking, a listing and a comparison variant, each answered as one.
func allocationQuestions(t *testing.T, f *fixture) questionClasses {
	t.Helper()
	ctx := context.Background()
	answered := func(q string, complex bool) bool {
		ans, err := askCtx(ctx, f.engine, q)
		return err == nil && complex == (len(ans.Steps) == 2)
	}
	var qc questionClasses
	for _, p := range f.pairs[:200] {
		if !p.Noise && answered(p.Q, false) {
			qc.bfqs = append(qc.bfqs, p.Q)
		}
	}
	for _, cp := range corpus.ComposeComplex(f.kb, 5, 16) {
		if answered(cp.Q, true) {
			qc.hops = append(qc.hops, cp.Q)
		}
	}
	cities := f.kb.ByCategory["city"]
	unanswerable := []string{"why is the sky blue at noon", "zzz qqq vvv " + text.TitleCase(f.kb.Store.Label(cities[0])) + " ppp"}
	for _, ent := range f.kb.Store.Entities()[:8] {
		unanswerable = append(unanswerable, "Why is "+text.TitleCase(f.kb.Store.Label(ent))+" famous?")
	}
	for _, q := range unanswerable {
		if _, _, _, err := f.engine.Answer(ctx, q, 3, true); Unanswerable(err) {
			qc.unanswerable = append(qc.unanswerable, q)
		}
	}
	big, small := text.TitleCase(f.kb.Store.Label(cities[0])), text.TitleCase(f.kb.Store.Label(cities[1]))
	for _, q := range []string{
		"Which city has the 3rd largest population?",
		"List cities ordered by population?",
		"Which city has more people , " + big + " or " + small + "?",
	} {
		if ans, _, _, err := f.engine.Answer(ctx, q, 3, true); err == nil && ans.Variant != nil {
			qc.variants = append(qc.variants, q)
		}
	}
	if len(qc.bfqs) == 0 || len(qc.hops) == 0 || len(qc.unanswerable) < 3 || len(qc.variants) != 3 {
		t.Fatalf("fixture has %d BFQs, %d two-hop, %d unanswerable and %d variant questions, want some of each and every variant kind",
			len(qc.bfqs), len(qc.hops), len(qc.unanswerable), len(qc.variants))
	}
	return qc
}

// TestTracedAllocationCeilings prices a traced question as a count. Slow
// capture traces every request, so the shipped server (-slow-query 500ms)
// asks every question under a live trace that it almost never retains.
// The mean over the same questions as TestAllocationCeilings, trace start
// and Finish included, may exceed the untraced mean by 3 allocations for
// a BFQ and 5 for a two-hop question: the Trace, its ID and the chunks of
// span handles past the inline one, since the span records come from a
// pooled arena. With the records in the trace's own chunks they exceeded
// it by 3.0 and 6.1; with a heap span, a context and growing attributes
// per span, by 18.0 and 36.8.
func TestTracedAllocationCeilings(t *testing.T) {
	f := world(t)
	ctx := context.Background()
	tracer := obs.NewTracer(obs.Options{SlowThreshold: 500 * time.Millisecond})
	mean := func(questions []string, traced bool) float64 {
		var sum float64
		for _, q := range questions {
			held := new(scratch)
			sum += testing.AllocsPerRun(10, func() {
				if !traced {
					answerCounted(ctx, f.engine, held, q, 0, false)
					return
				}
				tctx, trace := tracer.Start(ctx, "question")
				answerCounted(tctx, f.engine, held, q, 0, false)
				trace.Finish()
			})
		}
		return sum / float64(len(questions))
	}
	qc := allocationQuestions(t, f)
	for _, row := range []struct {
		kind      string
		questions []string
		ceiling   float64
	}{
		{"a BFQ", qc.bfqs, 3},
		{"a two-hop question", qc.hops, 5},
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
		for _, m := range e.find(nil, q.ids) {
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
