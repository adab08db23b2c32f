package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync/atomic"
	"testing"

	"repro/internal/corpus"
	"repro/internal/learn"
	"repro/internal/rdf"
	"repro/internal/text"
)

// probeCountingIndex wraps an Index and counts PathObjects calls and the
// probes they carry, invoking an optional hook per probe — the instrument
// behind the cancellation tests: it proves a cancelled context stops the
// interpretation scan instead of letting it run to completion. It hands the
// batch on a probe at a time, so the hook acts between two reads exactly
// where LocalIndex's own loop checks the context.
type probeCountingIndex struct {
	Index
	calls   atomic.Int64
	probes  atomic.Int64
	onProbe func(n int64)
	// batches keeps a copy of every batch seen, for the plan-shape
	// assertions: a batch is the engine's storage, valid only during the
	// call.
	batches [][]rdf.Probe
}

func (g *probeCountingIndex) PathObjects(ctx context.Context, probes []rdf.Probe, out [][]rdf.ID, vals []rdf.ID) ([]rdf.ID, error) {
	g.calls.Add(1)
	g.batches = append(g.batches, slices.Clone(probes))
	for i := range probes {
		n := g.probes.Add(1)
		if g.onProbe != nil {
			g.onProbe(n)
		}
		var err error
		if vals, err = g.Index.PathObjects(ctx, probes[i:i+1], out[i:i+1], vals); err != nil {
			return nil, err
		}
	}
	return vals, nil
}

// countingEngine builds an engine identical to the fixture's but probing
// through the counting wrapper.
func countingEngine(f *fixture) (*Engine, *probeCountingIndex) {
	g := &probeCountingIndex{Index: f.engine.Index}
	return NewEngine(f.kb.Store, g, f.kb.Taxonomy, f.model, f.engine.Stats), g
}

// answerableQuestion returns a clean corpus question the fixture engine
// answers with at least minProbes knowledge-base probes.
func answerableQuestion(t *testing.T, f *fixture, minProbes int64) (string, int64) {
	t.Helper()
	e, g := countingEngine(f)
	for _, p := range f.pairs {
		if p.Noise {
			continue
		}
		g.probes.Store(0)
		if _, err := askCtx(context.Background(), e, p.Q); err == nil {
			if n := g.probes.Load(); n >= minProbes {
				return p.Q, n
			}
		}
	}
	t.Fatalf("no corpus question needs >= %d probes", minProbes)
	return "", 0
}

func TestAnswerTopKRankedInterpretations(t *testing.T) {
	f := world(t)
	ctx := context.Background()
	ranked := 0
	for _, p := range f.pairs[:80] {
		if p.Noise {
			continue
		}
		want, wantOK := ask(f.engine, p.Q)
		ans, top, _, err := f.engine.Answer(ctx, p.Q, 5, false)
		if (err == nil) != wantOK {
			t.Fatalf("Answer(%q, 5) err = %v, Answer ok = %v", p.Q, err, wantOK)
		}
		if !wantOK {
			continue
		}
		if ans.Value != want.Value || ans.Path != want.Path || ans.Template != want.Template {
			t.Fatalf("Answer(%q, 5) answer diverges from k=0: %+v vs %+v", p.Q, ans, want)
		}
		if len(top) == 0 || len(top) > 5 {
			t.Fatalf("Answer(%q, 5) returned %d interpretations, want 1..5", p.Q, len(top))
		}
		if !sort.SliceIsSorted(top, func(i, j int) bool { return top[i].Score > top[j].Score }) {
			t.Fatalf("interpretations not sorted by descending score: %+v", top)
		}
		for _, r := range top {
			if r.Score <= 0 || r.Template == "" || r.Path == "" || r.EntityLabel == "" || len(r.Values) == 0 {
				t.Fatalf("degenerate interpretation for %q: %+v", p.Q, r)
			}
		}
		ranked++
	}
	if ranked == 0 {
		t.Fatal("no question produced a ranked interpretation list")
	}

	// k <= 0 asks for no ranking and must not pay for one.
	q := f.pairs[0].Q
	if _, top, _, err := f.engine.Answer(ctx, q, 0, false); err == nil && top != nil {
		t.Errorf("k=0 returned interpretations: %+v", top)
	}
}

func TestAnswerCtxTypedErrors(t *testing.T) {
	f := world(t)
	ctx := context.Background()

	// No token span matches an entity label.
	if _, err := askCtx(ctx, f.engine, "why is the sky blue at noon"); !errors.Is(err, ErrNoEntity) {
		t.Errorf("no-entity question: err = %v, want ErrNoEntity", err)
	}

	// An entity is mentioned, but the question shape was never learned.
	ent := f.kb.ByCategory["city"][0]
	label := text.TitleCase(f.kb.Store.Label(ent))
	if _, err := askCtx(ctx, f.engine, "zzz qqq vvv "+label+" ppp"); !errors.Is(err, ErrNoTemplate) {
		t.Errorf("no-template question: err = %v, want ErrNoTemplate", err)
	}

	// A learned template resolves to a predicate the KB cannot ground:
	// fabricate a model whose only path key never parses.
	q := "What is the population of " + label + "?"
	ans, err := askCtx(ctx, f.engine, q)
	if err != nil {
		t.Fatalf("fixture cannot answer %q: %v", q, err)
	}
	broken := NewEngine(f.kb.Store, f.engine.Index, f.kb.Taxonomy,
		&learn.Model{Theta: map[string]map[string]float64{ans.Template: {"no_such_predicate": 1}}}, nil)
	if _, err := askCtx(ctx, broken, q); !errors.Is(err, ErrNoAnswer) {
		t.Errorf("ungroundable question: err = %v, want ErrNoAnswer", err)
	}

	for _, err := range []error{ErrNoEntity, ErrNoTemplate, ErrNoAnswer} {
		if !Unanswerable(err) {
			t.Errorf("Unanswerable(%v) = false", err)
		}
	}
	if Unanswerable(context.Canceled) || Unanswerable(nil) {
		t.Error("Unanswerable misclassifies context errors or nil")
	}
}

func TestAnswerCtxAlreadyCancelled(t *testing.T) {
	f := world(t)
	e, g := countingEngine(f)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := askCtx(ctx, e, f.pairs[0].Q); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := g.probes.Load(); n != 0 {
		t.Errorf("cancelled context still issued %d probes", n)
	}
}

// TestCancelMidScanAbortsProbing is the acceptance gate for cancellation: a
// context cancelled during the first knowledge-base probe must abort the
// interpretation scan mid-flight — the engine issues no further probes —
// instead of running the remaining interpretations to completion.
func TestCancelMidScanAbortsProbing(t *testing.T) {
	f := world(t)
	q, full := answerableQuestion(t, f, 3)

	e, g := countingEngine(f)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	g.onProbe = func(n int64) {
		if n == 1 {
			cancel()
		}
	}
	if _, err := askCtx(ctx, e, q); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := g.probes.Load(); n >= full {
		t.Errorf("scan ran to completion: %d probes, uncancelled run needs %d", n, full)
	} else if n > 1 {
		t.Errorf("scan continued past cancellation: %d probes after cancelling during probe 1", n)
	}
}

// cancellingGraph cancels a context on its first Objects read and counts
// them all.
type cancellingGraph struct {
	rdf.Graph
	cancel context.CancelFunc
	reads  int
}

func (g *cancellingGraph) Objects(subj rdf.ID, pred rdf.PID) []rdf.ID {
	g.reads++
	g.cancel()
	return g.Graph.Objects(subj, pred)
}

// TestLocalIndexChecksCtxBeforeEveryProbe: a batch is not a licence to run
// to completion — the in-process index looks at the context before each
// probe of it, so a cancellation during the first read stops the second.
func TestLocalIndexChecksCtxBeforeEveryProbe(t *testing.T) {
	f := world(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	g := &cancellingGraph{Graph: f.kb.Store, cancel: cancel}
	ent, pred := f.kb.Store.Entities()[0], f.kb.Store.Predicates()[0]
	batch := []rdf.Probe{{Subj: ent, Path: rdf.Path{pred}}, {Subj: ent, Path: rdf.Path{pred}}, {Subj: ent, Path: rdf.Path{pred}}}
	if vals, err := LocalIndex(g).PathObjects(ctx, batch, make([][]rdf.ID, len(batch)), nil); !errors.Is(err, context.Canceled) || vals != nil {
		t.Fatalf("PathObjects = %v, %v; want nil, context.Canceled", vals, err)
	}
	if g.reads != 1 {
		t.Errorf("%d graph reads after cancelling during the first, want 1", g.reads)
	}
}

// TestBFQReadsItsProbePlanOnce pins the enumerate/probe split with counts:
// whatever a question's mentions, entities and templates, one bfq makes one
// PathObjects call (none when no template carries mass — there is nothing
// to read), and the probes of that call are pairwise distinct.
func TestBFQReadsItsProbePlanOnce(t *testing.T) {
	f := world(t)
	e, g := countingEngine(f)
	ctx := context.Background()
	answered, shared := 0, 0
	for _, p := range f.pairs {
		g.calls.Store(0)
		g.batches = g.batches[:0]
		q := e.parse(text.Tokenize(p.Q))
		_, cands, err := e.bfq(ctx, &q)
		calls := g.calls.Load()
		if want := int64(1); (err == nil || errors.Is(err, ErrNoAnswer)) && calls != want {
			t.Fatalf("bfq(%q) = %v made %d PathObjects calls, want %d", p.Q, err, calls, want)
		}
		if calls > 1 {
			t.Fatalf("bfq(%q) made %d PathObjects calls", p.Q, calls)
		}
		if calls == 0 {
			continue
		}
		seen := make(map[string]bool)
		for _, pr := range g.batches[0] {
			k := fmt.Sprint(pr.Subj, pr.Path)
			if seen[k] {
				t.Fatalf("bfq(%q) probes (%d, %s) twice in one plan", p.Q, pr.Subj, rdf.Key(f.kb.Store, pr.Path))
			}
			seen[k] = true
		}
		if err == nil {
			answered++
			if len(cands) > len(g.batches[0]) {
				shared++
			}
		}
	}
	if answered == 0 || shared == 0 {
		t.Fatalf("%d questions answered, %d with more candidates than probes; the fixture must exercise deduplication", answered, shared)
	}
}

// TestDeadlineStopsBetweenHops cancels a multi-hop complex question inside
// its last hop's read, which holds every binding of the hop: execution must
// stop with the context error, reading no further probe of the batch and
// settling no binding, rather than run the question to completion.
func TestDeadlineStopsBetweenHops(t *testing.T) {
	f := world(t)
	e, g := countingEngine(f)

	// Find a decomposed question whose last hop reads two probes or more.
	var q string
	var full, before int64
	for _, cp := range corpus.ComposeComplex(f.kb, 99, 300) {
		g.probes.Store(0)
		g.batches = g.batches[:0]
		ans, err := askCtx(context.Background(), e, cp.Q)
		if err != nil || len(ans.Steps) < 2 {
			continue
		}
		if last := int64(len(g.batches[len(g.batches)-1])); last >= 2 {
			q, full = cp.Q, g.probes.Load()
			before = full - last
			break
		}
	}
	if q == "" {
		t.Fatal("fixture decomposes no multi-hop question whose last hop reads two probes or more")
	}

	e2, g2 := countingEngine(f)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stopAt := before + 1 // the first probe of the last hop's read
	g2.onProbe = func(n int64) {
		if n == stopAt {
			cancel()
		}
	}
	if _, err := askCtx(ctx, e2, q); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := g2.probes.Load(); n >= full {
		t.Errorf("chain ran to completion: %d probes, uncancelled run needs %d", n, full)
	} else if n != stopAt {
		t.Errorf("%d probes after cancelling during probe %d of %d", n, stopAt, full)
	}
}

// oracleSpans lists the spans of toks the δ oracle examines, in the DP's
// order: within the decomposition window, every span that contains one of
// the window's mentions and is not the whole question.
func oracleSpans(e *Engine, toks []string) []text.Span {
	window := toks[:min(len(toks), maxDecomposeTokens)]
	mentions := e.KB.Lexicon.Find(window)
	var spans []text.Span
	for length := 1; length <= len(window) && length < len(toks); length++ {
		for i := 0; i+length <= len(window); i++ {
			sp := text.Span{Start: i, End: i + length}
			for _, m := range mentions {
				if sp.Contains(m.Span) {
					spans = append(spans, sp)
					break
				}
			}
		}
	}
	return spans
}

// TestComplexQuestionReadsPerPhase pins the reads of a decomposed question
// with counts: the direct path reads once if it enumerated any probe; the δ
// oracle at most once, a batch that is the distinct union of its spans'
// probes; the chain's first hop never, the oracle answered it; each later
// hop exactly once, the distinct union of its bindings' probes.
func TestComplexQuestionReadsPerPhase(t *testing.T) {
	f := world(t)
	e, g := countingEngine(f)
	ctx := context.Background()
	keys := func(probes []rdf.Probe) []string {
		out := make([]string, len(probes))
		for i, p := range probes {
			out[i] = fmt.Sprint(p.Subj, p.Path)
		}
		return out
	}
	// union enumerates each question into a plan of its own and returns the
	// distinct probes of all of them, in order of first appearance.
	union := func(questions ...[]string) []string {
		var out []string
		seen := make(map[string]bool)
		for _, toks := range questions {
			var plan probePlan
			q := e.parse(toks)
			e.enumerateOne(&q, &plan)
			for _, k := range keys(plan.probes) {
				if !seen[k] {
					seen[k] = true
					out = append(out, k)
				}
			}
		}
		return out
	}
	decomposed, hops := 0, 0
	for _, cp := range corpus.ComposeComplex(f.kb, 99, 300) {
		g.batches = g.batches[:0]
		ans, err := askCtx(ctx, e, cp.Q)
		if err != nil || len(ans.Steps) < 2 {
			continue
		}
		decomposed++
		toks := text.Tokenize(cp.Q)
		type phase struct {
			name  string
			reads int
			want  []string
		}
		direct := union(toks)
		var spans [][]string
		for _, sp := range oracleSpans(e, toks) {
			spans = append(spans, toks[sp.Start:sp.End])
		}
		oracle := union(spans...)
		phases := []phase{{"direct path", min(len(direct), 1), direct}, {"oracle", min(len(oracle), 1), oracle}, {"hop 0", 0, nil}}
		for i, st := range ans.Steps[1:] {
			var bound [][]string
			for _, bq := range st.Questions {
				bound = append(bound, text.Tokenize(bq))
			}
			phases = append(phases, phase{fmt.Sprintf("hop %d", i+1), 1, union(bound...)})
			hops++
		}
		reads := 0
		for _, ph := range phases {
			reads += ph.reads
		}
		if len(g.batches) != reads {
			t.Fatalf("%q: %d PathObjects calls, want %d: %+v", cp.Q, len(g.batches), reads, phases)
		}
		next := 0
		for _, ph := range phases {
			if ph.reads == 0 {
				continue
			}
			if got := keys(g.batches[next]); !slices.Equal(got, ph.want) {
				t.Fatalf("%q: the %s read\n%q, want the distinct union of its questions' probes\n%q", cp.Q, ph.name, got, ph.want)
			}
			next++
		}
	}
	if decomposed == 0 {
		t.Fatal("fixture decomposes no complex question")
	}
	t.Logf("%d decomposed questions, %d later hops, each read once", decomposed, hops)
}

// failingIndex serves `healthy` reads, then fails every one after — a shard
// whose replicas all went down mid-question.
type failingIndex struct {
	Index
	healthy atomic.Int64
}

var errShardDown = errors.New("every replica of the shard is down")

func (f *failingIndex) PathObjects(ctx context.Context, probes []rdf.Probe, out [][]rdf.ID, vals []rdf.ID) ([]rdf.ID, error) {
	if f.healthy.Add(-1) < 0 {
		return nil, errShardDown
	}
	return f.Index.PathObjects(ctx, probes, out, vals)
}

func (f *failingIndex) Subjects(ctx context.Context, pred rdf.PID, obj rdf.ID) ([]rdf.ID, error) {
	if f.healthy.Add(-1) < 0 {
		return nil, errShardDown
	}
	return f.Index.Subjects(ctx, pred, obj)
}

// TestIndexFailureAbortsAnswer: an Index read failing at any point of a
// question — first probe, mid-ranking, inside the decomposition oracle —
// must surface as that error, never as a shorter answer or as "no answer"
// (which the serving layer would cache).
func TestIndexFailureAbortsAnswer(t *testing.T) {
	f := world(t)
	ctx := context.Background()
	complexQ := ""
	for _, cp := range corpus.ComposeComplex(f.kb, 99, 30) {
		if ans, err := askCtx(ctx, f.engine, cp.Q); err == nil && len(ans.Steps) > 1 {
			complexQ = cp.Q
			break
		}
	}
	if complexQ == "" {
		t.Fatal("fixture decomposes no complex question")
	}
	bfq, _ := answerableQuestion(t, f, 1)
	questions := []string{
		bfq,
		complexQ,
		"Which city has the 3rd largest population?",
		"List cities ordered by population",
	}
	for _, q := range questions {
		// Count the reads of a healthy run, then fail at every position.
		counter := &failingIndex{Index: f.engine.Index}
		counter.healthy.Store(1 << 30)
		e := NewEngine(f.kb.Store, counter, f.kb.Taxonomy, f.model, f.engine.Stats)
		if _, _, _, err := e.Answer(ctx, q, 0, true); err != nil {
			t.Fatalf("healthy Answer(%q): %v", q, err)
		}
		reads := 1<<30 - counter.healthy.Load()
		if reads == 0 {
			t.Fatalf("%q needs no index read", q)
		}
		step := reads/25 + 1
		for healthy := int64(0); healthy < reads; healthy += step {
			fi := &failingIndex{Index: f.engine.Index}
			fi.healthy.Store(healthy)
			e := NewEngine(f.kb.Store, fi, f.kb.Taxonomy, f.model, f.engine.Stats)
			ans, _, _, err := e.Answer(ctx, q, 0, true)
			if !errors.Is(err, errShardDown) {
				t.Fatalf("%q with the index failing after %d of %d reads: err = %v (variant ok %v), want the index's error",
					q, healthy, reads, err, ans.Variant != nil)
			}
		}
	}
}
