package core

import (
	"context"
	"errors"
	"sort"
	"sync/atomic"
	"testing"

	"repro/internal/corpus"
	"repro/internal/learn"
	"repro/internal/rdf"
	"repro/internal/text"
)

// probeCountingIndex wraps an Index and counts PathObjects probes, invoking
// an optional hook per probe — the instrument behind the cancellation
// tests: it proves a cancelled context stops the interpretation scan
// instead of letting it run to completion.
type probeCountingIndex struct {
	Index
	probes  atomic.Int64
	onProbe func(n int64)
}

func (g *probeCountingIndex) PathObjects(ctx context.Context, subj rdf.ID, path rdf.Path) ([]rdf.ID, error) {
	n := g.probes.Add(1)
	if g.onProbe != nil {
		g.onProbe(n)
	}
	return g.Index.PathObjects(ctx, subj, path)
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

// TestDeadlineStopsBetweenHops cancels midway through a multi-hop complex
// question: execution must stop between hops/bindings with the context
// error rather than fanning out the remaining bindings.
func TestDeadlineStopsBetweenHops(t *testing.T) {
	f := world(t)
	e, g := countingEngine(f)

	// Find a complex question the engine actually decomposes.
	var q string
	var full int64
	for _, cp := range corpus.ComposeComplex(f.kb, 99, 30) {
		g.probes.Store(0)
		ans, err := askCtx(context.Background(), e, cp.Q)
		if err == nil && len(ans.Steps) >= 2 && g.probes.Load() >= 4 {
			q, full = cp.Q, g.probes.Load()
			break
		}
	}
	if q == "" {
		t.Skip("no multi-hop question with enough probes in this fixture")
	}

	e2, g2 := countingEngine(f)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stopAt := full / 2
	if stopAt < 1 {
		stopAt = 1
	}
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
	}
}

// failingIndex serves `healthy` reads, then fails every one after — a shard
// whose replicas all went down mid-question.
type failingIndex struct {
	Index
	healthy atomic.Int64
}

var errShardDown = errors.New("every replica of the shard is down")

func (f *failingIndex) PathObjects(ctx context.Context, subj rdf.ID, path rdf.Path) ([]rdf.ID, error) {
	if f.healthy.Add(-1) < 0 {
		return nil, errShardDown
	}
	return f.Index.PathObjects(ctx, subj, path)
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
