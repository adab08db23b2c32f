package core

import (
	"context"
	"strconv"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/rdf"
	"repro/internal/text"
)

// TestAnswerTraceStagesMatchTimings drives a traced chain question through
// the engine and checks the span tree: an engine.answer root with
// parse/match/probe stage children whose durations equal the returned
// Timings exactly (both read the same accumulator), per-hop and per-BFQ
// spans from chain execution, one engine.oracle span for the decomposition
// DP, and an engine.probe span for each BFQ outside it.
func TestAnswerTraceStagesMatchTimings(t *testing.T) {
	f := world(t)
	path, _ := rdf.ParsePath(f.kb.Store, "marriage→person→name")
	var subject string
	for _, p := range f.kb.ByCategory["person"] {
		if len(rdf.PathObjects(f.kb.Store, p, path)) > 0 {
			subject = f.kb.Store.Label(p)
			break
		}
	}
	q := "When was " + text.TitleCase(subject) + "'s wife born?"

	tracer := obs.NewTracer(obs.Options{SampleRate: 1})
	ctx, trace := tracer.Start(context.Background(), "test")
	ans, _, tm, err := f.engine.Answer(ctx, q, 3, false)
	trace.Finish()
	if err != nil {
		t.Fatalf("no answer for %q: %v", q, err)
	}
	if len(ans.Steps) < 2 {
		t.Fatalf("expected a decomposed answer for %q", q)
	}

	snaps := tracer.Snapshot()
	if len(snaps) != 1 {
		t.Fatalf("captured %d traces, want 1", len(snaps))
	}
	root := snaps[0].Root
	eng := root.Find("engine.answer")
	if eng == nil {
		t.Fatalf("no engine.answer span in %+v", root)
	}
	for stage, want := range map[string]time.Duration{
		"parse": tm.Parse, "match": tm.Match, "probe": tm.Probe,
	} {
		sp := eng.Find(stage)
		if sp == nil {
			t.Fatalf("missing %s stage span", stage)
		}
		if sp.DurationNanos != want.Nanoseconds() {
			t.Errorf("%s span = %dns, Timings report %dns", stage, sp.DurationNanos, want.Nanoseconds())
		}
	}
	if tm.Parse+tm.Match+tm.Probe > tm.Total {
		t.Errorf("stage sum %v exceeds total %v", tm.Parse+tm.Match+tm.Probe, tm.Total)
	}
	if eng.DurationNanos > snaps[0].DurationNanos {
		t.Error("engine span outlived the trace")
	}

	// Chain execution must surface hop and BFQ spans.
	hops := 0
	for _, c := range eng.Children {
		if c.Name == "engine.hop" {
			hops++
			if c.Find("engine.bfq") == nil {
				t.Errorf("hop span has no BFQ child: %+v", c)
			}
		}
	}
	if hops < 2 {
		t.Fatalf("found %d engine.hop spans, want >= 2 for a 2-step chain", hops)
	}
	// One engine.oracle span covers the δ oracle's BFQs, which open no
	// engine.probe of their own; the direct path and every hop BFQ keep
	// theirs, and nothing else opens one.
	var count func(sp *obs.SpanSnapshot, name string) int
	count = func(sp *obs.SpanSnapshot, name string) int {
		n := 0
		if sp.Name == name {
			n++
		}
		for i := range sp.Children {
			n += count(&sp.Children[i], name)
		}
		return n
	}
	if n := count(eng, "engine.oracle"); n != 1 {
		t.Fatalf("%d engine.oracle spans, want 1", n)
	}
	oracle := eng.Find("engine.oracle")
	if n := count(oracle, "engine.probe") + count(oracle, "probe.shard"); n != 0 {
		t.Errorf("the oracle's BFQs opened %d probe spans, want 0", n)
	}
	wantProbes := 1 // the direct path
	for _, st := range ans.Steps {
		wantProbes += len(st.Questions)
	}
	if n := count(eng, "engine.probe"); n != wantProbes {
		t.Errorf("%d engine.probe spans, want %d: the direct path + one per hop BFQ", n, wantProbes)
	}
	attr := func(key string) int {
		v, ok := oracle.Attr(key)
		n, err := strconv.Atoi(v)
		if !ok || err != nil {
			t.Fatalf("engine.oracle %s attr = %q, %v", key, v, ok)
		}
		return n
	}
	if tried, accepted, probes := attr("spans_tried"), attr("spans_accepted"), attr("probes"); accepted < 1 || tried < accepted || probes < accepted {
		t.Errorf("engine.oracle tried %d spans, accepted %d, probed %d", tried, accepted, probes)
	}
	if v, ok := eng.Attr("question"); !ok || v != q {
		t.Errorf("engine.answer question attr = %q, want %q", v, q)
	}
}

// TestUntracedAnswerUnchanged pins the fast path: without a trace in the
// context the engine must not allocate spans and the timed/untimed results
// must match the traced ones.
func TestUntracedAnswerUnchanged(t *testing.T) {
	f := world(t)
	q := "What is the population of a city?" // answerable shape irrelevant; compare traced vs untraced
	for _, p := range f.pairs[:5] {
		q = p.Q
		a1, ok1 := ask(f.engine, q)
		tracer := obs.NewTracer(obs.Options{SampleRate: 1})
		ctx, trace := tracer.Start(context.Background(), "t")
		a2, err := askCtx(ctx, f.engine, q)
		trace.Finish()
		if ok1 != (err == nil) {
			t.Fatalf("traced/untraced answerability diverged for %q: %v vs %v", q, ok1, err)
		}
		if !ok1 {
			continue
		}
		if a1.Value != a2.Value || a1.Path != a2.Path {
			t.Fatalf("traced answer diverged for %q: %+v vs %+v", q, a1, a2)
		}
	}
}
