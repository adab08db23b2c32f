package core

import (
	"context"
	"slices"
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
// Timings exactly (both read the same accumulator), one engine.oracle span
// for the decomposition DP and its one read, an engine.probe span for the
// direct path, none for the chain's first hop (the oracle answered it) and
// one per later hop around the read of all its bindings, each binding
// settled under an engine.bfq span.
func TestAnswerTraceStagesMatchTimings(t *testing.T) {
	f := world(t)
	path, _ := rdf.ParsePath(f.kb.Store, "marriage→person→name")
	var subject string
	for _, p := range f.kb.ByCategory["person"] {
		if len(rdf.PathObjects(nil, f.kb.Store, p, path)) > 0 {
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
	attr := func(sp *obs.SpanSnapshot, key string) int {
		v, ok := sp.Attr(key)
		n, err := strconv.Atoi(v)
		if !ok || err != nil {
			t.Fatalf("%s %s attr = %q, %v", sp.Name, key, v, ok)
		}
		return n
	}

	// Hop 0 reuses the oracle's answer and reads nothing; each later hop
	// reads all its bindings in one engine.probe and settles each under an
	// engine.bfq carrying its question.
	var hops []*obs.SpanSnapshot
	for i := range eng.Children {
		if eng.Children[i].Name == "engine.hop" {
			hops = append(hops, &eng.Children[i])
		}
	}
	if len(hops) != len(ans.Steps) {
		t.Fatalf("found %d engine.hop spans, want one per step (%d)", len(hops), len(ans.Steps))
	}
	if n := count(hops[0], "engine.probe") + count(hops[0], "engine.bfq"); n != 0 {
		t.Errorf("hop 0 opened %d probe/bfq spans, want 0: the oracle answered it", n)
	}
	if v, _ := hops[0].Attr("question"); v != ans.Steps[0].Question {
		t.Errorf("hop 0 question attr = %q, want %q", v, ans.Steps[0].Question)
	}
	for i, h := range hops[1:] {
		st := ans.Steps[i+1]
		if n := count(h, "engine.probe"); n != 1 {
			t.Fatalf("hop %d has %d engine.probe spans, want 1", i+1, n)
		}
		probe := h.Find("engine.probe")
		if b := attr(probe, "bindings"); b != len(st.Questions) || attr(probe, "probes") < 1 {
			t.Errorf("hop %d engine.probe: bindings %d, probes %d; want %d bindings", i+1, b, attr(probe, "probes"), len(st.Questions))
		}
		var questions []string
		for _, c := range h.Children {
			if c.Name == "engine.bfq" {
				v, _ := c.Attr("question")
				questions = append(questions, v)
			}
		}
		if !slices.Equal(questions, st.Questions) {
			t.Errorf("hop %d engine.bfq questions %q, want the step's %q", i+1, questions, st.Questions)
		}
	}

	// One engine.oracle span covers the DP and the oracle's one read, which
	// opens no probe span of its own; the direct path and the later hops
	// hold the only engine.probe spans.
	if n := count(eng, "engine.oracle"); n != 1 {
		t.Fatalf("%d engine.oracle spans, want 1", n)
	}
	oracle := eng.Find("engine.oracle")
	if n := count(oracle, "engine.probe"); n != 0 {
		t.Errorf("the oracle opened %d probe spans, want 0", n)
	}
	if n := count(eng, "engine.probe"); n != len(ans.Steps) {
		t.Errorf("%d engine.probe spans, want %d: the direct path + one per later hop", n, len(ans.Steps))
	}
	// probes counts the distinct probes of the oracle's one read: the union
	// of what its spans enumerate, not their sum.
	toks := text.Tokenize(q)
	var plan probePlan
	for _, sp := range oracleSpans(f.engine, toks) {
		p := f.engine.parse(toks[sp.Start:sp.End])
		f.engine.enumerateOne(&p, &plan)
	}
	if tried, accepted, probes := attr(oracle, "spans_tried"), attr(oracle, "spans_accepted"), attr(oracle, "probes"); accepted < 1 || tried < accepted || probes != len(plan.probes) {
		t.Errorf("engine.oracle tried %d spans, accepted %d, probed %d; want %d distinct probes", tried, accepted, probes, len(plan.probes))
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
