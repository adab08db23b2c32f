package kbqa

import (
	"context"
	"testing"
	"time"
)

// TestServerTraceIDStamped drives a traced server and pins the TraceID
// contract: every Result carries the ID of the request's own trace, a
// cache hit gets a fresh ID on a shallow copy (the shared cached Result
// is never mutated), and each ID resolves to a retained trace whose tree
// contains the serving-pipeline spans.
func TestServerTraceIDStamped(t *testing.T) {
	s := testSystem(t)
	sv := mustServer(t, s, ServerOptions{TraceSampleRate: 1})
	defer sv.Close()
	if sv.Tracer() == nil {
		t.Fatal("trace options set but Tracer() is nil")
	}
	ctx := context.Background()
	q := s.SampleQuestions(1)[0]

	r1, err := sv.Query(ctx, q)
	if err != nil {
		t.Fatalf("Query(%q): %v", q, err)
	}
	r2, err := sv.Query(ctx, q) // cache hit
	if err != nil {
		t.Fatal(err)
	}
	if r1.TraceID == "" || r2.TraceID == "" {
		t.Fatalf("traced queries returned empty TraceIDs: %q, %q", r1.TraceID, r2.TraceID)
	}
	if r1.TraceID == r2.TraceID {
		t.Fatalf("distinct requests share TraceID %s", r1.TraceID)
	}
	if r1.Answer != nil && r2.Answer != nil && r1.Answer.Value != r2.Answer.Value {
		t.Fatal("cache hit diverged from the computed answer")
	}

	byID := map[string]TraceSnapshot{}
	for _, tr := range sv.Traces() {
		byID[tr.ID] = tr
	}
	miss, ok := byID[r1.TraceID]
	if !ok {
		t.Fatalf("TraceID %s not in Traces()", r1.TraceID)
	}
	if miss.Root.Name != "kbqa.query" {
		t.Errorf("root span = %q, want kbqa.query", miss.Root.Name)
	}
	if v, _ := miss.Root.Attr("question"); v != q {
		t.Errorf("root question attr = %q, want %q", v, q)
	}
	if miss.Root.Find("serve.cache") == nil {
		t.Error("miss trace has no serve.cache span")
	}
	hit, ok := byID[r2.TraceID]
	if !ok {
		t.Fatalf("cache-hit TraceID %s not in Traces()", r2.TraceID)
	}
	if cs := hit.Root.Find("serve.cache"); cs == nil {
		t.Error("hit trace has no serve.cache span")
	} else if v, _ := cs.Attr("hit"); v != "true" {
		t.Errorf("second request cache attr = %q, want true", v)
	}
	if hit.Root.Find("serve.engine") != nil {
		t.Error("cache hit re-entered the engine")
	}
}

// TestServerUntracedHasNoTraceID pins the off state: no trace options, no
// tracer, no TraceID, no retained traces.
func TestServerUntracedHasNoTraceID(t *testing.T) {
	s := testSystem(t)
	sv := mustServer(t, s, ServerOptions{})
	defer sv.Close()
	if sv.Tracer() != nil {
		t.Fatal("tracer built without trace options")
	}
	q := s.SampleQuestions(1)[0]
	res, err := sv.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if res.TraceID != "" {
		t.Errorf("untraced result carries TraceID %q", res.TraceID)
	}
	if got := sv.Traces(); len(got) != 0 {
		t.Errorf("untraced server retained %d traces", len(got))
	}
}

// TestServerBatchTraceIDs pins where a batch's trace ID lives: QueryBatch
// Results carry none. A batch runs under the trace its caller opened,
// whose ID finds it with one span per question under the caller's root, or
// else under a kbqa.batch trace of its own.
func TestServerBatchTraceIDs(t *testing.T) {
	s := testSystem(t)
	sv := mustServer(t, s, ServerOptions{TraceSampleRate: 1, SlowQueryThreshold: time.Hour})
	defer sv.Close()
	qs := s.SampleQuestions(4)
	noIDs := func(brs []BatchResult) {
		t.Helper()
		for _, br := range brs {
			if br.Result != nil && br.Result.TraceID != "" {
				t.Errorf("batch result for %q carries TraceID %q", br.Question, br.Result.TraceID)
			}
		}
	}

	ctx, trace := sv.Tracer().Start(context.Background(), "caller.batch")
	noIDs(sv.QueryBatch(ctx, qs))
	trace.Finish()
	snap, ok := sv.FindTrace(trace.ID())
	if !ok {
		t.Fatalf("the caller's batch trace %s not retained", trace.ID())
	}
	if snap.Root.Name != "caller.batch" || len(snap.Root.Children) != len(qs) {
		t.Errorf("the caller's batch trace is %s with %d children, want caller.batch with %d", snap.Root.Name, len(snap.Root.Children), len(qs))
	}

	noIDs(sv.QueryBatch(context.Background(), qs))
	own := sv.Traces()[0].Root
	if q, _ := own.Attr("question"); own.Name != "kbqa.batch" || q != "[batch of 4]" || len(own.Children) != len(qs) {
		t.Errorf("QueryBatch's own trace is %s (question %q) with %d children, want kbqa.batch ([batch of 4]) with %d",
			own.Name, q, len(own.Children), len(qs))
	}
}

// TestExemplarsResolveToRetainedTraces: a latency exemplar names a trace
// that /debug/traces can return. Slow capture alone traces every request
// and retains none that finishes fast, so no stage may publish one; under
// sampling every stage still has one, and each resolves through FindTrace.
func TestExemplarsResolveToRetainedTraces(t *testing.T) {
	s := testSystem(t)
	ctx := context.Background()
	for _, tc := range []struct {
		name    string
		opts    ServerOptions
		sampled bool
	}{
		{"slow capture only", ServerOptions{SlowQueryThreshold: 500 * time.Millisecond}, false},
		{"sampled", ServerOptions{TraceSampleRate: 1, SlowQueryThreshold: 500 * time.Millisecond}, true},
	} {
		sv := mustServer(t, s, tc.opts)
		for _, q := range s.SampleQuestions(4) {
			if _, err := sv.Query(ctx, q); err != nil {
				t.Fatalf("%s: Query(%q): %v", tc.name, q, err)
			}
		}
		stages := sv.Metrics().Stages
		if len(stages) != 4 {
			t.Fatalf("%s: %d stage histograms, want 4", tc.name, len(stages))
		}
		for stage, h := range stages {
			if h.ExemplarTraceID == "" {
				if tc.sampled {
					t.Errorf("%s: stage %s has no exemplar", tc.name, stage)
				}
				continue
			}
			if _, ok := sv.FindTrace(h.ExemplarTraceID); !ok {
				t.Errorf("%s: stage %s's exemplar %s is not a retained trace (%d retained)",
					tc.name, stage, h.ExemplarTraceID, len(sv.Traces()))
			}
		}
		sv.Close()
	}
}
