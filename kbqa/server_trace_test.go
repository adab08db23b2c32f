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

// TestServerBatchTraceIDs checks that QueryBatch results are stamped with
// the batch trace's ID.
func TestServerBatchTraceIDs(t *testing.T) {
	s := testSystem(t)
	sv := mustServer(t, s, ServerOptions{TraceSampleRate: 1, SlowQueryThreshold: time.Hour})
	defer sv.Close()
	qs := s.SampleQuestions(4)
	brs := sv.QueryBatch(context.Background(), qs)
	var tid string
	for _, br := range brs {
		if br.Err != nil || br.Result == nil {
			continue
		}
		if br.Result.TraceID == "" {
			t.Fatalf("batch result for %q has no TraceID", br.Question)
		}
		if tid == "" {
			tid = br.Result.TraceID
		} else if br.Result.TraceID != tid {
			t.Fatalf("batch results span trace IDs %s and %s, want one batch trace", tid, br.Result.TraceID)
		}
	}
	if tid == "" {
		t.Skip("no batch question answered; nothing to assert")
	}
	for _, tr := range sv.Traces() {
		if tr.ID == tid {
			if tr.Root.Name != "kbqa.batch" {
				t.Errorf("batch trace root = %q, want kbqa.batch", tr.Root.Name)
			}
			return
		}
	}
	t.Fatalf("batch trace %s not retained", tid)
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
