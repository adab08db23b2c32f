package serve

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestDoFingerprintKeysCache: the same question under different option
// fingerprints must occupy distinct cache entries (and flights), while
// repeats under the same fingerprint share one engine call.
func TestDoFingerprintKeysCache(t *testing.T) {
	var calls atomic.Int64
	r := New(Options[string]{})
	ctx := context.Background()
	compute := func(tag string) AskFunc[string] {
		return func(_ context.Context, q string) (string, StageTimings, bool, error) {
			calls.Add(1)
			return tag + ":" + q, StageTimings{}, true, nil
		}
	}
	for i := 0; i < 3; i++ {
		ans, ok, err := r.Do(ctx, "who is x?", "k=1", compute("a"))
		if err != nil || !ok || ans != "a:who is x?" {
			t.Fatalf("k=1 round %d = (%q, %v, %v)", i, ans, ok, err)
		}
	}
	for i := 0; i < 3; i++ {
		ans, ok, err := r.Do(ctx, "who is x?", "k=5", compute("b"))
		if err != nil || !ok || ans != "b:who is x?" {
			t.Fatalf("k=5 round %d = (%q, %v, %v)", i, ans, ok, err)
		}
	}
	if n := calls.Load(); n != 2 {
		t.Errorf("engine calls = %d, want 2 (one per fingerprint)", n)
	}
	m := r.Metrics()
	if m.CacheEntries != 2 {
		t.Errorf("cache entries = %d, want 2", m.CacheEntries)
	}
}

// TestDoComputeErrorNotCached: an infrastructure error from the engine
// (context expiry mid-scan) must propagate without poisoning the cache —
// the next request for the same key pays a fresh engine call and succeeds.
func TestDoComputeErrorNotCached(t *testing.T) {
	var calls atomic.Int64
	fail := errors.New("boom")
	r := withEngine(func(_ context.Context, q string) (string, StageTimings, bool, error) {
		if calls.Add(1) == 1 {
			return "", StageTimings{}, false, fail
		}
		return "ans", StageTimings{}, true, nil
	}, Options[string]{})
	ctx := context.Background()
	if _, _, err := r.Ask(ctx, "q"); !errors.Is(err, fail) {
		t.Fatalf("first ask err = %v, want boom", err)
	}
	ans, ok, err := r.Ask(ctx, "q")
	if err != nil || !ok || ans != "ans" {
		t.Fatalf("second ask = (%q, %v, %v), want fresh success", ans, ok, err)
	}
	if n := calls.Load(); n != 2 {
		t.Errorf("engine calls = %d, want 2 (error not cached)", n)
	}
}

// TestDoEngineContextError: a compute function that honours its context
// surfaces the deadline as the request error and counts under the timeout
// code.
func TestDoEngineContextError(t *testing.T) {
	r := withEngine(func(ctx context.Context, q string) (string, StageTimings, bool, error) {
		<-ctx.Done()
		return "", StageTimings{}, false, ctx.Err()
	}, Options[string]{Timeout: 5 * time.Millisecond})
	_, _, err := r.Ask(context.Background(), "slow")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	m := r.Metrics()
	if m.Errors[CodeTimeout] == 0 {
		t.Errorf("timeout code not counted: %+v", m.Errors)
	}
}

func TestErrorCodeMapping(t *testing.T) {
	cases := map[string]error{
		"":               nil,
		CodeTimeout:      context.DeadlineExceeded,
		CodeCanceled:     context.Canceled,
		CodeShuttingDown: ErrShuttingDown,
		CodeEnginePanic:  ErrEnginePanic,
		CodeInternal:     errors.New("anything else"),
	}
	for want, err := range cases {
		if got := ErrorCode(err); got != want {
			t.Errorf("ErrorCode(%v) = %q, want %q", err, got, want)
		}
	}
}

func TestCountErrorSurfacesInSnapshot(t *testing.T) {
	r := withEngine(echoAsk(nil), Options[string]{})
	r.CountError("no_entity")
	r.CountError("no_entity")
	r.CountError("no_answer")
	r.CountError("") // ignored
	m := r.Metrics()
	if m.Errors["no_entity"] != 2 || m.Errors["no_answer"] != 1 {
		t.Errorf("errors = %+v", m.Errors)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := withEngine(echoAsk(nil), Options[string]{})
	ctx := context.Background()
	r.Ask(ctx, "q1")
	r.Ask(ctx, "q1")
	r.Ask(ctx, "unanswerable")
	r.CountError("no_answer")
	r.Close()
	r.Ask(ctx, "q2") // shutting_down

	var b strings.Builder
	if err := WritePrometheus(&b, r.Metrics()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	wants := []string{
		"# TYPE kbqa_requests_total counter",
		"kbqa_requests_total 3",
		"kbqa_cache_hits_total 1",
		"kbqa_cache_misses_total 2",
		`kbqa_query_errors_total{code="no_answer"} 1`,
		`kbqa_query_errors_total{code="shutting_down"} 1`,
		"# TYPE kbqa_stage_latency_seconds histogram",
		`kbqa_stage_latency_seconds_bucket{stage="total",le="+Inf"} 3`,
		`kbqa_stage_latency_seconds_count{stage="total"} 3`,
	}
	for _, want := range wants {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
	// le labels must not use exponent notation, which some scrapers reject.
	if got := formatFloat(1e-6); got != "0.000001" {
		t.Errorf("formatFloat(1e-6) = %q", got)
	}
}

// TestDoBatchSharesFingerprintedCache: DoBatch entries land in the same
// fingerprinted cache namespace as Do.
func TestDoBatchSharesFingerprintedCache(t *testing.T) {
	var calls atomic.Int64
	compute := func(_ context.Context, q string) (string, StageTimings, bool, error) {
		calls.Add(1)
		return "ans:" + q, StageTimings{}, true, nil
	}
	r := New(Options[string]{})
	ctx := context.Background()
	if _, _, err := r.Do(ctx, "a", "fp", compute); err != nil {
		t.Fatal(err)
	}
	items := r.DoBatch(ctx, []string{"a", "b"}, "fp", compute)
	for i, it := range items {
		if it.Err != nil || !it.OK {
			t.Fatalf("slot %d = %+v", i, it)
		}
	}
	if n := calls.Load(); n != 2 {
		t.Errorf("engine calls = %d, want 2 (batch reused Do's cached answer)", n)
	}
}
