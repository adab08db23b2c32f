package serve

import (
	"context"
	"testing"
	"time"

	"repro/internal/benchjson"
	"repro/internal/obs"
)

// BenchmarkTraceOverhead prices the instrumentation on the hottest serving
// path — a cache-hit Ask — in the two states that matter: untraced (the
// compiled-in StartSpan calls hit their one-context-lookup fast path) and
// fully traced (a sampled trace in the context, so every span is actually
// built). The untraced number is what every production request pays when
// sampling is off; the traced number is the per-request cost of capture.
func BenchmarkTraceOverhead(b *testing.B) {
	r := New(echoAsk(nil), Options{})
	defer r.Close()
	ctx := context.Background()
	if _, _, err := r.Ask(ctx, "q"); err != nil {
		b.Fatal(err)
	}

	b.ResetTimer()
	t0 := time.Now()
	for i := 0; i < b.N; i++ {
		r.Ask(ctx, "q")
	}
	untraced := time.Since(t0)

	tracer := obs.NewTracer(obs.Options{SampleRate: 1, Capacity: 8})
	tctx, trace := tracer.Start(ctx, "bench")
	t0 = time.Now()
	for i := 0; i < b.N; i++ {
		r.Ask(tctx, "q")
		if i%4096 == 4095 { // bound the span tree; a real trace spans one request
			trace.Finish()
			tctx, trace = tracer.Start(ctx, "bench")
		}
	}
	traced := time.Since(t0)
	trace.Finish()
	b.StopTimer()

	un := float64(untraced.Nanoseconds()) / float64(b.N)
	tr := float64(traced.Nanoseconds()) / float64(b.N)
	b.ReportMetric(un, "untraced-ns/op")
	b.ReportMetric(tr, "traced-ns/op")
	b.ReportMetric(tr-un, "overhead-ns/op")

	benchjson.Write(b, "trace_overhead", map[string]any{
		"benchmark":        "BenchmarkTraceOverhead",
		"asks":             2 * b.N,
		"untraced_ns_op":   un,
		"traced_ns_op":     tr,
		"overhead_ns_op":   tr - un,
		"overhead_note":    "untraced_ns_op is a cache-hit Ask with tracing compiled in but no trace in the context (the sampling-off production path); traced_ns_op carries a sampled trace so every serve.* span is materialized",
		"span_fast_path":   "StartSpan on an untraced context is one context lookup returning a nil span; all span methods no-op on nil",
		"sampling_off_gap": "a Tracer with SampleRate 0 and no SlowThreshold returns a nil trace from Start, so fully disabled tracing never allocates",
	})
}
