package serve

import (
	"context"
	"testing"
	"time"

	"repro/internal/obs"
)

// BenchmarkTraceOverhead prices the instrumentation on the hottest serving
// path — a cache-hit Ask — in the two states that matter: untraced (the
// compiled-in StartSpan calls hit their one-context-lookup fast path) and
// fully traced (a sampled trace in the context, so every span is actually
// built). The untraced number is what a request pays with tracing off: a
// Server with no trace option, or kbqa-server with -slow-query 0 and no
// -trace-sample. The traced number is what kbqa-server's requests pay by
// default, since its -slow-query 500ms traces every request.
func BenchmarkTraceOverhead(b *testing.B) {
	r := withEngine(echoAsk(nil), Options[string]{})
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
}
