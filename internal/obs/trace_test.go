package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestStartSpanWithoutTraceIsInert(t *testing.T) {
	ctx := context.Background()
	ctx2, sp := StartSpan(ctx, "noop")
	if sp != nil {
		t.Fatalf("expected nil span without an active trace, got %v", sp)
	}
	if ctx2 != ctx {
		t.Fatal("expected the context to pass through unchanged")
	}
	// The nil span chain must be safe end to end.
	sp.SetAttr("k", "v")
	sp.SetInt("n", 1)
	sp.Stage("stage", time.Millisecond)
	sp.End()
	if id := TraceID(ctx); id != "" {
		t.Fatalf("TraceID on untraced ctx = %q, want empty", id)
	}
	var nilTrace *Trace
	nilTrace.Finish()
	if nilTrace.ID() != "" || nilTrace.Root() != nil {
		t.Fatal("nil trace accessors must return zero values")
	}
	var nilTracer *Tracer
	if _, tr := nilTracer.Start(ctx, "x"); tr != nil {
		t.Fatal("nil tracer must return a nil trace")
	}
	if s := nilTracer.Snapshot(); s != nil {
		t.Fatal("nil tracer snapshot must be nil")
	}
}

func TestTraceNestingAndAttrs(t *testing.T) {
	tr := NewTracer(Options{SampleRate: 1})
	ctx, trace := tr.Start(context.Background(), "root")
	if trace == nil || trace.ID() == "" {
		t.Fatal("expected a live trace with an ID")
	}
	if got := TraceID(ctx); got != trace.ID() {
		t.Fatalf("TraceID(ctx) = %q, want %q", got, trace.ID())
	}
	ctx1, sp1 := StartSpan(ctx, "child")
	sp1.SetAttr("k", "v")
	sp1.SetInt("n", 42)
	for _, v := range []int64{-1, 0, 1 << 40, 7} { // past the inline attributes
		sp1.SetInt("more", v)
	}
	sp1.SetAttr("last", "x")
	_, sp2 := StartSpan(ctx1, "grandchild")
	sp2.End()
	sp1.Stage("stage", 5*time.Millisecond)
	sp1.End()
	trace.Finish()
	trace.Finish() // idempotent

	snaps := tr.Snapshot()
	if len(snaps) != 1 {
		t.Fatalf("got %d retained traces, want 1", len(snaps))
	}
	root := snaps[0].Root
	if root.Name != "root" || len(root.Children) != 1 {
		t.Fatalf("unexpected root: %+v", root)
	}
	child := root.Children[0]
	if child.Name != "child" {
		t.Fatalf("child name = %q", child.Name)
	}
	if v, ok := child.Attr("k"); !ok || v != "v" {
		t.Fatalf("attr k = %q, %v", v, ok)
	}
	if v, ok := child.Attr("n"); !ok || v != "42" {
		t.Fatalf("attr n = %q, %v", v, ok)
	}
	want := []Attr{{"k", "v"}, {"n", "42"}, {"more", "-1"}, {"more", "0"}, {"more", "1099511627776"}, {"more", "7"}, {"last", "x"}}
	if !reflect.DeepEqual(child.Attrs, want) {
		t.Fatalf("attrs = %v, want %v in the order set", child.Attrs, want)
	}
	if child.Find("grandchild") == nil {
		t.Fatal("missing grandchild span")
	}
	stage := child.Find("stage")
	if stage == nil || stage.DurationNanos != (5*time.Millisecond).Nanoseconds() {
		t.Fatalf("stage span = %+v, want explicit 5ms duration", stage)
	}
	if snaps[0].DurationNanos < root.Children[0].DurationNanos {
		t.Fatal("trace duration shorter than child span")
	}
	// The snapshot must round-trip as JSON (what /debug/traces serves).
	if _, err := json.Marshal(snaps); err != nil {
		t.Fatalf("marshal: %v", err)
	}
}

func TestSamplingZeroKeepsNothingFastQueries(t *testing.T) {
	tr := NewTracer(Options{SampleRate: 0, SlowThreshold: time.Hour})
	for i := 0; i < 10; i++ {
		_, trace := tr.Start(context.Background(), "q")
		trace.Finish()
	}
	if got := len(tr.Snapshot()); got != 0 {
		t.Fatalf("retained %d traces with sampling off and nothing slow", got)
	}
}

func TestSlowTracesAlwaysCapturedAndLogged(t *testing.T) {
	var buf bytes.Buffer
	log := NewLogger(&buf, LevelDebug)
	tr := NewTracer(Options{SampleRate: 0, SlowThreshold: time.Nanosecond, Logger: log})
	_, trace := tr.Start(context.Background(), "slow-one")
	trace.Root().SetAttr("question", "who?")
	time.Sleep(time.Millisecond)
	trace.Finish()

	snaps := tr.Snapshot()
	if len(snaps) != 1 || !snaps[0].Slow {
		t.Fatalf("slow trace not captured: %+v", snaps)
	}
	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("slow-query log is not one JSON object: %v (%q)", err, buf.String())
	}
	if rec["msg"] != "slow query" || rec["level"] != "warn" {
		t.Fatalf("unexpected slow-query record: %v", rec)
	}
	if rec["trace_id"] != snaps[0].ID {
		t.Fatalf("log trace_id %v != captured %v", rec["trace_id"], snaps[0].ID)
	}
	if rec["question"] != "who?" {
		t.Fatalf("root attrs not propagated to slow log: %v", rec)
	}
}

func TestRingEvictionNewestFirst(t *testing.T) {
	tr := NewTracer(Options{Capacity: 3, SampleRate: 1})
	ids := make([]string, 0, 5)
	for i := 0; i < 5; i++ {
		_, trace := tr.Start(context.Background(), "q")
		ids = append(ids, trace.ID())
		trace.Finish()
	}
	snaps := tr.Snapshot()
	if len(snaps) != 3 {
		t.Fatalf("ring holds %d, want 3", len(snaps))
	}
	// Newest first: traces 4, 3, 2.
	for i, want := range []string{ids[4], ids[3], ids[2]} {
		if snaps[i].ID != want {
			t.Fatalf("snapshot[%d] = %s, want %s", i, snaps[i].ID, want)
		}
	}
}

func TestConcurrentChildSpans(t *testing.T) {
	tr := NewTracer(Options{SampleRate: 1})
	ctx, trace := tr.Start(context.Background(), "root")
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, sp := StartSpan(ctx, "worker")
			sp.SetInt("i", int64(i))
			sp.End()
		}(i)
	}
	wg.Wait()
	trace.Finish()
	snaps := tr.Snapshot()
	if len(snaps) != 1 || len(snaps[0].Root.Children) != 16 {
		t.Fatalf("expected 16 concurrent children, got %+v", snaps)
	}
}

// TestDisabledTracerStartsNothing pins the fully-disabled fast path: with
// SampleRate 0 and no SlowThreshold, nothing could ever be retained, so
// Start skips span construction entirely.
func TestDisabledTracerStartsNothing(t *testing.T) {
	tr := NewTracer(Options{})
	ctx, trace := tr.Start(context.Background(), "q")
	if trace != nil {
		t.Fatal("disabled tracer built a trace")
	}
	if ActiveSpan(ctx) != nil {
		t.Fatal("disabled tracer put a span in the context")
	}
	trace.Finish() // nil-safe
}

func TestTraceIDsUnique(t *testing.T) {
	tr := NewTracer(Options{SampleRate: 1, Capacity: 4})
	seen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		_, trace := tr.Start(context.Background(), "q")
		id := trace.ID()
		if len(id) != 16 || seen[id] {
			t.Fatalf("bad or duplicate id %q at %d", id, i)
		}
		seen[id] = true
		trace.Finish()
	}
}

func TestFindAndAttrMiss(t *testing.T) {
	s := SpanSnapshot{Name: "a", Children: []SpanSnapshot{{Name: "b"}}}
	if s.Find("c") != nil {
		t.Fatal("Find must return nil on miss")
	}
	if _, ok := s.Attr("x"); ok {
		t.Fatal("Attr must report miss")
	}
}

// BenchmarkStartSpanUntraced is the fast path: tracing compiled in, no
// trace in the context. This is the cost every production request pays
// when sampling is off and no trace was started.
func BenchmarkStartSpanUntraced(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, sp := StartSpan(ctx, "op")
		sp.End()
	}
}

// BenchmarkStartSpanTraced is the slow path: a live trace, one span per
// iteration. The trace is recycled in batches so the accumulated span
// tree stays bounded at large b.N.
func BenchmarkStartSpanTraced(b *testing.B) {
	tr := NewTracer(Options{SampleRate: 0})
	ctx, trace := tr.Start(context.Background(), "bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%8192 == 8191 {
			trace.Finish()
			ctx, trace = tr.Start(context.Background(), "bench")
		}
		_, sp := StartSpan(ctx, "op")
		sp.End()
	}
	trace.Finish()
	if strings.TrimSpace(trace.ID()) == "" {
		b.Fatal("trace lost")
	}
}

func TestTracerFindByID(t *testing.T) {
	tr := NewTracer(Options{Capacity: 3, SampleRate: 1})
	ids := make([]string, 0, 5)
	for i := 0; i < 5; i++ {
		_, trace := tr.Start(context.Background(), "q")
		ids = append(ids, trace.ID())
		trace.Finish()
	}
	// The ring holds the newest three; the first two were evicted.
	for _, id := range ids[2:] {
		snap, ok := tr.Find(id)
		if !ok || snap.ID != id {
			t.Fatalf("Find(%s) = (%q, %v), want hit", id, snap.ID, ok)
		}
	}
	for _, id := range ids[:2] {
		if _, ok := tr.Find(id); ok {
			t.Fatalf("Find(%s) hit an evicted trace", id)
		}
	}
	if _, ok := tr.Find(""); ok {
		t.Fatal("Find(\"\") must miss")
	}
	var nilTr *Tracer
	if _, ok := nilTr.Find(ids[4]); ok {
		t.Fatal("nil tracer Find must miss")
	}
}
