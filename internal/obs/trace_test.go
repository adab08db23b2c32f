package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"runtime"
	"strconv"
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
	sp.StageInt("stage", time.Millisecond, "op", 8)
	sp.Record("done", time.Now(), time.Millisecond, []Attr{{Key: "k", Value: "v"}}, []SpanSnapshot{{Name: "stage"}})
	sp.End()
	if HideSpan(ctx) != ctx {
		t.Fatal("HideSpan of an untraced context must return it unchanged")
	}
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
	// The completed child's attribute lies between the child's own.
	sp1.StageInt("remote", 3*time.Millisecond, "op", 8)
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
	if stage == nil || stage.DurationNanos != (5*time.Millisecond).Nanoseconds() || stage.Attrs != nil {
		t.Fatalf("stage span = %+v, want explicit 5ms duration and no attributes", stage)
	}
	var names []string
	for _, c := range child.Children {
		names = append(names, c.Name)
	}
	if !reflect.DeepEqual(names, []string{"remote", "grandchild", "stage"}) {
		t.Fatalf("children %+v, want remote, grandchild, stage in the order recorded", child.Children)
	}
	remote := child.Children[0]
	if remote.StartNanos != child.StartNanos || remote.DurationNanos != (3*time.Millisecond).Nanoseconds() ||
		!reflect.DeepEqual(remote.Attrs, []Attr{{"op", "8"}}) {
		t.Fatalf("StageInt span = %+v, want from the child's start for 3ms with op 8", remote)
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
	const workers = 64 // three spans and three attributes each: past several chunks of both slabs
	tr := NewTracer(Options{SampleRate: 1})
	ctx, trace := tr.Start(context.Background(), "root")
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			wctx, sp := StartSpan(ctx, "worker")
			sp.SetInt("i", int64(i))
			_, inner := StartSpan(wctx, "inner")
			inner.SetInt("i", int64(i))
			inner.Stage("stage", time.Duration(i))
			inner.SetAttr("done", "yes")
			inner.End()
			sp.End()
		}(i)
	}
	wg.Wait()
	trace.Finish()
	snaps := tr.Snapshot()
	if len(snaps) != 1 || len(snaps[0].Root.Children) != workers {
		t.Fatalf("expected %d concurrent children, got %+v", workers, snaps)
	}
	seen := make([]bool, workers)
	for _, w := range snaps[0].Root.Children {
		v, _ := w.Attr("i")
		i, err := strconv.Atoi(v)
		if err != nil || i < 0 || i >= workers || seen[i] {
			t.Fatalf("worker attribute i = %q", v)
		}
		seen[i] = true
		want := SpanSnapshot{Name: "inner", StartNanos: w.Children[0].StartNanos, DurationNanos: w.Children[0].DurationNanos,
			Attrs:    []Attr{{"i", v}, {"done", "yes"}},
			Children: []SpanSnapshot{{Name: "stage", StartNanos: w.Children[0].StartNanos, DurationNanos: int64(i)}}}
		if len(w.Children) != 1 || !reflect.DeepEqual(w.Children[0], want) {
			t.Fatalf("worker %d's children = %+v, want [%+v]", i, w.Children, want)
		}
	}
}

// TestSpanWritesAfterFinish: a losing hedge attempt ends and annotates its
// span, and opens children under it, whenever it gives up — after
// Trace.Finish too. Nothing it does then races with Finish or the readers
// of the retained trace, or changes what was retained.
func TestSpanWritesAfterFinish(t *testing.T) {
	tr := NewTracer(Options{SampleRate: 1})
	ctx, trace := tr.Start(context.Background(), "rpc.call")
	actx, attempt := StartSpan(ctx, "rpc.attempt")
	attempt.SetAttr("server", "a")
	hedge := trace.Root().Child("rpc.attempt")
	hedge.SetAttr("server", "b")
	hedge.End()

	start := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		attempt.End()
		attempt.SetAttr("error", "lost the race")
		for i := 0; i < 100; i++ { // through chunks of up to 64 records
			_, late := StartSpan(actx, "late")
			late.SetInt("i", int64(i))
			late.End()
			attempt.Child("late.child").Stage("stage", time.Millisecond)
		}
	}()
	close(start)
	trace.Finish()
	retained := tr.Snapshot()
	want, err := json.Marshal(retained)
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if got, _ := json.Marshal(tr.Snapshot()); !bytes.Equal(got, want) {
		t.Fatalf("writes after Finish changed the retained trace:\n got %s\nwant %s", got, want)
	}
	if len(retained) != 1 || retained[0].Root.Find("rpc.attempt") == nil {
		t.Fatalf("retained %+v, want the one trace with its attempts", retained)
	}
}

// TestRecycledArenaDropsLateWrites: a finished trace's arena goes to the
// next trace that starts, and nothing written through the finished trace's
// spans and contexts reaches it — End, SetAttr, SetInt, Child, Stage,
// StageInt and StartSpan, from a goroutine that races Finish and goes
// on while the next trace is built, and from the test's own goroutine
// once the next trace holds the arena. The next trace retains exactly its
// own tree.
func TestRecycledArenaDropsLateWrites(t *testing.T) {
	tr := NewTracer(Options{SampleRate: 1})
	reused := 0
	for round := 0; round < 20; round++ {
		actx, first := tr.Start(context.Background(), "first")
		cctx, child := StartSpan(actx, "first.child")
		spans := []*Span{first.Root(), child, child.Child("first.grandchild")}
		write := func() {
			for _, sp := range spans {
				sp.End()
				sp.SetAttr("late", "x")
				sp.SetInt("late", 1)
				sp.Child("late.child").End()
				sp.Stage("late.stage", time.Millisecond)
				sp.StageInt("late.remote", time.Millisecond, "op", 8)
			}
			for _, ctx := range []context.Context{actx, cctx} {
				_, sp := StartSpan(ctx, "late.span")
				sp.SetAttr("late", "x")
				sp.End()
			}
		}
		stop, done := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done)
			for {
				write()
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
		held := first.ar
		first.Finish()
		bctx, second := tr.Start(context.Background(), "second")
		if second.ar == held {
			reused++
		}
		write()
		_, sp := StartSpan(bctx, "second.child")
		sp.SetInt("n", int64(round))
		sp.Stage("second.stage", time.Millisecond)
		sp.End()
		second.Root().SetAttr("k", "v")
		second.Finish()
		close(stop)
		<-done

		snap, ok := tr.Find(second.ID())
		if !ok {
			t.Fatal("the second trace was not retained")
		}
		stripTimes(&snap.Root)
		got, _ := json.Marshal(snap.Root)
		want, _ := json.Marshal(SpanSnapshot{Name: "second", Attrs: []Attr{{"k", "v"}},
			Children: []SpanSnapshot{{Name: "second.child", Attrs: []Attr{{"n", strconv.Itoa(round)}},
				Children: []SpanSnapshot{{Name: "second.stage"}}}}})
		if !bytes.Equal(got, want) {
			t.Fatalf("round %d: the second trace retained\n%s\nwant\n%s", round, got, want)
		}
	}
	if reused == 0 {
		t.Error("no trace took the arena of the trace finished before it")
	}
}

// stripTimes zeroes the offsets and durations of a snapshot's tree.
func stripTimes(s *SpanSnapshot) {
	s.StartNanos, s.DurationNanos = 0, 0
	for i := range s.Children {
		stripTimes(&s.Children[i])
	}
}

// TestSpanContextKeepsCancelFastPath: a span's context is its parent's for
// cancellation, so context.WithTimeout under it finds the cancelable
// ancestor and links to it, as it does under context.WithValue, rather
// than starting a goroutine to watch the parent's Done channel.
func TestSpanContextKeepsCancelFastPath(t *testing.T) {
	const n = 16
	parent, cancel := context.WithCancel(context.Background())
	defer cancel()
	tr := NewTracer(Options{SampleRate: 1})
	ctx, trace := tr.Start(parent, "root")
	defer trace.Finish()
	ctx, sp := StartSpan(ctx, "child")
	defer sp.End()
	before := runtime.NumGoroutine()
	var derived [n]context.Context
	for i := range derived {
		var stop context.CancelFunc
		derived[i], stop = context.WithTimeout(ctx, time.Hour)
		defer stop()
	}
	if grew := runtime.NumGoroutine() - before; grew > 0 {
		t.Fatalf("%d contexts derived under a span started %d goroutines", n, grew)
	}
	if ActiveSpan(derived[0]) != sp || TraceID(derived[0]) != trace.ID() {
		t.Fatal("a context derived under a span lost the span")
	}
	cancel()
	for _, d := range derived {
		<-d.Done()
		if !errors.Is(d.Err(), context.Canceled) {
			t.Fatalf("derived context ended with %v, want Canceled", d.Err())
		}
	}
}

// TestRecordGraftsATimedSpan: Record adds a completed child, with its
// attributes and children, at the start it is given, among the children a
// span opens itself; a child's start counts from that start.
func TestRecordGraftsATimedSpan(t *testing.T) {
	tr := NewTracer(Options{SampleRate: 1})
	ctx, trace := tr.Start(context.Background(), "root")
	_, first := StartSpan(ctx, "first")
	first.End()
	at := time.Now().Add(-time.Millisecond)
	trace.Root().Record("done", at, 400*time.Microsecond,
		[]Attr{{Key: "question", Value: "q"}, {Key: "hit", Value: "false"}},
		[]SpanSnapshot{
			{Name: "parse", DurationNanos: 100},
			{Name: "late", StartNanos: 250, DurationNanos: 50, Attrs: []Attr{{Key: "k", Value: "v"}},
				Children: []SpanSnapshot{{Name: "leaf", DurationNanos: 10}}},
		})
	_, last := StartSpan(ctx, "last")
	last.End()
	trace.Finish()
	root := tr.Snapshot()[0].Root

	var b strings.Builder
	var walk func(s *SpanSnapshot, depth int)
	walk = func(s *SpanSnapshot, depth int) {
		b.WriteString(strings.Repeat(" ", depth) + s.Name)
		for _, a := range s.Attrs {
			b.WriteString(" " + a.Key + "=" + a.Value)
		}
		b.WriteByte('\n')
		for i := range s.Children {
			walk(&s.Children[i], depth+1)
		}
	}
	walk(&root, 0)
	want := "root\n first\n done question=q hit=false\n  parse\n  late k=v\n   leaf\n last\n"
	if b.String() != want {
		t.Fatalf("tree\n%s\nwant\n%s", b.String(), want)
	}
	done := root.Children[1]
	if wantStart := int64(at.Sub(trace.start)); done.StartNanos != wantStart || done.DurationNanos != int64(400*time.Microsecond) {
		t.Errorf("done at %d for %d ns, want at %d for 400000", done.StartNanos, done.DurationNanos, wantStart)
	}
	late := done.Children[1]
	for _, c := range []struct {
		s              *SpanSnapshot
		start, durNano int64
	}{{&done.Children[0], done.StartNanos, 100}, {&late, done.StartNanos + 250, 50}, {&late.Children[0], done.StartNanos, 10}} {
		if c.s.StartNanos != c.start || c.s.DurationNanos != c.durNano {
			t.Errorf("%s at %d for %d ns, want at %d for %d", c.s.Name, c.s.StartNanos, c.s.DurationNanos, c.start, c.durNano)
		}
	}
	trace.Root().Record("after", time.Now(), 1, nil, nil) // dropped: the trace has finished
}

// TestHideSpanKeepsTheRest: under HideSpan no span is active and spans
// open nothing, while the deadline, cancellation and other values of the
// context pass through, and contexts derived under it still link to the
// cancelable ancestor rather than starting a goroutine.
func TestHideSpanKeepsTheRest(t *testing.T) {
	type key struct{}
	parent, cancel := context.WithTimeout(context.WithValue(context.Background(), key{}, "v"), time.Hour)
	tr := NewTracer(Options{SampleRate: 1})
	ctx, trace := tr.Start(parent, "root")
	defer trace.Finish()
	hidden := HideSpan(ctx)
	if ActiveSpan(hidden) != nil || TraceID(hidden) != "" {
		t.Fatal("a hidden span is still active")
	}
	if _, sp := StartSpan(hidden, "child"); sp != nil {
		t.Fatal("a span opened under a hidden span")
	}
	if hidden.Value(key{}) != "v" {
		t.Error("HideSpan lost a value")
	}
	if d1, _ := hidden.Deadline(); d1 != func() time.Time { d, _ := parent.Deadline(); return d }() {
		t.Error("HideSpan lost the deadline")
	}
	before := runtime.NumGoroutine()
	derived, stop := context.WithCancel(hidden)
	defer stop()
	if runtime.NumGoroutine() > before {
		t.Error("a context derived under a hidden span started a goroutine")
	}
	cancel()
	<-derived.Done()
	if !errors.Is(hidden.Err(), context.Canceled) {
		t.Errorf("hidden context ended with %v, want Canceled", hidden.Err())
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
// trace in the context. This is the cost a request pays when no trace was
// started — with slow capture on, as kbqa-server ships, every request has
// one.
func BenchmarkStartSpanUntraced(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, sp := StartSpan(ctx, "op")
		sp.End()
	}
}

// BenchmarkStartSpanTraced is the slow path: a live trace, one span per
// iteration, under slow capture as kbqa-server ships (a tracer that can
// retain nothing starts no trace). The trace is recycled in batches so the
// accumulated span tree stays bounded at large b.N.
func BenchmarkStartSpanTraced(b *testing.B) {
	tr := NewTracer(Options{SlowThreshold: time.Hour})
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

// batchTrace builds the trace that a /batch of 64 cold BFQs builds, and
// finishes it unretained, as slow capture does for almost every batch: an
// http.batch root with the attributes the HTTP layer sets on it, and per
// question one batch.question span, recorded when the question is done,
// with its question and its parse, match and probe stages.
func batchTrace(tr *Tracer) {
	_, trace := tr.Start(context.Background(), "http.batch")
	root := trace.Root()
	root.SetAttr("method", "POST")
	root.SetAttr("path", "/batch")
	root.SetAttr("client", "127.0.0.1")
	for range 64 {
		start := time.Now()
		root.Record("batch.question", start, 20*time.Microsecond,
			[]Attr{{Key: "question", Value: "who is the mayor of victoria?"}},
			[]SpanSnapshot{
				{Name: "parse", DurationNanos: 1000},
				{Name: "match", DurationNanos: 1000},
				{Name: "probe", DurationNanos: 1000},
			})
	}
	root.SetInt("status", 200)
	trace.Finish()
}

// BenchmarkBatchTrace times batchTrace.
func BenchmarkBatchTrace(b *testing.B) {
	tr := NewTracer(Options{SlowThreshold: time.Hour})
	b.ReportAllocs()
	for b.Loop() {
		batchTrace(tr)
	}
}

// TestBatchTraceAllocs prices batchTrace's unretained trace as a count:
// the span records go back to a pool at Finish, and Record takes no span
// handle, so what is left is the Trace and its ID. The ceiling sits one
// above the count (11 when each question opened its serve, engine and
// probe spans, 25 when the records lived in the trace's own chunks); lower
// it when a trace gets cheaper. Under the race detector the pool drops a
// quarter of the arenas put back, so a count there would price the
// detector.
func TestBatchTraceAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops arenas at random under the race detector")
	}
	tr := NewTracer(Options{SlowThreshold: time.Hour})
	batchTrace(tr)
	allocs := testing.AllocsPerRun(50, func() { batchTrace(tr) })
	t.Logf("an unretained /batch trace of 64 BFQs: %.1f allocations", allocs)
	if allocs > 3 {
		t.Errorf("an unretained /batch trace of 64 BFQs: %.1f allocations, ceiling 3", allocs)
	}
	if n := len(tr.Snapshot()); n != 0 {
		t.Errorf("the tracer retained %d fast, unsampled traces", n)
	}
}
