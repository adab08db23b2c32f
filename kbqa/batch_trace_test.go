package kbqa

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/text"
)

// distinctQuestions returns up to n of qs, no two the same question as the
// answer cache and the flight group key it.
func distinctQuestions(qs []string, n int) []string {
	seen := map[string]bool{}
	var out []string
	for _, q := range qs {
		if k := text.Normalize(q); !seen[k] && len(out) < n {
			seen[k] = true
			out = append(out, q)
		}
	}
	return out
}

// TestBatchTraceShape pins a retained batch trace, in process and on a
// loopback 2-server cluster, with the cache off: over distinct BFQs and one
// composed complex question it is exactly the root and one batch.question
// span per question, each carrying its question and parse, match and
// probe children whose durations equal that item's Timings. No serve.*,
// engine.*, rpc.* or shard.* span appears, on either shape.
func TestBatchTraceShape(t *testing.T) {
	opts := Options{Flavor: "freebase", Seed: 42}
	world, err := Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	addrA, _ := startShardServer(t, world)
	addrB, _ := startShardServer(t, world)
	opts.ShardServers = []string{addrA, addrB}
	cluster, err := Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	qs := append(distinctQuestions(world.SampleQuestions(40), 12), world.ComplexQuestions(7, 1)[0].Q)

	for _, shape := range []struct {
		name string
		sys  *System
	}{{"in process", world}, {"cluster", cluster}} {
		t.Run(shape.name, func(t *testing.T) {
			sv := mustServer(t, shape.sys, ServerOptions{TraceSampleRate: 1, CacheEntries: -1})
			defer sv.Close()
			ctx, trace := sv.Tracer().Start(context.Background(), "test.batch")
			items := sv.QueryBatch(ctx, qs)
			trace.Finish()
			snap, ok := sv.FindTrace(trace.ID())
			if !ok {
				t.Fatalf("batch trace %s not retained", trace.ID())
			}
			root := snap.Root
			if len(root.Children) != len(qs) {
				t.Fatalf("the batch's root has %d children, want one per question (%d)", len(root.Children), len(qs))
			}
			spans := 0
			var walk func(s *SpanSnapshot)
			walk = func(s *SpanSnapshot) {
				spans++
				for _, layer := range []string{"serve.", "engine.", "rpc.", "shard."} {
					if strings.HasPrefix(s.Name, layer) {
						t.Errorf("a %s span under a batch", s.Name)
					}
				}
				for i := range s.Children {
					walk(&s.Children[i])
				}
			}
			walk(&root)
			if want := 1 + 4*len(qs); spans != want {
				t.Errorf("the batch's trace holds %d spans, want %d: the root, and per question its span and three stages", spans, want)
			}

			byQuestion := map[string]*SpanSnapshot{}
			for i := range root.Children {
				c := &root.Children[i]
				q, _ := c.Attr("question")
				if c.Name != "batch.question" || len(c.Attrs) != 1 || byQuestion[q] != nil {
					t.Fatalf("child %d is %s %v, want one batch.question span with only its question", i, c.Name, c.Attrs)
				}
				byQuestion[q] = c
			}
			answered := 0
			for i, it := range items {
				c := byQuestion[qs[i]]
				if c == nil {
					t.Fatalf("no span for %q", qs[i])
				}
				if it.Err != nil {
					if !IsUnanswerable(it.Err) || i == len(qs)-1 {
						t.Fatalf("QueryBatch %q: %v", qs[i], it.Err)
					}
					continue
				}
				answered++
				if it.Result.TraceID != "" {
					t.Errorf("%q: a batch Result carries TraceID %q", qs[i], it.Result.TraceID)
				}
				tm := it.Result.Timings
				want := []SpanSnapshot{
					{Name: "parse", StartNanos: c.StartNanos, DurationNanos: int64(tm.Parse)},
					{Name: "match", StartNanos: c.StartNanos, DurationNanos: int64(tm.Match)},
					{Name: "probe", StartNanos: c.StartNanos, DurationNanos: int64(tm.Probe)},
				}
				if len(c.Children) != len(want) {
					t.Fatalf("%q: %d stage spans, want 3", qs[i], len(c.Children))
				}
				for j, w := range want {
					if g := c.Children[j]; g.Name != w.Name || g.StartNanos != w.StartNanos || g.DurationNanos != w.DurationNanos || g.Attrs != nil || g.Children != nil {
						t.Errorf("%q: stage %d = %s at %d for %d ns, want %s at %d for %d ns (the item's Timings)",
							qs[i], j, g.Name, g.StartNanos, g.DurationNanos, w.Name, w.StartNanos, w.DurationNanos)
					}
				}
			}
			if answered < len(qs)/2 {
				t.Fatalf("only %d of %d batch questions answered", answered, len(qs))
			}
		})
	}
}

// TestTracedBatchAllocs: slow capture traces every batch and keeps almost
// none, so tracing a 64-BFQ QueryBatch that is not kept may cost no more
// than a few allocations beyond the untraced batch: the trace, its ID, the
// root's attribute and the hidden span's context. It cost 77 more when
// each question opened its own spans and its Result was copied to carry
// the batch's ID. Under the race detector sync.Pool drops a quarter of
// what is put back, so a count there would price the detector.
func TestTracedBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops scratches and arenas at random under the race detector")
	}
	s := testSystem(t)
	qs := distinctQuestions(s.SampleQuestions(200), 64)
	if len(qs) != 64 {
		t.Fatalf("%d distinct sample questions, want 64", len(qs))
	}
	ctx := context.Background()
	allocs := func(o ServerOptions) float64 {
		o.CacheEntries = -1
		sv := mustServer(t, s, o)
		defer sv.Close()
		sv.QueryBatch(ctx, qs)
		return testing.AllocsPerRun(20, func() { sv.QueryBatch(ctx, qs) })
	}
	untraced := allocs(ServerOptions{})
	traced := allocs(ServerOptions{SlowQueryThreshold: time.Hour})
	t.Logf("a 64-BFQ QueryBatch: %.1f allocations untraced, %.1f traced (+%.1f)", untraced, traced, traced-untraced)
	if traced > untraced+8 {
		t.Errorf("a traced 64-BFQ QueryBatch allocates %.1f times, untraced %.1f: ceiling untraced + 8", traced, untraced)
	}
}
