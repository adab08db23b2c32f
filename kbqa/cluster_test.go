package kbqa

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/rdf"
	"repro/internal/shardrpc"
)

// startShardServer serves world's knowledge base on a loopback listener.
func startShardServer(t *testing.T, world *System) (string, *shardrpc.Server) {
	t.Helper()
	return serveShards(t, world.world.KB.Store, world.digest)
}

// serveShards serves store, a world whose digest is digest, on a loopback
// listener.
func serveShards(t *testing.T, store rdf.Graph, digest uint64) (string, *shardrpc.Server) {
	t.Helper()
	srv := shardrpc.NewServer(store, digest, shardrpc.ServerOptions{})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(context.Background(), lis)
	t.Cleanup(srv.Close)
	return lis.Addr().String(), srv
}

// heldStore is a knowledge base whose index reads wait for as long as a
// channel is stored in hold: a shard server over it holds its replies.
type heldStore struct {
	rdf.Graph
	hold atomic.Pointer[chan struct{}]
}

func (h *heldStore) wait() {
	if ch := h.hold.Load(); ch != nil {
		<-*ch
	}
}

func (h *heldStore) Objects(subj rdf.ID, pred rdf.PID) []rdf.ID {
	h.wait()
	return h.Graph.Objects(subj, pred)
}

func (h *heldStore) Subjects(pred rdf.PID, obj rdf.ID) []rdf.ID {
	h.wait()
	return h.Graph.Subjects(pred, obj)
}

// TestClusterVariantFailsLoudly pins two bugs of the cluster shape's variant
// path, which used to read the shards with no context and no error: with
// the servers of some shards down a ranking dropped the entities living
// there and was returned — and cached — as a success, and -timeout did not
// apply to it. Every server holds the whole world now, so it takes every
// server down to lose a shard.
func TestClusterVariantFailsLoudly(t *testing.T) {
	opts := Options{Flavor: "freebase", Seed: 42}
	world, err := Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	held := &heldStore{Graph: world.world.KB.Store}
	addrA, srvA := serveShards(t, held, world.digest)
	addrB, srvB := serveShards(t, held, world.digest)

	opts.ShardServers = []string{addrA, addrB}
	sys, err := Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	sv := mustServer(t, sys, ServerOptions{})
	defer sv.Close()
	ctx := context.Background()

	const ranking = "Which city has the largest population?"
	want, err := world.Query(ctx, ranking)
	if err != nil || want.Variant == nil {
		t.Fatalf("monolith does not answer %q as a variant: %+v, %v", ranking, want, err)
	}
	expired, cancel := context.WithDeadline(ctx, time.Now().Add(-time.Second))
	defer cancel()
	if _, err := sys.Query(expired, ranking); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("variant under an expired context: err = %v, want context.DeadlineExceeded", err)
	}
	if got, err := sys.Query(ctx, ranking); err != nil || got.Variant == nil || got.Variant.Entities[0] != want.Variant.Entities[0] {
		t.Fatalf("healthy cluster: %+v, %v; want %+v", got, err, want.Variant)
	}
	// A deadline that expires while the ranking is still scanning the shards
	// must stop it — never an answer. No clock decides whether the scan is
	// still running: the shard servers hold their replies until the deadlined
	// call has returned, so it cannot ride a warm memo or a fast machine to a
	// result (timing the healthy call above and allowing a fraction of it
	// did: that call pays a one-off scan the deadlined one is spared).
	release := make(chan struct{})
	held.hold.Store(&release)
	// Were the deadline ignored the call would wait for the shards; letting
	// them go in the end makes that a failure message, not a hung test.
	unstick := time.AfterFunc(10*time.Second, func() { close(release) })
	got, err := sys.Query(ctx, ranking, WithTimeout(20*time.Millisecond))
	held.hold.Store(nil)
	if unstick.Stop() {
		close(release)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("variant whose shard reads outlast WithTimeout = %+v, %v; want context.DeadlineExceeded", got, err)
	}

	srvA.Close()
	srvB.Close()
	for round := 0; round < 2; round++ {
		res, err := sv.Query(ctx, ranking)
		if err == nil || IsUnanswerable(err) || errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("round %d: variant over a cluster with its servers down = %+v, %v; want an infrastructure error", round, res, err)
		}
	}
	if m := sv.Metrics(); m.CacheEntries != 0 || m.CacheHits != 0 {
		t.Fatalf("the failed variant reached the cache: %d entries, %d hits", m.CacheEntries, m.CacheHits)
	}
}

// TestClusterFramesPerQuestion pins the probe plan with counts that need no
// clock: on a 2-server cluster a BFQ costs exactly one frame (its
// deduplicated probe set, every path walked to its end by one server —
// 1.08 when each shard its subjects hashed to had a frame of its own, 1.39
// when every path depth was a round of its own, 7.3 when every term of
// Eq (7) was its own round trip) and a complex question exactly two, read
// per phase — the δ oracle's spans in one batch, each later hop's bindings
// in another (2.30 with a frame per shard, 3.74 with a round per depth,
// 6.37 with one read per sub-question, 23 with one RPC per term).
func TestClusterFramesPerQuestion(t *testing.T) {
	opts := Options{Flavor: "freebase", Seed: 42}
	world, err := Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	addrA, _ := startShardServer(t, world)
	addrB, _ := startShardServer(t, world)
	var complexQs []string
	for _, cq := range world.ComplexQuestions(7, 200) {
		complexQs = append(complexQs, cq.Q)
	}
	// own-all: the one placement left, every server holding the whole world.
	t.Run("own-all", func(t *testing.T) {
		opts := opts
		opts.ShardServers = []string{addrA, addrB}
		sys, err := Build(opts)
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Close()
		ctx := context.Background()
		for _, row := range []struct {
			name string
			qs   []string
			want float64
		}{
			{"BFQ", world.SampleQuestions(400), 1},
			{"complex question", complexQs, 2},
		} {
			// Calls counts frames, not attempts: a hedge does not add to it.
			before := sys.pool.Stats().Calls
			for _, q := range row.qs {
				if _, err := sys.Query(ctx, q, WithoutVariants()); err != nil && !IsUnanswerable(err) {
					t.Fatalf("Query(%q): %v", q, err)
				}
			}
			per := float64(sys.pool.Stats().Calls-before) / float64(len(row.qs))
			t.Logf("%.2f frames per %s over %d questions", per, row.name, len(row.qs))
			if len(row.qs) == 0 || per != row.want {
				t.Errorf("%.4f frames per %s over %d questions, want exactly %v", per, row.name, len(row.qs), row.want)
			}
		}
	})
}

// TestClusterMetricsCarryPoolStats: the pool's routing counters reach the
// operator — the rpc object of the JSON snapshot and the kbqa_rpc_*
// families of the scrape — on the cluster shape and only there.
func TestClusterMetricsCarryPoolStats(t *testing.T) {
	opts := Options{Flavor: "freebase", Seed: 42}
	world, err := Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	mono := mustServer(t, world, ServerOptions{})
	defer mono.Close()
	if m := mono.Metrics(); m.RPC != nil {
		t.Errorf("monolith snapshot has an rpc object: %+v", m.RPC)
	}

	addr, _ := startShardServer(t, world)
	opts.ShardServers = []string{addr}
	sys, err := Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	sv := mustServer(t, sys, ServerOptions{})
	defer sv.Close()
	if _, err := sv.Query(context.Background(), world.SampleQuestions(1)[0]); err != nil {
		t.Fatal(err)
	}
	m := sv.Metrics()
	if m.RPC == nil || m.RPC.Calls == 0 || *m.RPC != sys.pool.Stats() {
		t.Fatalf("cluster snapshot rpc = %+v, pool says %+v", m.RPC, sys.pool.Stats())
	}
	var b strings.Builder
	if err := sv.WriteMetricsPrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("\nkbqa_rpc_calls_total %d\n", m.RPC.Calls); !strings.Contains(b.String(), want) {
		t.Errorf("scrape missing %q", want)
	}
}

// TestClusterRetainedTraceShape pins the tree a retained trace holds on a
// loopback 2-server cluster, times masked: span names, nesting, order and
// attributes, for one corpus BFQ and one composed complex question. Every
// rpc.call frame carries the server's shard.serve span (op), which starts
// where the rpc.call starts and lasts no longer. The server address an
// attempt went to is masked; a call the pool hedged has one attempt more,
// so such a trace is asked again.
func TestClusterRetainedTraceShape(t *testing.T) {
	opts := Options{Flavor: "freebase", Seed: 42}
	world, err := Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	addrA, _ := startShardServer(t, world)
	addrB, _ := startShardServer(t, world)
	opts.ShardServers = []string{addrA, addrB}
	sys, err := Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	sv := mustServer(t, sys, ServerOptions{TraceSampleRate: 1, CacheEntries: -1})
	defer sv.Close()

	for _, row := range []struct {
		q, want string
	}{
		{world.SampleQuestions(1)[0], `
kbqa.query question=what is the population of norhaven?
  serve.flight shared=false
    serve.admit
    serve.engine
      engine.answer question=what is the population of norhaven?
        engine.probe mentions=1 entities=1 templates=3 probes=1 candidates=3
          rpc.call op=8 probes=1
            rpc.attempt server=*
            shard.serve op=8
        parse
        match
        probe
`},
		{world.ComplexQuestions(7, 1)[0].Q, `
kbqa.query question=How big is the population of the headquarters of jetworks?
  serve.flight shared=false
    serve.admit
    serve.engine
      engine.answer question=How big is the population of the headquarters of jetworks?
        engine.probe mentions=1 entities=1 templates=2 probes=0 candidates=0
        engine.oracle spans_tried=9 probes=1 spans_accepted=1
          rpc.call op=8 probes=1
            rpc.attempt server=*
            shard.serve op=8
        engine.hop hop=0 question=the headquarters of jetworks value=dunfield
        engine.hop hop=1 pattern=how big is the population of $e value=779k
          engine.probe mentions=1 entities=1 templates=3 probes=2 bindings=1 candidates=6
            rpc.call op=8 probes=2
              rpc.attempt server=*
              shard.serve op=8
          engine.bfq question=how big is the population of dunfield
        parse
        match
        probe
`},
	} {
		var got string
		for try := 0; ; try++ {
			r, err := sv.Query(context.Background(), row.q)
			if err != nil {
				t.Fatalf("Query(%q): %v", row.q, err)
			}
			snap, ok := sv.FindTrace(r.TraceID)
			if !ok {
				t.Fatalf("Query(%q): trace %s not retained", row.q, r.TraceID)
			}
			var b strings.Builder
			b.WriteByte('\n')
			hedged := writeShape(t, &b, &snap.Root, nil, 0)
			if got = b.String(); !hedged || try == 4 {
				break
			}
		}
		if got != row.want {
			t.Errorf("Query(%q) retained\n%s\nwant\n%s", row.q, got, row.want)
		}
	}
}

// writeShape writes the tree under s, one span a line, indented by depth,
// with its attributes but no times, and the address of an rpc.attempt
// masked. It checks that every shard.serve lies within its rpc.call from
// that call's start, and reports whether any call was hedged.
func writeShape(t *testing.T, b *strings.Builder, s, parent *SpanSnapshot, depth int) (hedged bool) {
	t.Helper()
	b.WriteString(strings.Repeat("  ", depth) + s.Name)
	for _, a := range s.Attrs {
		v := a.Value
		if s.Name == "rpc.attempt" && a.Key == "server" {
			v = "*"
		}
		hedged = hedged || a.Key == "hedged"
		b.WriteString(" " + a.Key + "=" + v)
	}
	b.WriteByte('\n')
	if s.Name == "shard.serve" {
		if parent == nil || parent.Name != "rpc.call" {
			t.Errorf("shard.serve outside an rpc.call")
		} else if s.StartNanos != parent.StartNanos || s.DurationNanos > parent.DurationNanos {
			t.Errorf("shard.serve at %d for %d ns, its rpc.call at %d for %d ns",
				s.StartNanos, s.DurationNanos, parent.StartNanos, parent.DurationNanos)
		}
	}
	for i := range s.Children {
		hedged = writeShape(t, b, &s.Children[i], s, depth+1) || hedged
	}
	return hedged
}
