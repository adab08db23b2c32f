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

// startShardServer serves world's knowledge base, every shard, on a
// loopback listener.
func startShardServer(t *testing.T, world *System) (string, *shardrpc.Server) {
	t.Helper()
	return serveShards(t, world.world.KB.Store)
}

func serveShards(t *testing.T, store rdf.Sharded) (string, *shardrpc.Server) {
	t.Helper()
	srv := shardrpc.NewServer(store, shardrpc.ServerOptions{})
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
	rdf.Sharded
	hold atomic.Pointer[chan struct{}]
}

func (h *heldStore) wait() {
	if ch := h.hold.Load(); ch != nil {
		<-*ch
	}
}

func (h *heldStore) Objects(subj rdf.ID, pred rdf.PID) []rdf.ID {
	h.wait()
	return h.Sharded.Objects(subj, pred)
}

func (h *heldStore) ShardSubjects(i int, pred rdf.PID, obj rdf.ID) []rdf.ID {
	h.wait()
	return h.Sharded.ShardSubjects(i, pred, obj)
}

// TestClusterVariantFailsLoudly pins two bugs of the cluster shape's variant
// path, which used to read the shards with no context and no error: with
// every replica of some shards down a ranking dropped the entities living
// there and was returned — and cached — as a success, and -timeout did not
// apply to it.
func TestClusterVariantFailsLoudly(t *testing.T) {
	opts := Options{Flavor: "freebase", Seed: 42}
	world, err := Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	held := &heldStore{Sharded: world.world.KB.Store}
	addrA, srvA := serveShards(t, held)
	addrB, srvB := serveShards(t, held)

	// One replica per shard: each server is the only home of its shards.
	// The victim is a server the placement gave at least one shard.
	opts.ShardServers, opts.ShardReplicas = []string{addrA, addrB}, 1
	pl, err := shardrpc.NewPlacement(opts.ShardServers, world.world.KB.Store.NumShards(), 1)
	if err != nil {
		t.Fatal(err)
	}
	victim := srvA
	if len(pl.Owned(addrA)) == 0 {
		victim = srvB
	}
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

	victim.Close()
	for round := 0; round < 2; round++ {
		res, err := sv.Query(ctx, ranking)
		if err == nil || IsUnanswerable(err) || errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("round %d: variant over a cluster missing a server = %+v, %v; want an infrastructure error", round, res, err)
		}
	}
	if m := sv.Metrics(); m.CacheEntries != 0 || m.CacheHits != 0 {
		t.Fatalf("the failed variant reached the cache: %d entries, %d hits", m.CacheEntries, m.CacheHits)
	}
}

// TestClusterFramesPerQuestion pins the probe plan with counts that need no
// clock: on a 2-server, 4-shard, R=2 cluster a BFQ costs at most 2 shard
// frames on average (one per touched shard per path depth of its
// deduplicated probe set — it was 7.3 RPCs when every term of Eq (7) was its
// own round trip) and a complex question at most 8 (23).
func TestClusterFramesPerQuestion(t *testing.T) {
	opts := Options{Flavor: "freebase", Seed: 42}
	world, err := Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	addrA, _ := startShardServer(t, world)
	addrB, _ := startShardServer(t, world)
	opts.ShardServers, opts.ShardReplicas = []string{addrA, addrB}, 2
	sys, err := Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if n := sys.kb.NumShards(); n != 4 {
		t.Fatalf("default world has %d shards, the pins are for 4", n)
	}
	ctx := context.Background()
	var complexQs []string
	for _, cq := range world.ComplexQuestions(7, 200) {
		complexQs = append(complexQs, cq.Q)
	}
	for _, row := range []struct {
		name string
		qs   []string
		most float64
	}{
		{"BFQ", world.SampleQuestions(400), 2.0},
		{"complex question", complexQs, 8},
	} {
		// Calls counts frames, not attempts: a hedge does not add to it.
		before := sys.pool.Stats().Calls
		for _, q := range row.qs {
			if _, err := sys.Query(ctx, q, WithoutVariants()); err != nil && !IsUnanswerable(err) {
				t.Fatalf("Query(%q): %v", q, err)
			}
		}
		per := float64(sys.pool.Stats().Calls-before) / float64(len(row.qs))
		t.Logf("%.2f shard frames per %s over %d questions", per, row.name, len(row.qs))
		if len(row.qs) == 0 || per > row.most {
			t.Errorf("%.2f shard frames per %s over %d questions, want <= %v", per, row.name, len(row.qs), row.most)
		}
	}
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
	opts.ShardServers, opts.ShardReplicas = []string{addr}, 1
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
