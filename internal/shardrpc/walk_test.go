package shardrpc

import (
	"context"
	"net"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/kbgen"
	"repro/internal/obs"
	"repro/internal/rdf"
	"repro/internal/rdf/snapshot"
	"repro/internal/world"
)

// recordingIndex serves an in-process index and keeps a copy of every
// PathObjects batch it is asked.
type recordingIndex struct {
	core.Index
	batches [][]rdf.Probe
}

func (r *recordingIndex) PathObjects(ctx context.Context, probes []rdf.Probe, out [][]rdf.ID, vals []rdf.ID) ([]rdf.ID, error) {
	r.batches = append(r.batches, slices.Clone(probes))
	return r.Index.PathObjects(ctx, probes, out, vals)
}

// plannedBatches learns the default Freebase world once and returns its
// knowledge base and every probe batch the engine plans while it answers
// the training corpus and 20 composed complex questions, batched as the
// engine batched them.
var plannedBatches = sync.OnceValues(func() (*rdf.ShardedStore, [][]rdf.Probe) {
	w, _ := world.Learn(world.DefaultConfig(kbgen.Freebase))
	rec := &recordingIndex{Index: core.LocalIndex(w.KB.Store)}
	eng := core.NewEngine(w.Symbols, rec, w.KB.Taxonomy, w.Model, w.Stats)
	qs := corpus.Questions(w.Pairs)
	for _, cp := range corpus.ComposeComplex(w.KB, 17, 20) {
		qs = append(qs, cp.Q)
	}
	for _, q := range qs {
		eng.Answer(context.Background(), q, 0, false)
	}
	return w.KB.Store, rec.batches
})

// ownedCluster serves store from servers loopback shard servers, each
// owning exactly the shards a placement of replicas replicas gives it, and
// returns a pool over them: with replicas == servers every server owns
// every shard, with fewer a walk can reach shards its server does not own.
// Cleanup closes all of it.
func ownedCluster(tb testing.TB, store *rdf.ShardedStore, servers, replicas int) *Pool {
	tb.Helper()
	lis := make([]net.Listener, servers)
	addrs := make([]string, servers)
	for i := range lis {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			tb.Fatal(err)
		}
		lis[i], addrs[i] = l, l.Addr().String()
	}
	pl, err := NewPlacement(addrs, store.NumShards(), replicas)
	if err != nil {
		tb.Fatal(err)
	}
	// Deal the shards round-robin rather than by the hash of random ports,
	// so that with fewer replicas than servers each server owns some shards
	// and none owns all.
	for shard := range pl.prefs {
		pl.prefs[shard] = slices.Concat(addrs[shard%servers:], addrs[:shard%servers])
	}
	digest := snapshot.Digest(store)
	for i, l := range lis {
		srv := NewServer(store, digest, ServerOptions{Owns: pl.Owned(addrs[i])})
		go srv.Serve(context.Background(), l)
		tb.Cleanup(srv.Close)
	}
	pool, err := NewPool(PoolOptions{Placement: pl, Digest: digest})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(pool.Close)
	return pool
}

// placements are the clusters the walk is checked on: servers that own
// every shard, and servers that own one replica of their shards out of two
// or three, where most paths reach shards their subject's server does not
// own.
var placements = []struct {
	name              string
	servers, replicas int
}{{"own-all", 2, 2}, {"R=1 of 2", 2, 1}, {"R=1 of 3", 3, 1}}

// subjectShards is how many shards the subjects of batch's probes with a
// path hash to: the frames of one round.
func subjectShards(batch []rdf.Probe, numShards int) int {
	touched := make(map[int]bool)
	for _, p := range batch {
		if len(p.Path) > 0 {
			touched[rdf.ShardIndex(p.Subj, numShards)] = true
		}
	}
	return len(touched)
}

// TestKBWalksEqualPathObjects: KB.PathObjects answers every batch the
// corpus plans exactly as rdf.PathObjects does, on every placement.
func TestKBWalksEqualPathObjects(t *testing.T) {
	store, batches := plannedBatches()
	if len(batches) < 100 {
		t.Fatalf("the corpus planned %d batches", len(batches))
	}
	for _, c := range placements {
		t.Run(c.name, func(t *testing.T) {
			kb := NewKB(ownedCluster(t, store, c.servers, c.replicas))
			ctx := context.Background()
			probes := 0
			for _, batch := range batches {
				got, err := readAll(ctx, kb, batch)
				if err != nil {
					t.Fatal(err)
				}
				for i, p := range batch {
					if want := rdf.PathObjects(nil, store, p.Subj, p.Path); !slices.Equal(got[i], want) || (got[i] == nil) != (want == nil) {
						t.Fatalf("PathObjects(%+v) = %v, want %v", p, got[i], want)
					}
				}
				probes += len(batch)
			}
			t.Logf("%d batches of %d probes", len(batches), probes)
		})
	}
}

// TestOneRoundPerBatchOnAnyPlacement pins the walk with counts: on every
// placement a batch of any paths costs one round, one frame per shard its
// subjects hash to, however long its paths are and whatever shards they
// reach.
func TestOneRoundPerBatchOnAnyPlacement(t *testing.T) {
	store, batches := plannedBatches()
	longest := 0
	for _, batch := range batches {
		for _, p := range batch {
			longest = max(longest, len(p.Path))
		}
	}
	if longest < 2 {
		t.Errorf("the longest planned path has %d edges: no batch would need a second round", longest)
	}
	for _, c := range placements {
		t.Run(c.name, func(t *testing.T) {
			pool := ownedCluster(t, store, c.servers, c.replicas)
			kb := NewKB(pool)
			for _, batch := range batches {
				before := pool.Stats().Calls
				if _, err := readAll(context.Background(), kb, batch); err != nil {
					t.Fatal(err)
				}
				frames, want := pool.Stats().Calls-before, uint64(subjectShards(batch, store.NumShards()))
				if frames != want {
					t.Fatalf("a batch of %d probes took %d frames, want the %d of one round", len(batch), frames, want)
				}
			}
		})
	}
}

// TestShardSpanRecordsTheWalk: the shard.serve span of a probe frame
// records the edges its server walked. A walk that leaves its server's
// shards is walked on there, in the same one frame, as is one that stays.
func TestShardSpanRecordsTheWalk(t *testing.T) {
	store := testWorld(t)
	path, ok := rdf.ParsePath(store, "marriage→person→name")
	if !ok {
		t.Fatal("marriage→person→name not present")
	}
	// Round-robin over two servers: shards of one parity to each.
	n := store.NumShards()
	var leaves, stays rdf.Probe
	for _, e := range store.Entities() {
		foreign := func(node rdf.ID) bool { return rdf.ShardIndex(node, n)%2 != rdf.ShardIndex(e, n)%2 }
		first, second := rdf.PathObjects(nil, store, e, path[:1]), rdf.PathObjects(nil, store, e, path[:2])
		switch {
		case len(second) == 0:
		case slices.ContainsFunc(first, foreign):
			leaves = rdf.Probe{Subj: e, Path: path}
		case !slices.ContainsFunc(second, foreign):
			stays = rdf.Probe{Subj: e, Path: path}
		}
	}
	if leaves.Path == nil || stays.Path == nil {
		t.Fatal("the test world lacks a marriage that leaves its subject's server, or one that stays on it")
	}
	pool := ownedCluster(t, store, 2, 1)
	kb := NewKB(pool)
	tracer := obs.NewTracer(obs.Options{Capacity: 8, SampleRate: 1})
	for _, c := range []struct {
		name  string
		probe rdf.Probe
	}{{"stays on", stays}, {"leaves", leaves}} {
		ctx, tr := tracer.Start(context.Background(), "test.walk")
		got, err := readAll(ctx, kb, []rdf.Probe{c.probe})
		if err != nil {
			t.Fatal(err)
		}
		tr.Finish()
		if want := rdf.PathObjects(nil, store, c.probe.Subj, c.probe.Path); !slices.Equal(got[0], want) {
			t.Errorf("a walk that %s its server's shards reached %v, want %v", c.name, got[0], want)
		}
		snap, ok := tracer.Find(tr.ID())
		if !ok {
			t.Fatal("trace not retained")
		}
		var serves []*obs.SpanSnapshot
		for i := range snap.Root.Children {
			if sp := snap.Root.Children[i].Find("shard.serve"); sp != nil {
				serves = append(serves, sp)
			}
		}
		if len(serves) != 1 {
			t.Fatalf("a walk that %s its server's shards took %d frames, want 1", c.name, len(serves))
		}
		hops, _ := serves[0].Attr("hops")
		if _, stopped := serves[0].Attr("stopped"); hops != "3" || stopped {
			t.Errorf("a walk that %s its server's shards: span attributes %v, want hops 3 and no stopped", c.name, serves[0].Attrs)
		}
	}
}
