package shardrpc

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/rdf"
)

// The seam, pinned: KB is the engine's Index and nothing like a Graph.
var _ core.Index = (*KB)(nil)

func TestSeamSize(t *testing.T) {
	graph := reflect.TypeOf((*rdf.Graph)(nil)).Elem()
	sharded := reflect.TypeOf((*rdf.Sharded)(nil)).Elem()
	// Sharded embeds Graph, so its method set already counts both.
	if n := sharded.NumMethod(); n > 22 || n <= graph.NumMethod() {
		t.Errorf("rdf.Graph + rdf.Sharded have %d methods (Graph alone %d), want <= 22", n, graph.NumMethod())
	}
	kb := reflect.TypeOf((*KB)(nil))
	if kb.NumMethod() > 5 {
		t.Errorf("shardrpc.KB exports %d methods, want <= 5", kb.NumMethod())
	}
	if kb.Implements(graph) {
		t.Error("shardrpc.KB satisfies rdf.Graph: symbol lookups must stay on the local world")
	}
	engine := reflect.TypeOf((*core.Engine)(nil))
	var answers []string
	for i := 0; i < engine.NumMethod(); i++ {
		if name := engine.Method(i).Name; len(name) >= 6 && name[:6] == "Answer" {
			answers = append(answers, name)
		}
	}
	if !reflect.DeepEqual(answers, []string{"Answer"}) {
		t.Errorf("core.Engine answer methods = %v, want [Answer]", answers)
	}
}

func newTestKB(t *testing.T) (*rdf.ShardedStore, *Pool, *KB) {
	t.Helper()
	store := testWorld(t)
	addr, srv := startServer(t, store)
	t.Cleanup(func() { srv.Close() })
	pl, err := NewPlacement([]string{addr}, store.NumShards(), 1)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := NewPool(PoolOptions{Placement: pl, Fingerprint: rdf.WorldFingerprint(store)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pool.Close() })
	return store, pool, NewKB(pool)
}

// TestKBCtxVariantsMatchLocal drives every remote read against a live
// server and checks each result against the in-process index: the probes
// one to a batch, then all of them — paths of one and of three edges, a
// path of none, subjects on every shard, subjects with no such edge — as
// one batch, whose frames mix groups at different stages of different
// probes.
func TestKBCtxVariantsMatchLocal(t *testing.T) {
	store, pool, kb := newTestKB(t)
	local := core.LocalIndex(store)
	ctx := context.Background()

	var batch []rdf.Probe
	store.Triples(func(tr rdf.Triple) {
		if len(batch) >= 300 {
			return
		}
		batch = append(batch, rdf.Probe{Subj: tr.S, Path: rdf.Path{tr.P}})
		subs, err := kb.Subjects(ctx, tr.P, tr.O)
		if err != nil || !reflect.DeepEqual(subs, store.Subjects(tr.P, tr.O)) {
			t.Fatalf("Subjects(%d,%d) = %v, %v", tr.P, tr.O, subs, err)
		}
	})
	path, ok := rdf.ParsePath(store, "marriage→person→name")
	if !ok {
		t.Fatal("marriage→person→name not present")
	}
	for _, e := range store.Entities() {
		batch = append(batch, rdf.Probe{Subj: e, Path: path}, rdf.Probe{Subj: e})
	}
	want, _ := local.PathObjects(ctx, batch)
	for i := range batch {
		got, err := kb.PathObjects(ctx, batch[i:i+1])
		if err != nil || !reflect.DeepEqual(got[0], want[i]) {
			t.Fatalf("PathObjects(%+v) = %v, %v, want %v", batch[i], got, err, want[i])
		}
	}
	before := pool.Stats().Calls
	got, err := kb.PathObjects(ctx, batch)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("PathObjects(batch of %d) = %v, diverges from the local index", len(batch), err)
	}
	// One frame per touched shard per depth, whatever the batch holds.
	if frames, most := pool.Stats().Calls-before, uint64(len(path)*store.NumShards()); frames > most {
		t.Errorf("a batch of %d probes took %d frames, want <= %d (path depth x shards)", len(batch), frames, most)
	}
}

// TestKBCtxVariantsHonorCancellation checks every remote read fails fast
// under a cancelled context and hands the error to its caller.
func TestKBCtxVariantsHonorCancellation(t *testing.T) {
	_, _, kb := newTestKB(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if _, err := kb.PathObjects(ctx, []rdf.Probe{{Subj: 0, Path: rdf.Path{0}}}); !errors.Is(err, context.Canceled) {
		t.Fatalf("PathObjects under cancelled ctx: %v", err)
	}
	if _, err := kb.Subjects(ctx, 0, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("Subjects under cancelled ctx: %v", err)
	}
}
