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
// server and checks each result against the in-process index.
func TestKBCtxVariantsMatchLocal(t *testing.T) {
	store, _, kb := newTestKB(t)
	local := core.LocalIndex(store)
	ctx := context.Background()

	checked := 0
	store.Triples(func(tr rdf.Triple) {
		if checked >= 300 {
			return
		}
		checked++
		got, err := kb.PathObjects(ctx, tr.S, rdf.Path{tr.P})
		want, _ := local.PathObjects(ctx, tr.S, rdf.Path{tr.P})
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("PathObjects(%d,%d) = %v, %v, want %v", tr.S, tr.P, got, err, want)
		}
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
		got, err := kb.PathObjects(ctx, e, path)
		if err != nil || !reflect.DeepEqual(got, rdf.PathObjects(store, e, path)) {
			t.Fatalf("PathObjects(%d, marriage→person→name) = %v, %v", e, got, err)
		}
	}
}

// TestKBCtxVariantsHonorCancellation checks every remote read fails fast
// under a cancelled context and hands the error to its caller.
func TestKBCtxVariantsHonorCancellation(t *testing.T) {
	_, _, kb := newTestKB(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if _, err := kb.PathObjects(ctx, 0, rdf.Path{0}); !errors.Is(err, context.Canceled) {
		t.Fatalf("PathObjects under cancelled ctx: %v", err)
	}
	if _, err := kb.Subjects(ctx, 0, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("Subjects under cancelled ctx: %v", err)
	}
}
