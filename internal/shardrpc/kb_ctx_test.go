package shardrpc

import (
	"context"
	"errors"
	"reflect"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/rdf"
	"repro/internal/rdf/snapshot"
)

// The seam, pinned: KB is the engine's Index and nothing like a Graph.
var _ core.Index = (*KB)(nil)

// readAll reads probes through idx into storage of its own.
func readAll(ctx context.Context, idx core.Index, probes []rdf.Probe) ([][]rdf.ID, error) {
	out := make([][]rdf.ID, len(probes))
	if _, err := idx.PathObjects(ctx, probes, out, nil); err != nil {
		return nil, err
	}
	return out, nil
}

func TestSeamSize(t *testing.T) {
	graph := reflect.TypeOf((*rdf.Graph)(nil)).Elem()
	if n := graph.NumMethod(); n != 10 {
		t.Errorf("rdf.Graph has %d methods, want 10: the online seam grew or shrank", n)
	}
	// The image serves the seam, its world digest and nothing else: an
	// offline method on it would be code no binary calls.
	want := []string{"Close", "Digest"}
	for i := 0; i < graph.NumMethod(); i++ {
		want = append(want, graph.Method(i).Name)
	}
	sort.Strings(want)
	var got []string
	image := reflect.TypeOf((*snapshot.Image)(nil))
	for i := 0; i < image.NumMethod(); i++ {
		got = append(got, image.Method(i).Name)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("snapshot.Image exports %v, want rdf.Graph's methods plus Close and Digest: %v", got, want)
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

func newTestKB(t *testing.T) (*rdf.Store, *Pool, *KB) {
	t.Helper()
	store := testWorld(t)
	addr, srv := startServer(t, store)
	t.Cleanup(func() { srv.Close() })
	pool, err := NewPool(PoolOptions{Servers: []string{addr}, Digest: snapshot.Digest(store)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pool.Close() })
	return store, pool, NewKB(pool)
}

// TestKBCtxVariantsMatchLocal drives every remote read against a live
// server and checks each result against the in-process index: each
// Subjects call, in exactly one frame; the probes one to a batch; then all
// of them — paths of one and of three edges, a path of none, subjects on
// every shard, subjects with no such edge — as one batch, in exactly one
// frame that mixes probes of paths of different lengths.
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
		before := pool.Stats().Calls
		subs, err := kb.Subjects(ctx, tr.P, tr.O)
		if err != nil || !reflect.DeepEqual(subs, rdf.Subjects(store, tr.P, tr.O)) {
			t.Fatalf("Subjects(%d,%d) = %v, %v", tr.P, tr.O, subs, err)
		}
		if frames := pool.Stats().Calls - before; frames != 1 {
			t.Fatalf("Subjects(%d,%d) took %d frames, want 1", tr.P, tr.O, frames)
		}
	})
	path, ok := rdf.ParsePath(store, "marriage→person→name")
	if !ok {
		t.Fatal("marriage→person→name not present")
	}
	for _, e := range store.Entities() {
		batch = append(batch, rdf.Probe{Subj: e, Path: path}, rdf.Probe{Subj: e})
	}
	want, _ := readAll(ctx, local, batch)
	for i := range batch {
		got, err := readAll(ctx, kb, batch[i:i+1])
		if err != nil || !reflect.DeepEqual(got[0], want[i]) {
			t.Fatalf("PathObjects(%+v) = %v, %v, want %v", batch[i], got, err, want[i])
		}
	}
	before := pool.Stats().Calls
	got, err := readAll(ctx, kb, batch)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("PathObjects(batch of %d) = %v, diverges from the local index", len(batch), err)
	}
	// One frame, whatever the batch holds: the server walks every path to
	// its end.
	if frames := pool.Stats().Calls - before; frames != 1 {
		t.Errorf("a batch of %d probes took %d frames, want 1", len(batch), frames)
	}
}

// TestKBCtxVariantsHonorCancellation checks every remote read fails fast
// under a cancelled context and hands the error to its caller.
func TestKBCtxVariantsHonorCancellation(t *testing.T) {
	_, _, kb := newTestKB(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if _, err := readAll(ctx, kb, []rdf.Probe{{Subj: 0, Path: rdf.Path{0}}}); !errors.Is(err, context.Canceled) {
		t.Fatalf("PathObjects under cancelled ctx: %v", err)
	}
	if _, err := kb.Subjects(ctx, 0, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("Subjects under cancelled ctx: %v", err)
	}
}
