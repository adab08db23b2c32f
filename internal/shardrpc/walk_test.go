package shardrpc

import (
	"context"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/kbgen"
	"repro/internal/obs"
	"repro/internal/rdf"
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
var plannedBatches = sync.OnceValues(func() (*rdf.Store, [][]rdf.Probe) {
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

// TestKBWalksEqualPathObjects: KB.PathObjects answers every batch the
// corpus plans exactly as rdf.PathObjects does.
func TestKBWalksEqualPathObjects(t *testing.T) {
	store, batches := plannedBatches()
	if len(batches) < 100 {
		t.Fatalf("the corpus planned %d batches", len(batches))
	}
	// own-all: the one placement left, every server holding every shard.
	t.Run("own-all", func(t *testing.T) {
		kb := NewKB(twoServers(t, store, false))
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

// TestOneRoundPerBatchOnAnyPlacement pins the walk with counts: on the
// one placement left, every server holding every shard, a batch of any
// paths costs one frame to one server, however long its paths are, and a
// batch of none but empty paths costs none.
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
	t.Run("own-all", func(t *testing.T) {
		pool := twoServers(t, store, false)
		kb := NewKB(pool)
		for _, batch := range batches {
			before := pool.Stats().Calls
			if _, err := readAll(context.Background(), kb, batch); err != nil {
				t.Fatal(err)
			}
			want := uint64(0)
			if slices.ContainsFunc(batch, func(p rdf.Probe) bool { return len(p.Path) > 0 }) {
				want = 1
			}
			if frames := pool.Stats().Calls - before; frames != want {
				t.Fatalf("a batch of %d probes took %d frames, want %d", len(batch), frames, want)
			}
		}
	})
}

// TestShardSpanRecordsTheWalk: a walk of three edges is one frame, whose
// rpc.call span counts its probes and carries the server's shard.serve span
// under it, and whose reply is the walk's end.
func TestShardSpanRecordsTheWalk(t *testing.T) {
	store := testWorld(t)
	path, ok := rdf.ParsePath(store, "marriage→person→name")
	if !ok {
		t.Fatal("marriage→person→name not present")
	}
	var batch []rdf.Probe
	for _, e := range store.Entities() {
		if len(batch) < 3 && len(rdf.PathObjects(nil, store, e, path)) > 0 {
			batch = append(batch, rdf.Probe{Subj: e, Path: path})
		}
	}
	if len(batch) < 3 {
		t.Fatal("the test world has fewer than 3 marriages")
	}
	kb := NewKB(twoServers(t, store, false))
	tracer := obs.NewTracer(obs.Options{Capacity: 8, SampleRate: 1})
	ctx, tr := tracer.Start(context.Background(), "test.walk")
	got, err := readAll(ctx, kb, batch)
	if err != nil {
		t.Fatal(err)
	}
	tr.Finish()
	for i, p := range batch {
		if want := rdf.PathObjects(nil, store, p.Subj, p.Path); !slices.Equal(got[i], want) {
			t.Errorf("the walk from %d reached %v, want %v", p.Subj, got[i], want)
		}
	}
	snap, ok := tracer.Find(tr.ID())
	if !ok {
		t.Fatal("trace not retained")
	}
	var calls []*obs.SpanSnapshot
	for i := range snap.Root.Children {
		if sp := snap.Root.Children[i].Find("rpc.call"); sp != nil {
			calls = append(calls, sp)
		}
	}
	if len(calls) != 1 {
		t.Fatalf("a batch of %d walks took %d frames, want 1", len(batch), len(calls))
	}
	if probes, _ := calls[0].Attr("probes"); probes != "3" {
		t.Errorf("rpc.call attributes %v, want probes 3", calls[0].Attrs)
	}
	if _, ok := calls[0].Attr("shard"); ok {
		t.Errorf("rpc.call attributes %v name a shard", calls[0].Attrs)
	}
	if calls[0].Find("shard.serve") == nil {
		t.Errorf("no shard.serve span under the rpc.call: %+v", *calls[0])
	}
}
