package eval

import (
	"context"
	"errors"
	"net"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/kbgen"
	"repro/internal/rdf"
	"repro/internal/shardrpc"
)

// startShardServer runs an own-all shardrpc server on a loopback listener.
func startShardServer(t *testing.T, store *rdf.ShardedStore) (string, *shardrpc.Server) {
	t.Helper()
	srv := shardrpc.NewServer(store, shardrpc.ServerOptions{})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(context.Background(), lis)
	return lis.Addr().String(), srv
}

// TestDistributedEngineAnswersIdentical is the cross-machine oracle: an
// engine probing through networked shard servers must return exactly the
// answers of the in-process engine, over the full training corpus and
// composed complex questions — including after one of the two replicas is
// killed mid-run (the pool fails over; answers stay byte-identical).
func TestDistributedEngineAnswersIdentical(t *testing.T) {
	w := BuildWorld(DefaultWorldConfig(kbgen.Freebase))
	store, ok := w.KB.Store.(*rdf.ShardedStore)
	if !ok {
		t.Fatalf("world store is %T, want *rdf.ShardedStore", w.KB.Store)
	}

	addrA, srvA := startShardServer(t, store)
	addrB, srvB := startShardServer(t, store)
	defer srvB.Close()

	pl, err := shardrpc.NewPlacement([]string{addrA, addrB}, store.NumShards(), 2)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := shardrpc.NewPool(shardrpc.PoolOptions{
		Placement:   pl,
		Fingerprint: rdf.WorldFingerprint(store),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	if _, err := pool.ServerStats(context.Background(), 0); err != nil {
		t.Fatal(err)
	}

	remote := shardrpc.NewKB(pool)
	eng := core.NewEngine(store, remote, w.KB.Taxonomy, w.Model, w.Stats)

	qs := corpus.Questions(w.Pairs)
	if len(qs) == 0 {
		t.Fatal("no corpus questions")
	}
	for _, cp := range corpus.ComposeComplex(w.KB, 17, 20) {
		qs = append(qs, cp.Q)
	}

	ctx := context.Background()
	compare := func(qs []string, phase string) {
		diverged := 0
		for _, q := range qs {
			a, _, _, aerr := w.Engine.Answer(ctx, q, 0, false)
			b, _, _, berr := eng.Answer(ctx, q, 0, false)
			// The remote engine may fail only the way the local one does: an
			// RPC failure would show up here as a foreign error.
			if !errors.Is(berr, aerr) {
				t.Errorf("[%s] outcome diverges for %q: %v vs %v", phase, q, aerr, berr)
				diverged++
			} else if aerr == nil {
				if a.Value != b.Value || !reflect.DeepEqual(a.Values, b.Values) ||
					a.Path != b.Path || a.Template != b.Template {
					t.Errorf("[%s] answer diverges for %q:\n  local:       %q %v (%s)\n  distributed: %q %v (%s)",
						phase, q, a.Value, a.Values, a.Path, b.Value, b.Values, b.Path)
					diverged++
				}
			}
			if diverged > 5 {
				t.Fatalf("[%s] too many divergences, stopping", phase)
			}
		}
	}

	half := len(qs) / 2
	compare(qs[:half], "both replicas up")

	// Kill one replica mid-run: the pool must fail over to the survivor
	// with no visible difference in any answer.
	srvA.Close()
	compare(qs[half:], "replica down")

	st := pool.Stats()
	t.Logf("compared %d questions (%d after replica kill); pool stats %+v",
		len(qs), len(qs)-half, st)
}

// TestDistributedEngineHonorsDeadline: an expired context must fail the
// distributed probe path (and the whole answer) promptly with the
// context's error, instead of fanning out doomed RPCs.
func TestDistributedEngineHonorsDeadline(t *testing.T) {
	w := BuildWorld(DefaultWorldConfig(kbgen.Freebase))
	store := w.KB.Store.(*rdf.ShardedStore)
	addr, srv := startShardServer(t, store)
	defer srv.Close()

	pl, err := shardrpc.NewPlacement([]string{addr}, store.NumShards(), 1)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := shardrpc.NewPool(shardrpc.PoolOptions{
		Placement:   pl,
		Fingerprint: rdf.WorldFingerprint(store),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	remote := shardrpc.NewKB(pool)
	eng := core.NewEngine(store, remote, w.KB.Taxonomy, w.Model, w.Stats)

	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()

	start := time.Now()
	if _, err := remote.PathObjects(ctx, store.Entities()[0], rdf.Path{store.Predicates()[0]}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("PathObjects err = %v, want context.DeadlineExceeded", err)
	}
	if _, _, _, err := eng.Answer(ctx, corpus.Questions(w.Pairs)[0], 0, false); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Answer err = %v, want context.DeadlineExceeded", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("expired-context calls took %v, want immediate failure", d)
	}
}
