package shardrpc

import (
	"context"
	"net"
	"reflect"
	"testing"

	"repro/internal/kbgen"
	"repro/internal/rdf"
)

func TestSmokeRoundTrip(t *testing.T) {
	kb := kbgen.Generate(kbgen.Config{Seed: 42, Flavor: kbgen.Freebase, Scale: 10, Shards: 4})
	store := kb.Store.(*rdf.ShardedStore)
	srv := NewServer(store, ServerOptions{})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(context.Background(), lis)
	defer srv.Close()
	pl, err := NewPlacement([]string{lis.Addr().String()}, store.NumShards(), 1)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := NewPool(PoolOptions{Placement: pl, Fingerprint: rdf.WorldFingerprint(store)})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	remote := NewKB(pool)
	ctx := context.Background()
	// Probe equivalence over a sample of (subject, predicate) pairs.
	n := 0
	for _, e := range store.Entities() {
		var batch []rdf.Probe
		for _, p := range store.Predicates() {
			batch = append(batch, rdf.Probe{Subj: e, Path: rdf.Path{p}})
		}
		got, err := remote.PathObjects(ctx, batch)
		if err != nil {
			t.Fatal(err)
		}
		for i, pr := range batch {
			if want := rdf.PathObjects(store, pr.Subj, pr.Path); !reflect.DeepEqual(got[i], want) {
				t.Fatalf("PathObjects(%d,%d): got %v want %v", pr.Subj, pr.Path[0], got[i], want)
			}
		}
		if n += len(batch); n > 2000 {
			break
		}
	}
	st := pool.Stats()
	t.Logf("pool stats: %+v", st)
}
