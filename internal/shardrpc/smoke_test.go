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
		for _, p := range store.Predicates() {
			want := rdf.PathObjects(store, e, rdf.Path{p})
			got, err := remote.PathObjects(ctx, e, rdf.Path{p})
			if err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("PathObjects(%d,%d): got %v, %v want %v", e, p, got, err, want)
			}
			n++
		}
		if n > 2000 {
			break
		}
	}
	st := pool.Stats()
	t.Logf("pool stats: %+v", st)
}
