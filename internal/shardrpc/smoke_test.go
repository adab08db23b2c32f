package shardrpc

import (
	"context"
	"net"
	"reflect"
	"testing"

	"repro/internal/kbgen"
	"repro/internal/rdf"
	"repro/internal/rdf/snapshot"
)

func TestSmokeRoundTrip(t *testing.T) {
	kb := kbgen.Generate(kbgen.Config{Seed: 42, Flavor: kbgen.Freebase, Scale: 10})
	store := kb.Store
	srv := NewServer(store, snapshot.Digest(store), ServerOptions{})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(context.Background(), lis)
	defer srv.Close()
	pool, err := NewPool(PoolOptions{Servers: []string{lis.Addr().String()}, Digest: snapshot.Digest(store)})
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
		got, err := readAll(ctx, remote, batch)
		if err != nil {
			t.Fatal(err)
		}
		for i, pr := range batch {
			if want := rdf.PathObjects(nil, store, pr.Subj, pr.Path); !reflect.DeepEqual(got[i], want) {
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
