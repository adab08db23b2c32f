package shardrpc

import (
	"context"
	"net"
	"testing"
	"time"

	"repro/internal/rdf"
)

// gatedStore parks every Objects read until release closes, so a test
// can hold a request mid-execute on purpose.
type gatedStore struct {
	rdf.Sharded
	entered chan struct{}
	release chan struct{}
}

func (g *gatedStore) Objects(subj rdf.ID, pred rdf.PID) []rdf.ID {
	g.entered <- struct{}{}
	<-g.release
	return g.Sharded.Objects(subj, pred)
}

// TestCloseWaitsForInflightHandlers: Close must not return while a
// handler goroutine is still executing against the store. Callers tear
// the store down right after Close — kbqa-shard unmaps its snapshot
// image — so a handler outliving Close reads freed (or unmapped) memory.
func TestCloseWaitsForInflightHandlers(t *testing.T) {
	store := testWorld(t)
	gated := &gatedStore{Sharded: store, entered: make(chan struct{}, 1), release: make(chan struct{})}
	srv := NewServer(gated, ServerOptions{})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(context.Background(), lis)

	pl, err := NewPlacement([]string{lis.Addr().String()}, store.NumShards(), 1)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := NewPool(PoolOptions{
		Placement:   pl,
		Fingerprint: rdf.WorldFingerprint(gated),
		// One deterministic attempt: a hedge would park a second read.
		disableHedge: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	subj := store.Entities()[0]
	pred := store.Predicates()[0]
	callDone := make(chan struct{})
	go func() {
		defer close(callDone)
		// The reply races the conn teardown; either outcome is fine —
		// the invariant under test is Close's ordering, not the reply.
		pool.Probe(context.Background(), rdf.ShardIndex(subj, store.NumShards()), []ProbeGroup{{pred, []rdf.ID{subj}}})
	}()
	<-gated.entered // the handler is now inside execute, reading the store

	closeDone := make(chan struct{})
	go func() {
		srv.Close()
		close(closeDone)
	}()
	select {
	case <-closeDone:
		t.Fatal("Close returned while a handler was still executing against the store")
	case <-time.After(100 * time.Millisecond):
	}

	close(gated.release)
	select {
	case <-closeDone:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after the in-flight handler finished")
	}
	<-callDone
}
