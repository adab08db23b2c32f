package shardrpc

import (
	"context"
	"net"
	"testing"
	"time"

	"repro/internal/rdf"
	"repro/internal/rdf/snapshot"
)

// gatedStore parks every Objects read until release closes, so a test
// can hold a request mid-execute on purpose.
type gatedStore struct {
	rdf.Graph
	entered chan struct{}
	release chan struct{}
}

func (g *gatedStore) Objects(subj rdf.ID, pred rdf.PID) []rdf.ID {
	g.entered <- struct{}{}
	<-g.release
	return g.Graph.Objects(subj, pred)
}

// TestCloseWaitsForInflightHandlers: Close must not return while a
// handler goroutine is still executing against the store. Callers tear
// the store down right after Close — kbqa-shard unmaps its snapshot
// image — so a handler outliving Close reads freed (or unmapped) memory.
func TestCloseWaitsForInflightHandlers(t *testing.T) {
	store := testWorld(t)
	gated := &gatedStore{Graph: store, entered: make(chan struct{}, 1), release: make(chan struct{})}
	srv := NewServer(gated, snapshot.Digest(store), ServerOptions{})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(context.Background(), lis)

	pool, err := NewPool(PoolOptions{
		Servers: []string{lis.Addr().String()},
		Digest:  snapshot.Digest(store),
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
		pool.Probe(context.Background(), probesOf(rdf.Path{pred}, subj))
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

// TestPoolCloseClosesInflightConns: a call in flight when the pool closes
// hands its connection back to a pool that has been drained already. The
// pool must close it then: kept, nothing would ever close it, and the
// shard's handler goroutine for it would live on.
func TestPoolCloseClosesInflightConns(t *testing.T) {
	store := testWorld(t)
	gated := &gatedStore{Graph: store, entered: make(chan struct{}, 1), release: make(chan struct{})}
	srv := NewServer(gated, snapshot.Digest(store), ServerOptions{})
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

	subj := store.Entities()[0]
	pred := store.Predicates()[0]
	callDone := make(chan error)
	go func() {
		_, err := pool.Probe(context.Background(), probesOf(rdf.Path{pred}, subj))
		callDone <- err
	}()
	<-gated.entered
	pool.Close()
	close(gated.release)
	if err := <-callDone; err != nil {
		t.Fatalf("the call in flight: %v", err)
	}
	conns := func() int {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return len(srv.conns)
	}
	for deadline := time.Now().Add(2 * time.Second); conns() > 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the server still holds %d connections 2s after the pool closed", conns())
		}
	}
}
