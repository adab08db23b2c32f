package shardrpc

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"testing"

	"repro/internal/rdf"
	"repro/internal/rdf/snapshot"
)

// TestNewPoolRefusesBadServerLists: an empty list, an empty address and a
// repeated address are refused with ErrServerList, so no two servers of a
// pool are one host; distinct addresses make a pool. The servers and the
// world digest are all a caller decides.
func TestNewPoolRefusesBadServerLists(t *testing.T) {
	for _, servers := range [][]string{
		nil,
		{"a:1", "a:1"},
		{"a:1", "", "b:1"},
		{""},
	} {
		if p, err := NewPool(PoolOptions{Servers: servers}); !errors.Is(err, ErrServerList) {
			t.Errorf("NewPool(%q) = (%v, %v), want ErrServerList", servers, p, err)
		}
	}
	p, err := NewPool(PoolOptions{Servers: []string{"a:1", "b:1", "c:1"}})
	if err != nil {
		t.Fatal(err)
	}
	p.Close()
	exported := 0
	for _, f := range reflect.VisibleFields(reflect.TypeOf(PoolOptions{})) {
		if f.IsExported() {
			exported++
		}
	}
	if exported != 2 {
		t.Errorf("PoolOptions has %d exported fields, want 2 (Servers and Digest)", exported)
	}
}

// TestCallsTakeTurns: over a 2-server pool, N calls split ⌊N/2⌋ / ⌈N/2⌉
// between the servers, one frame each, the first server taking the first
// call. Once one server is killed the turns go on one per call: the killed
// server's turns fail over to the survivor, which serves all N of the next
// calls, each still one frame with the right answer.
func TestCallsTakeTurns(t *testing.T) {
	store := testWorld(t)
	addrA, srvA := startServer(t, store)
	addrB, srvB := startServer(t, store)
	defer srvA.Close()
	defer srvB.Close()
	pool, err := NewPool(PoolOptions{
		Servers: []string{addrA, addrB},
		Digest:  snapshot.Digest(store),
		// Failover only on error, never on latency.
		disableHedge: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	pred := store.Predicates()[0]
	probes := probesOf(rdf.Path{pred}, store.Entities()[:4]...)
	calls := func(n int) {
		t.Helper()
		before := pool.Stats().Calls
		for range n {
			got, err := pool.Probe(context.Background(), probes)
			if err != nil {
				t.Fatal(err)
			}
			for i, p := range probes {
				if want := rdf.PathObjects(nil, store, p.Subj, p.Path); !slices.Equal(got[i], want) {
					t.Fatalf("Probe from %d: %v, want %v", p.Subj, got[i], want)
				}
			}
		}
		if frames := pool.Stats().Calls - before; frames != uint64(n) {
			t.Errorf("%d calls sent %d frames, want %d", n, frames, n)
		}
	}
	const n = 9
	calls(n)
	if a, b := srvA.Stats().Requests, srvB.Stats().Requests; a != (n+1)/2 || b != n/2 {
		t.Errorf("%d calls split %d / %d between the servers, want %d / %d", n, a, b, (n+1)/2, n/2)
	}

	srvB.Close()
	before := srvA.Stats().Requests
	calls(n)
	if a := srvA.Stats().Requests - before; a != n {
		t.Errorf("with the second server killed the first served %d of %d calls, want all", a, n)
	}
	if turns := pool.turn.Load(); turns != 2*n {
		t.Errorf("%d calls took %d turns, want one each", 2*n, turns)
	}
	if st := pool.Stats(); st.Failovers == 0 {
		t.Errorf("no call failed over from the killed server: %+v", st)
	}
}
