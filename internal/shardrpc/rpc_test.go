package shardrpc

import (
	"bytes"
	"context"
	"errors"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/kbgen"
	"repro/internal/obs"
	"repro/internal/rdf"
	"repro/internal/safeio"
)

// testWorld builds a small deterministic KB shared by the tests.
func testWorld(t testing.TB) *rdf.ShardedStore {
	t.Helper()
	kb := kbgen.Generate(kbgen.Config{Seed: 42, Flavor: kbgen.Freebase, Scale: 10, Shards: 4})
	return kb.Store.(*rdf.ShardedStore)
}

// startServer runs an own-all server on a loopback listener and returns
// its address. The caller owns Close.
func startServer(t testing.TB, store *rdf.ShardedStore) (string, *Server) {
	t.Helper()
	srv := NewServer(store, ServerOptions{})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(context.Background(), lis)
	return lis.Addr().String(), srv
}

// shardedNodes groups a few entities by their home shard so Probe calls
// can be aimed at every shard.
func shardedNodes(store *rdf.ShardedStore) [][]rdf.ID {
	out := make([][]rdf.ID, store.NumShards())
	for _, e := range store.Entities() {
		sh := rdf.ShardIndex(e, store.NumShards())
		if len(out[sh]) < 8 {
			out[sh] = append(out[sh], e)
		}
	}
	return out
}

func TestFrameDetectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := safeio.WriteFrame(&buf, []byte("hello shardrpc")); err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte: the CRC must catch it.
	raw := buf.Bytes()
	raw[len(raw)-1] ^= 0x40
	if _, err := safeio.ReadFrame(bytes.NewReader(raw)); err == nil {
		t.Fatal("readFrame accepted a corrupted frame")
	}
	// And an uncorrupted round trip still works.
	buf.Reset()
	safeio.WriteFrame(&buf, []byte("hello shardrpc"))
	got, err := safeio.ReadFrame(&buf)
	if err != nil || string(got) != "hello shardrpc" {
		t.Fatalf("round trip: %q, %v", got, err)
	}
}

// TestHandshakeRejectsWorldMismatch: a client whose world fingerprint (or
// shard topology) differs from the server's must be refused at handshake —
// a wrong-world pool fails fast instead of serving subtly wrong answers.
// eightShards is the test world as a client that partitioned it eight ways
// would fingerprint it.
type eightShards struct{ rdf.Sharded }

func (eightShards) NumShards() int { return 8 }

func TestHandshakeRejectsWorldMismatch(t *testing.T) {
	store := testWorld(t)
	addr, srv := startServer(t, store)
	defer srv.Close()

	pl, err := NewPlacement([]string{addr}, store.NumShards(), 1)
	if err != nil {
		t.Fatal(err)
	}
	wrong, err := NewPool(PoolOptions{Placement: pl, Fingerprint: rdf.WorldFingerprint(store) + 1})
	if err != nil {
		t.Fatal(err)
	}
	defer wrong.Close()
	probe := func(p *Pool) error {
		_, err := p.Probe(context.Background(), 0, []ProbeGroup{{store.Predicates()[0], nil}})
		return err
	}
	if err := probe(wrong); err == nil {
		t.Fatal("call succeeded with a mismatched world fingerprint")
	}

	// Same world hashed over a different shard count is a different
	// topology: frontier sets computed client-side would not match the
	// server's shard ownership, so the handshake must refuse it too.
	pl8, err := NewPlacement([]string{addr}, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	resharded, err := NewPool(PoolOptions{Placement: pl8, Fingerprint: rdf.WorldFingerprint(eightShards{store})})
	if err != nil {
		t.Fatal(err)
	}
	defer resharded.Close()
	if err := probe(resharded); err == nil {
		t.Fatal("call succeeded across mismatched shard counts")
	}

	ok, err := NewPool(PoolOptions{Placement: pl, Fingerprint: rdf.WorldFingerprint(store)})
	if err != nil {
		t.Fatal(err)
	}
	defer ok.Close()
	if err := probe(ok); err != nil {
		t.Fatalf("call failed for the matching world: %v", err)
	}
}

// TestReplicaFailover: with one of two replicas down, every shard's calls
// must still succeed via the surviving replica, counting failovers.
func TestReplicaFailover(t *testing.T) {
	store := testWorld(t)
	addrA, srvA := startServer(t, store)
	addrB, srvB := startServer(t, store)
	defer srvA.Close()
	defer srvB.Close()

	pl, err := NewPlacement([]string{addrA, addrB}, store.NumShards(), 2)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := NewPool(PoolOptions{
		Placement:   pl,
		Fingerprint: rdf.WorldFingerprint(store),
		// Deterministic routing: failover only on error, never on latency.
		disableHedge: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	// Rendezvous preference depends on the (random) listener addresses, so
	// kill the replica that placement prefers for a populated shard — that
	// guarantees at least one call lands on the dead server first and must
	// fail over.
	perShard := shardedNodes(store)
	dead := ""
	for sh, nodes := range perShard {
		if len(nodes) > 0 {
			dead = pl.Replicas(sh)[0]
			break
		}
	}
	if dead == "" {
		t.Fatal("no populated shards in the test world")
	}
	if dead == addrA {
		srvA.Close()
	} else {
		srvB.Close()
	}

	pred := store.Predicates()[0]
	for sh, nodes := range perShard {
		if len(nodes) == 0 {
			continue
		}
		got, err := pool.Probe(context.Background(), sh, []ProbeGroup{{pred, nodes}})
		if err != nil {
			t.Fatalf("Probe(shard %d) with a replica down: %v", sh, err)
		}
		want := make(map[rdf.ID]bool)
		for _, n := range nodes {
			for _, o := range store.Objects(n, pred) {
				want[o] = true
			}
		}
		if len(got[0]) != len(want) {
			t.Fatalf("Probe(shard %d): %d results, want %d", sh, len(got[0]), len(want))
		}
	}
	if st := pool.Stats(); st.Failovers == 0 {
		t.Errorf("Stats().Failovers = 0 after serving with a dead preferred replica: %+v", st)
	}
}

// TestHedgedCallLeaksNoGoroutines: aggressive hedging plus cancelled calls
// must leave no goroutines behind once the pool and servers close — loser
// attempts are aborted and drain, never block.
func TestHedgedCallLeaksNoGoroutines(t *testing.T) {
	store := testWorld(t)
	addrA, srvA := startServer(t, store)
	addrB, srvB := startServer(t, store)

	pl, err := NewPlacement([]string{addrA, addrB}, store.NumShards(), 2)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := NewPool(PoolOptions{
		Placement:   pl,
		Fingerprint: rdf.WorldFingerprint(store),
		hedgeAfter:  time.Nanosecond, // hedge every call
	})
	if err != nil {
		t.Fatal(err)
	}

	before := runtime.NumGoroutine()
	pred := store.Predicates()[0]
	nodes := shardedNodes(store)
	for i := 0; i < 40; i++ {
		sh := i % store.NumShards()
		if len(nodes[sh]) == 0 {
			continue
		}
		if _, err := pool.Probe(context.Background(), sh, []ProbeGroup{{pred, nodes[sh]}}); err != nil {
			t.Fatalf("hedged Probe: %v", err)
		}
	}
	if st := pool.Stats(); st.Hedges == 0 {
		t.Fatalf("Stats().Hedges = 0 with hedgeAfter=1ns: %+v", st)
	}
	// Cancelled callers abandon their in-flight attempts mid-call.
	for i := 0; i < 8; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := pool.Probe(ctx, i%store.NumShards(), []ProbeGroup{{pred, nil}}); !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled Probe: err = %v, want context.Canceled", err)
		}
	}

	pool.Close()
	srvA.Close()
	srvB.Close()

	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC() // nudge netpoll-parked goroutines along
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestTraceStitchesAcrossRPC: a traced call must produce one stitched tree —
// the client's rpc.call span with the server's shard.serve subtree grafted
// under it — retrievable from the client-side tracer ring.
func TestTraceStitchesAcrossRPC(t *testing.T) {
	store := testWorld(t)
	addr, srv := startServer(t, store)
	defer srv.Close()

	pl, err := NewPlacement([]string{addr}, store.NumShards(), 1)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := NewPool(PoolOptions{Placement: pl, Fingerprint: rdf.WorldFingerprint(store)})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	tracer := obs.NewTracer(obs.Options{Capacity: 8, SampleRate: 1})
	ctx, tr := tracer.Start(context.Background(), "test.query")
	pred := store.Predicates()[0]
	var nodes []rdf.ID
	for sh, ns := range shardedNodes(store) {
		if len(ns) > 0 {
			nodes = ns
			if _, err := pool.Probe(ctx, sh, []ProbeGroup{{pred, nodes}}); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	tr.Finish()

	snap, ok := tracer.Find(tr.ID())
	if !ok {
		t.Fatal("trace not retained by the tracer ring")
	}
	call := snap.Root.Find("rpc.call")
	if call == nil {
		t.Fatalf("no rpc.call span in the trace:\n%+v", snap.Root)
	}
	if call.Find("shard.serve") == nil {
		t.Fatalf("server-side shard.serve span not grafted under rpc.call:\n%+v", *call)
	}
}

// TestCallHonorsDeadline: an already-expired context must fail the call
// immediately with the context's error, before any network round trip.
func TestCallHonorsDeadline(t *testing.T) {
	store := testWorld(t)
	addr, srv := startServer(t, store)
	defer srv.Close()

	pl, err := NewPlacement([]string{addr}, store.NumShards(), 1)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := NewPool(PoolOptions{Placement: pl, Fingerprint: rdf.WorldFingerprint(store)})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	start := time.Now()
	_, err = pool.Probe(ctx, 0, []ProbeGroup{{store.Predicates()[0], nil}})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("expired-context call took %v, want immediate failure", d)
	}
}

// TestDialHonorsCallDeadline: a shard that accepts the connection and then
// never answers the handshake must not hold the attempt past the caller's
// deadline or cancellation — the call returns then and the attempt
// goroutine (which is not in the inflight set yet, so abort cannot reach
// it) is gone right after, not dialTimeout later.
func TestDialHonorsCallDeadline(t *testing.T) {
	for _, tc := range []struct {
		name string
		ctx  func() (context.Context, context.CancelFunc)
	}{
		{"deadline 50ms", func() (context.Context, context.CancelFunc) {
			return context.WithTimeout(context.Background(), 50*time.Millisecond)
		}},
		{"cancel after 50ms, no deadline", func() (context.Context, context.CancelFunc) {
			ctx, cancel := context.WithCancel(context.Background())
			time.AfterFunc(50*time.Millisecond, cancel)
			return ctx, cancel
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lis, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer lis.Close()
			stalled := make(chan net.Conn, 4)
			go func() {
				for {
					c, err := lis.Accept()
					if err != nil {
						close(stalled)
						return
					}
					stalled <- c // accepted, never read, never answered
				}
			}()
			defer func() {
				lis.Close()
				for c := range stalled {
					c.Close()
				}
			}()

			pl, err := NewPlacement([]string{lis.Addr().String()}, 4, 1)
			if err != nil {
				t.Fatal(err)
			}
			pool, err := NewPool(PoolOptions{Placement: pl, Fingerprint: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer pool.Close()

			before := runtime.NumGoroutine()
			ctx, cancel := tc.ctx()
			defer cancel()
			start := time.Now()
			// The handshake's I/O deadline and the context end together, so
			// the error is either the context's or the read's timeout.
			if _, err = pool.Probe(ctx, 0, []ProbeGroup{{0, nil}}); err == nil {
				t.Fatal("call against a stalled handshake succeeded")
			}
			if d := time.Since(start); d > 500*time.Millisecond {
				t.Fatalf("call against a stalled handshake took %v, want ~50ms", d)
			}
			settle := time.Now().Add(500 * time.Millisecond) // generous for a loaded runner; unbounded, the attempt lives dialTimeout (5s)
			for runtime.NumGoroutine() > before {
				if time.Now().After(settle) {
					buf := make([]byte, 1<<16)
					n := runtime.Stack(buf, true)
					t.Fatalf("attempt goroutine outlived the call: %d before, %d after\n%s",
						before, runtime.NumGoroutine(), buf[:n])
				}
				time.Sleep(5 * time.Millisecond)
			}
		})
	}
}

// TestWireOps pins the op set: the server executes exactly opSubjects and
// opProbe and refuses every other number — the retired ones, opFrontier's 1
// included — as unknown. Adding an op means editing this list (and the
// README table).
func TestWireOps(t *testing.T) {
	store := testWorld(t)
	addr, srv := startServer(t, store)
	defer srv.Close()
	pl, err := NewPlacement([]string{addr}, store.NumShards(), 1)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := NewPool(PoolOptions{Placement: pl, Fingerprint: rdf.WorldFingerprint(store)})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	var served []byte
	for op := 0; op < 256; op++ {
		var body wbuf
		body.u32(1) // one probe group / pred 1
		body.u32(0) // of pred 0 / obj 0
		if byte(op) == opProbe {
			body.u32(0) // with no nodes
		}
		_, err := pool.call(context.Background(), 0, byte(op), 1, &body)
		switch {
		case err == nil:
			served = append(served, byte(op))
		case !strings.Contains(err.Error(), "unknown op"):
			t.Fatalf("op %d: %v, want success or an unknown-op refusal", op, err)
		}
	}
	if want := []byte{opSubjects, opProbe}; !bytes.Equal(served, want) {
		t.Fatalf("served ops = %v, want %v", served, want)
	}
	if ProtoVersion != 2 {
		t.Errorf("ProtoVersion = %d; the op set above is version 2's", ProtoVersion)
	}
}
