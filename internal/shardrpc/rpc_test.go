package shardrpc

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/kbgen"
	"repro/internal/obs"
	"repro/internal/rdf"
	"repro/internal/rdf/snapshot"
	"repro/internal/safeio"
)

// testWorld builds a small deterministic KB shared by the tests.
func testWorld(t testing.TB) *rdf.Store {
	t.Helper()
	kb := kbgen.Generate(kbgen.Config{Seed: 42, Flavor: kbgen.Freebase, Scale: 10})
	return kb.Store
}

// startServer runs an own-all server on a loopback listener and returns
// its address. The caller owns Close.
func startServer(t testing.TB, store *rdf.Store) (string, *Server) {
	t.Helper()
	srv := NewServer(store, snapshot.Digest(store), ServerOptions{})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(context.Background(), lis)
	return lis.Addr().String(), srv
}

// twoServers serves store from two loopback index servers and returns a
// pool over them, hedging adaptively or not at all. Cleanup closes all of
// it.
func twoServers(tb testing.TB, store *rdf.Store, disableHedge bool) *Pool {
	tb.Helper()
	addrA, srvA := startServer(tb, store)
	addrB, srvB := startServer(tb, store)
	tb.Cleanup(srvA.Close)
	tb.Cleanup(srvB.Close)
	pool, err := NewPool(PoolOptions{Servers: []string{addrA, addrB}, Digest: snapshot.Digest(store), disableHedge: disableHedge})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(pool.Close)
	return pool
}

// nodeGroups deals the first 32 entities into four groups of eight, the
// subjects of the probe batches the tests send.
func nodeGroups(store *rdf.Store) [][]rdf.ID {
	out := make([][]rdf.ID, 4)
	for i, e := range store.Entities()[:32] {
		out[i%4] = append(out[i%4], e)
	}
	return out
}

// probesOf returns one probe along path from each of subjects.
func probesOf(path rdf.Path, subjects ...rdf.ID) []rdf.Probe {
	out := make([]rdf.Probe, len(subjects))
	for i, s := range subjects {
		out[i] = rdf.Probe{Subj: s, Path: path}
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

// TestHandshakeRejectsWorldMismatch: a client whose world digest differs
// from the server's must be refused at handshake — a wrong-world pool fails
// fast instead of serving subtly wrong answers, down to a world one object
// off.
func TestHandshakeRejectsWorldMismatch(t *testing.T) {
	store := testWorld(t)
	addr, srv := startServer(t, store)
	defer srv.Close()

	wrong, err := NewPool(PoolOptions{Servers: []string{addr}, Digest: snapshot.Digest(store) + 1})
	if err != nil {
		t.Fatal(err)
	}
	defer wrong.Close()
	probe := func(p *Pool) error {
		_, err := p.Probe(context.Background(), nil)
		return err
	}
	if err := probe(wrong); err == nil {
		t.Fatal("call succeeded with a mismatched world digest")
	}

	// A frontend that built the world with one triple's object moved to
	// another literal asserts another digest, and the server refuses it.
	// Replaying the nodes and predicates in ID order keeps every ID.
	off := rdf.NewStore()
	var lits []rdf.ID
	for id := rdf.ID(0); int(id) < store.NumNodes(); id++ {
		switch store.KindOf(id) {
		case rdf.KindEntity:
			off.NewAmbiguousEntity(store.Label(id))
		case rdf.KindMediator:
			off.Mediator(store.Label(id))
		default:
			lits = append(lits, off.Literal(store.Label(id)))
		}
	}
	for p := rdf.PID(0); int(p) < store.NumPredicates(); p++ {
		off.Pred(store.PredName(p))
	}
	moved := false
	store.Triples(func(tr rdf.Triple) {
		if !moved && store.KindOf(tr.O) == rdf.KindLiteral && !slices.Contains(store.Objects(tr.S, tr.P), lits[0]) {
			tr.O, moved = lits[0], true
		}
		off.Add(tr.S, tr.P, tr.O)
	})
	if !moved || off.NumNodes() != store.NumNodes() || off.NumTriples() != store.NumTriples() {
		t.Fatal("the copy's counts differ: the check is vacuous")
	}
	offPool, err := NewPool(PoolOptions{Servers: []string{addr}, Digest: snapshot.Digest(off)})
	if err != nil {
		t.Fatal(err)
	}
	defer offPool.Close()
	if err := probe(offPool); err == nil {
		t.Fatal("call succeeded for a world one object off")
	}

	ok, err := NewPool(PoolOptions{Servers: []string{addr}, Digest: snapshot.Digest(store)})
	if err != nil {
		t.Fatal(err)
	}
	defer ok.Close()
	if err := probe(ok); err != nil {
		t.Fatalf("call failed for the matching world: %v", err)
	}
}

// TestHandshakeRefusesOneObjectOff: a shard server over one world refuses a
// pool built for a world with every count equal that differs in one
// triple's object — the case a digest of counts let through.
func TestHandshakeRefusesOneObjectOff(t *testing.T) {
	twin := func(obj string) *rdf.Store {
		s := rdf.NewStore()
		name := s.Pred("name")
		for _, l := range []string{"ada", "bob", "cy"} {
			s.Add(s.Entity(l), name, s.Literal(l))
		}
		s.Add(s.Entity("ada"), s.Pred("spouse"), s.Entity(obj))
		return s
	}
	served, other := twin("bob"), twin("cy")
	if served.NumNodes() != other.NumNodes() || served.NumTriples() != other.NumTriples() ||
		served.NumPredicates() != other.NumPredicates() {
		t.Fatal("the twins' counts differ: the check is vacuous")
	}
	addr, srv := startServer(t, served)
	defer srv.Close()
	for _, c := range []struct {
		store  *rdf.Store
		accept bool
	}{{other, false}, {served, true}} {
		pool, err := NewPool(PoolOptions{Servers: []string{addr}, Digest: snapshot.Digest(c.store)})
		if err != nil {
			t.Fatal(err)
		}
		_, err = pool.Probe(context.Background(), nil)
		pool.Close()
		if (err == nil) != c.accept {
			t.Errorf("pool for the world served (%v): probe error %v", c.accept, err)
		}
	}
}

// TestReplicaFailover: with one of two servers down, every call must still
// succeed via the surviving server, counting failovers.
func TestReplicaFailover(t *testing.T) {
	store := testWorld(t)
	addrA, srvA := startServer(t, store)
	addrB, srvB := startServer(t, store)
	defer srvA.Close()
	defer srvB.Close()

	pool, err := NewPool(PoolOptions{
		Servers: []string{addrA, addrB},
		Digest:  snapshot.Digest(store),
		// Deterministic routing: failover only on error, never on latency.
		disableHedge: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	// The first call starts at the first server: killing it guarantees
	// that a call lands on the dead server first and must fail over.
	srvA.Close()
	pred := store.Predicates()[0]
	for g, nodes := range nodeGroups(store) {
		got, err := pool.Probe(context.Background(), probesOf(rdf.Path{pred}, nodes...))
		if err != nil {
			t.Fatalf("Probe(group %d) with a server down: %v", g, err)
		}
		for i, n := range nodes {
			if want := rdf.PathObjects(nil, store, n, rdf.Path{pred}); !slices.Equal(got[i], want) {
				t.Fatalf("Probe(group %d) from %d: %v, want %v", g, n, got[i], want)
			}
		}
	}
	if st := pool.Stats(); st.Failovers == 0 {
		t.Errorf("Stats().Failovers = 0 after serving with a dead first server: %+v", st)
	}
}

// TestHedgedCallLeaksNoGoroutines: aggressive hedging plus cancelled calls
// must leave no goroutines behind once the pool and servers close — loser
// attempts are aborted and drain, never block.
func TestHedgedCallLeaksNoGoroutines(t *testing.T) {
	store := testWorld(t)
	addrA, srvA := startServer(t, store)
	addrB, srvB := startServer(t, store)

	pool, err := NewPool(PoolOptions{
		Servers:    []string{addrA, addrB},
		Digest:     snapshot.Digest(store),
		hedgeAfter: time.Nanosecond, // hedge every call
	})
	if err != nil {
		t.Fatal(err)
	}

	before := runtime.NumGoroutine()
	pred := store.Predicates()[0]
	groups := nodeGroups(store)
	for i := 0; i < 40; i++ {
		if _, err := pool.Probe(context.Background(), probesOf(rdf.Path{pred}, groups[i%len(groups)]...)); err != nil {
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
		if _, err := pool.Probe(ctx, nil); !errors.Is(err, context.Canceled) {
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
// the client's rpc.call span with the server's shard.serve span (op) under
// it, starting where the call starts and lasting no longer — retrievable
// from the client-side tracer ring.
func TestTraceStitchesAcrossRPC(t *testing.T) {
	store := testWorld(t)
	addr, srv := startServer(t, store)
	defer srv.Close()

	pool, err := NewPool(PoolOptions{Servers: []string{addr}, Digest: snapshot.Digest(store)})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	tracer := obs.NewTracer(obs.Options{Capacity: 8, SampleRate: 1})
	ctx, tr := tracer.Start(context.Background(), "test.query")
	pred := store.Predicates()[0]
	if _, err := pool.Probe(ctx, probesOf(rdf.Path{pred}, store.Entities()[:8]...)); err != nil {
		t.Fatal(err)
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
	serve := call.Find("shard.serve")
	if serve == nil {
		t.Fatalf("no shard.serve span under rpc.call:\n%+v", *call)
	}
	if op, _ := serve.Attr("op"); op != strconv.Itoa(int(opProbe)) {
		t.Errorf("shard.serve op = %q, want %d", op, opProbe)
	}
	if serve.StartNanos != call.StartNanos || serve.DurationNanos > call.DurationNanos {
		t.Errorf("shard.serve at %d for %d ns, want from its rpc.call's start (%d) within its %d ns",
			serve.StartNanos, serve.DurationNanos, call.StartNanos, call.DurationNanos)
	}
}

// TestCallHonorsDeadline: an already-expired context must fail the call
// immediately with the context's error, before any network round trip.
func TestCallHonorsDeadline(t *testing.T) {
	store := testWorld(t)
	addr, srv := startServer(t, store)
	defer srv.Close()

	pool, err := NewPool(PoolOptions{Servers: []string{addr}, Digest: snapshot.Digest(store)})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	start := time.Now()
	_, err = pool.Probe(ctx, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("expired-context call took %v, want immediate failure", d)
	}
	// It sent no frame, so it is not a call of kbqa_rpc_calls_total.
	if st := pool.Stats(); st.Calls != 0 {
		t.Fatalf("Stats().Calls = %d after a call that sent nothing, want 0", st.Calls)
	}
}

// splitProxy forwards connections to a shard server and writes each reply
// frame after the handshake in two pieces with stall between them: split
// bytes, then the rest (split 0: whole frames; -1: half the payload).
type splitProxy struct {
	addr     string
	split    atomic.Int32
	stall    time.Duration
	accepted atomic.Int32
}

func startSplitProxy(t *testing.T, upstream string, stall time.Duration) *splitProxy {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	px := &splitProxy{addr: lis.Addr().String(), stall: stall}
	var wg sync.WaitGroup
	t.Cleanup(func() { lis.Close(); wg.Wait() })
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := lis.Accept()
			if err != nil {
				return
			}
			px.accepted.Add(1)
			up, err := net.Dial("tcp", upstream)
			if err != nil {
				c.Close()
				continue
			}
			wg.Add(2)
			go func() { defer wg.Done(); io.Copy(up, c); up.Close() }()
			go func() {
				defer wg.Done()
				defer c.Close()
				for handshake := true; ; handshake = false {
					payload, err := safeio.ReadFrame(up)
					if err != nil {
						return
					}
					var frame bytes.Buffer
					safeio.WriteFrame(&frame, payload)
					b, k := frame.Bytes(), 0
					if !handshake {
						if k = int(px.split.Load()); k < 0 {
							k = safeio.FrameHeaderLen + len(payload)/2
						}
					}
					if k > 0 {
						c.Write(b[:k])
						time.Sleep(px.stall)
					}
					if _, err := c.Write(b[k:]); err != nil {
						return
					}
				}
			}()
		}
	}()
	return px
}

// TestSlowReplyResumesPastTheHedge: a replica whose reply stalls past the
// hedge deadline, cut inside the frame header or inside the payload, is
// read on where the first read stopped — on the same connection — while
// the hedge goes out. Against a stalled second replica the resumed read is
// the only answer, and it is exactly the direct Probe's; against a live one
// the hedge is still drawn.
func TestSlowReplyResumesPastTheHedge(t *testing.T) {
	store := testWorld(t)
	upstream, srv := startServer(t, store)
	defer srv.Close()
	stalled, err := net.Listen("tcp", "127.0.0.1:0") // accepts, never answers
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	live, liveSrv := startServer(t, store)
	defer liveSrv.Close()

	direct, err := NewPool(PoolOptions{Servers: []string{upstream}, Digest: snapshot.Digest(store)})
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()
	nodes := store.Entities()[:8]
	probes := append(probesOf(rdf.Path{store.Predicates()[0]}, nodes...), probesOf(rdf.Path{store.Predicates()[1]}, nodes[0])...)
	want, err := direct.Probe(context.Background(), probes)
	if err != nil {
		t.Fatal(err)
	}

	for _, other := range []struct{ name, addr string }{{"other replica stalled", stalled.Addr().String()}, {"other replica live", live}} {
		for _, cut := range []struct {
			name  string
			split int32
		}{{"inside the header", 3}, {"inside the payload", -1}} {
			t.Run(other.name+"/"+cut.name, func(t *testing.T) {
				px := startSplitProxy(t, upstream, 60*time.Millisecond)
				pool, err := NewPool(PoolOptions{Servers: []string{px.addr, other.addr}, Digest: snapshot.Digest(store), hedgeAfter: 10 * time.Millisecond})
				if err != nil {
					t.Fatal(err)
				}
				defer pool.Close()
				// Back the other replica off so the proxy is asked first.
				backOff := func() {
					for range 6 {
						pool.host(other.addr).markDown()
					}
				}
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				defer cancel()
				// Pool a connection to the proxy; a warm-up slower than the
				// hedge can lose its connection to the hedge, so repeat it.
				for tries := 0; len(pool.host(px.addr).free) == 0; tries++ {
					if tries == 20 {
						t.Fatal("no warm-up call left a pooled connection to the proxy")
					}
					backOff()
					if _, err := pool.Probe(ctx, probes); err != nil {
						t.Fatal(err)
					}
				}
				accepted := px.accepted.Load()
				px.split.Store(cut.split)
				backOff()
				before := pool.Stats()
				got, err := pool.Probe(ctx, probes)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("got %v, want the direct Probe's %v", got, want)
				}
				if st := pool.Stats(); st.Hedges <= before.Hedges {
					t.Errorf("the reply stalled past the hedge deadline and drew no hedge: %+v", st)
				}
				if n := px.accepted.Load(); n != accepted {
					t.Errorf("the call dialed the proxy %d more times, want it to resume on its pooled connection", n-accepted)
				}
			})
		}
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

			pool, err := NewPool(PoolOptions{Servers: []string{lis.Addr().String()}, Digest: 1})
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
			if _, err = pool.Probe(ctx, nil); err == nil {
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
	pool, err := NewPool(PoolOptions{Servers: []string{addr}, Digest: snapshot.Digest(store)})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	var served []byte
	for op := 0; op < 256; op++ {
		body := newRequest(context.Background())
		body.u32(1) // one probe / pred 1
		body.u32(1) // of one hop / obj 1
		if byte(op) == opProbe {
			body.u32(0)                           // along pred 0
			body.u32(uint32(store.Entities()[0])) // from an entity
		}
		_, err := pool.call(context.Background(), byte(op), 1, body)
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
	if ProtoVersion != 6 {
		t.Errorf("ProtoVersion = %d; the op set above is version 6's", ProtoVersion)
	}
}
