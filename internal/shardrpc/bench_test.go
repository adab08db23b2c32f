package shardrpc

import (
	"bytes"
	"context"
	"encoding/binary"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/rdf"
	"repro/internal/rdf/snapshot"
)

// probeCluster starts two loopback index servers over the test world and a
// pool over them with adaptive hedging (or none), and collects
// (entity, path) probes with non-empty local results, so every probe
// measures a real frontier expansion. Cleanup closes all of it.
func probeCluster(tb testing.TB, disableHedge bool) (*rdf.Store, *Pool, []rdf.Probe) {
	tb.Helper()
	store := testWorld(tb)
	pool := twoServers(tb, store, disableHedge)
	var probes []rdf.Probe
	for _, e := range store.Entities() {
		for _, p := range store.Predicates() {
			if len(probes) < 256 && len(store.Objects(e, p)) > 0 {
				probes = append(probes, rdf.Probe{Subj: e, Path: rdf.Path{p}})
			}
		}
	}
	if len(probes) < 8 {
		tb.Fatal("too few non-empty probes in the test world")
	}
	return store, pool, probes
}

// slowOnly traces every request but retains only those slower than an hour:
// the serving default (a slow-query threshold, no sampling) with nothing
// ever retained, so a run pays for its spans but not for the ring.
func slowOnly() *obs.Tracer { return obs.NewTracer(obs.Options{SlowThreshold: time.Hour}) }

// BenchmarkProbeDistributed prices the distributed probe path — a
// KB.PathObjects frame over two loopback index servers, adaptive hedging —
// a probe at a time and eight to a batch, against the same probes through
// core.LocalIndex. probe-ns/op is per probe: batch=1 is the price of a
// network round trip, and batch=8 shows how much of it a question's probe
// plan shares (eight probes cost one frame, not eight round trips).
// traced is batch=1 under a trace, as every request is served: it adds the
// client's spans and the server's timing of every frame.
func BenchmarkProbeDistributed(b *testing.B) {
	store, pool, probes := probeCluster(b, false)

	run := func(idx core.Index, batch int, tracer *obs.Tracer) func(b *testing.B) {
		return func(b *testing.B) {
			// Warm the per-server connection pools out of the timed region.
			if _, err := readAll(context.Background(), idx, probes); err != nil {
				b.Fatal(err)
			}
			out, vals := make([][]rdf.ID, batch), []rdf.ID(nil)
			b.ResetTimer()
			t0 := time.Now()
			for i := 0; i < b.N; i++ {
				at := i * batch % (len(probes) - batch + 1)
				ctx, tr := tracer.Start(context.Background(), "bench.probe")
				var err error
				if vals, err = idx.PathObjects(ctx, probes[at:at+batch], out, vals[:0]); err != nil {
					b.Fatal(err)
				}
				tr.Finish()
			}
			d := time.Since(t0)
			b.StopTimer()
			b.ReportMetric(float64(d.Nanoseconds())/float64(b.N*batch), "probe-ns/op")
		}
	}
	b.Run("local", run(core.LocalIndex(store), 1, nil))
	b.Run("batch=1", run(NewKB(pool), 1, nil))
	b.Run("batch=8", run(NewKB(pool), 8, nil))
	b.Run("traced", run(NewKB(pool), 1, slowOnly()))
}

// TestProbeRoundTripAllocs pins the allocations of one KB.PathObjects round
// trip (one probe, one frame) over loopback, client and in-process server
// together, untraced and traced. Hedging is off so that a slow run cannot
// add a hedge's goroutine and channel to the count; an answer in time costs
// the same either way. Each ceiling sits one above the count; lower it when
// a frame gets cheaper.
func TestProbeRoundTripAllocs(t *testing.T) {
	_, pool, probes := probeCluster(t, true)
	kb := NewKB(pool)
	for _, tc := range []struct {
		name    string
		tracer  *obs.Tracer
		ceiling float64
	}{
		{"untraced", nil, 7},
		{"traced", slowOnly(), 9},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := readAll(context.Background(), kb, probes); err != nil {
				t.Fatal(err)
			}
			i, out := 0, make([][]rdf.ID, 1)
			allocs := testing.AllocsPerRun(200, func() {
				ctx, tr := tc.tracer.Start(context.Background(), "test.probe")
				if _, err := kb.PathObjects(ctx, probes[i%len(probes):i%len(probes)+1], out, nil); err != nil {
					t.Fatal(err)
				}
				tr.Finish()
				i++
			})
			t.Logf("%s round trip: %.1f allocations", tc.name, allocs)
			if allocs > tc.ceiling {
				t.Errorf("%s round trip: %.1f allocations, ceiling %.0f", tc.name, allocs, tc.ceiling)
			}
		})
	}
}

// TestTracedFrameCostsNothing: a shard server answers a frame that carries
// a trace ID as it answers one that does not, with no allocation and with a
// reply of the same length, which differs only in the server time: zero
// untraced, the time the server took traced. A count, not a clock.
func TestTracedFrameCostsNothing(t *testing.T) {
	store := testWorld(t)
	srv := NewServer(store, snapshot.Digest(store), ServerOptions{})
	frame := probeFrames(store)[0]
	var replies [2][]byte
	for i, traceID := range []string{"", "0123456789abcdef"} {
		ss, payload := &session{conn: &replyConn{}}, requestPayload(opProbe, traceID, frame)
		replies[i] = slices.Clone(serveFrame(t, srv, ss, payload))
		allocs := testing.AllocsPerRun(100, func() { serveFrame(t, srv, ss, payload) })
		t.Logf("a frame with trace ID %q: %.1f allocations, a %d-byte reply", traceID, allocs, len(replies[i]))
		if allocs != 0 {
			t.Errorf("a frame with trace ID %q: %.1f allocations on the server, want 0", traceID, allocs)
		}
	}
	untraced, traced := replies[0], replies[1]
	if len(traced) != len(untraced) {
		t.Fatalf("a traced reply is %d bytes, an untraced one %d", len(traced), len(untraced))
	}
	if traced[0] != statusOK || !bytes.Equal(traced[replyHeaderLen:], untraced[replyHeaderLen:]) {
		t.Errorf("the traced reply %x differs from the untraced %x past the server time", traced, untraced)
	}
	if served := binary.LittleEndian.Uint64(untraced[1:]); served != 0 {
		t.Errorf("an untraced reply carries server time %d, want 0", served)
	}
	if served := binary.LittleEndian.Uint64(traced[1:]); served == 0 {
		t.Error("a traced reply carries no server time")
	}
}

// TestTwoHopProbeAllocatesAsOneHop: a walk is the server's, so a probe
// along two edges costs the same round trip, and no more allocations, as
// one along the first of them, from the same subjects.
func TestTwoHopProbeAllocatesAsOneHop(t *testing.T) {
	store, pool, _ := probeCluster(t, true)
	kb := NewKB(pool)
	path, ok := rdf.ParsePath(store, "marriage→person")
	if !ok {
		t.Fatal("marriage→person not present")
	}
	var oneHop, twoHop []rdf.Probe
	for _, e := range store.Entities() {
		if len(rdf.PathObjects(nil, store, e, path)) > 0 {
			oneHop = append(oneHop, rdf.Probe{Subj: e, Path: path[:1]})
			twoHop = append(twoHop, rdf.Probe{Subj: e, Path: path})
		}
	}
	if len(twoHop) < 8 {
		t.Fatalf("%d entities have a spouse", len(twoHop))
	}
	allocs := func(probes []rdf.Probe) float64 {
		if _, err := readAll(context.Background(), kb, probes); err != nil {
			t.Fatal(err)
		}
		i, out := 0, make([][]rdf.ID, 1)
		return testing.AllocsPerRun(200, func() {
			if _, err := kb.PathObjects(context.Background(), probes[i%len(probes):i%len(probes)+1], out, nil); err != nil {
				t.Fatal(err)
			}
			i++
		})
	}
	one, two := allocs(oneHop), allocs(twoHop)
	t.Logf("round trip: %.1f allocations along one edge, %.1f along two", one, two)
	if two > one {
		t.Errorf("a two-edge probe allocates %.1f times, a one-edge probe %.1f", two, one)
	}
}
