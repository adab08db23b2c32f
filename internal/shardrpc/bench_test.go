package shardrpc

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/rdf"
)

// BenchmarkProbeDistributed prices the distributed probe path — a
// KB.PathObjects scatter/gather over loopback shard servers, two replicas,
// adaptive hedging — a probe at a time and eight to a batch, against the
// same probes through core.LocalIndex. probe-ns/op is per probe: batch=1 is
// the price of a network round trip, and batch=8 shows how much of it a
// question's probe plan shares (eight probes spread over four shards cost
// one parallel round of at most four frames, not eight round trips).
func BenchmarkProbeDistributed(b *testing.B) {
	store := testWorld(b)
	addrA, srvA := startServer(b, store)
	addrB, srvB := startServer(b, store)
	defer srvA.Close()
	defer srvB.Close()

	pl, err := NewPlacement([]string{addrA, addrB}, store.NumShards(), 2)
	if err != nil {
		b.Fatal(err)
	}
	pool, err := NewPool(PoolOptions{Placement: pl, Fingerprint: rdf.WorldFingerprint(store)})
	if err != nil {
		b.Fatal(err)
	}
	defer pool.Close()

	// Pre-collect (entity, path) probes that have non-empty local results,
	// so every iteration measures a real frontier expansion.
	var probes []rdf.Probe
	for _, e := range store.Entities() {
		for _, p := range store.Predicates() {
			if len(probes) < 256 && len(store.Objects(e, p)) > 0 {
				probes = append(probes, rdf.Probe{Subj: e, Path: rdf.Path{p}})
			}
		}
	}
	if len(probes) < 8 {
		b.Fatal("too few non-empty probes in the test world")
	}

	run := func(idx core.Index, batch int) func(b *testing.B) {
		return func(b *testing.B) {
			ctx := context.Background()
			// Warm the per-server connection pools out of the timed region.
			if _, err := idx.PathObjects(ctx, probes); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			t0 := time.Now()
			for i := 0; i < b.N; i++ {
				at := i * batch % (len(probes) - batch + 1)
				if _, err := idx.PathObjects(ctx, probes[at:at+batch]); err != nil {
					b.Fatal(err)
				}
			}
			d := time.Since(t0)
			b.StopTimer()
			b.ReportMetric(float64(d.Nanoseconds())/float64(b.N*batch), "probe-ns/op")
		}
	}
	b.Run("local", run(core.LocalIndex(store), 1))
	b.Run("batch=1", run(NewKB(pool), 1))
	b.Run("batch=8", run(NewKB(pool), 8))
}
