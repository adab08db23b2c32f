package shardrpc

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/rdf"
)

// BenchmarkProbeDistributed prices the distributed probe path — a
// KB.PathObjects scatter/gather over loopback shard servers — against two
// replicas, unhedged (pure failover routing) and hedged (the adaptive-delay
// default). On a healthy loopback the two should be near-identical: the
// hedge timer rarely fires, so its cost is the timer setup, not duplicate
// RPCs. The same probes through core.LocalIndex are the in-process
// baseline; the gap between the two is the price of the network hop.
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

	// Pre-collect (entity, path) probes that have non-empty local results,
	// so every iteration measures a real frontier expansion.
	type probe struct {
		subj rdf.ID
		path rdf.Path
	}
	var probes []probe
	for _, e := range store.Entities() {
		for _, p := range store.Predicates() {
			if len(store.Objects(e, p)) > 0 {
				probes = append(probes, probe{subj: e, path: rdf.Path{p}})
				if len(probes) >= 256 {
					break
				}
			}
		}
		if len(probes) >= 256 {
			break
		}
	}
	if len(probes) == 0 {
		b.Fatal("no non-empty probes in the test world")
	}

	run := func(b *testing.B, idx core.Index) float64 {
		ctx := context.Background()
		// Warm the per-server connection pools out of the timed region.
		if _, err := idx.PathObjects(ctx, probes[0].subj, probes[0].path); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		t0 := time.Now()
		for i := 0; i < b.N; i++ {
			pr := probes[i%len(probes)]
			if _, err := idx.PathObjects(ctx, pr.subj, pr.path); err != nil {
				b.Fatal(err)
			}
		}
		d := time.Since(t0)
		b.StopTimer()
		return float64(d.Nanoseconds()) / float64(b.N)
	}
	remote := func(b *testing.B, opts PoolOptions) float64 {
		opts.Placement = pl
		opts.Fingerprint = rdf.WorldFingerprint(store)
		pool, err := NewPool(opts)
		if err != nil {
			b.Fatal(err)
		}
		defer pool.Close()
		return run(b, NewKB(pool))
	}

	b.Run("local", func(b *testing.B) {
		b.ReportMetric(run(b, core.LocalIndex(store)), "probe-ns/op")
	})
	b.Run("unhedged", func(b *testing.B) {
		b.ReportMetric(remote(b, PoolOptions{disableHedge: true}), "probe-ns/op")
	})
	b.Run("hedged", func(b *testing.B) {
		b.ReportMetric(remote(b, PoolOptions{}), "probe-ns/op")
	})
}
