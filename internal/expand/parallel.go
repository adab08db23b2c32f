package expand

import (
	"context"
	"sync"

	"repro/internal/obs"
	"repro/internal/rdf"
)

// ShardScan streams shard i's triples in ascending subject order. Scanning
// every shard must visit each triple exactly once. rdf.Sharded.ShardTriples
// (through LocalScan) and shardrpc.Pool.ScanShard are the two sources.
type ShardScan func(ctx context.Context, shard int, fn func(rdf.Triple)) error

// LocalScan adapts an in-process sharded graph, whose scans cannot fail.
func LocalScan(ss rdf.Sharded) ShardScan {
	return func(_ context.Context, i int, fn func(rdf.Triple)) error {
		ss.ShardTriples(i, fn)
		return nil
	}
}

// ExpandParallel runs the k-round scan+join BFS with one worker per shard.
// Each round, every worker scans its own shard's triples and joins them
// against the shared frontier index — the frontier is read-only during a
// round, so workers share it without locks. The per-shard candidate buffers
// are then merged back into global ascending-subject scan order and
// deduplicated by the same expandState the sequential path uses, so
// ExpandParallel returns exactly the triples, in exactly the order, that
// Expand produces on an equivalent unsharded store.
//
// g supplies the symbols (source entities, node kinds); scan supplies the
// triples, in process or over the network. A scan error — a cancelled ctx,
// a shard with every replica down — aborts the expansion: a partial result
// is never returned as if it were complete. When ctx carries a trace, each
// round runs under an "expand.round" span with one "expand.scan" child per
// shard worker.
func ExpandParallel(ctx context.Context, g rdf.Graph, shards int, scan ShardScan, cfg Config) (*Result, error) {
	if cfg.MaxLen <= 0 {
		cfg.MaxLen = 1
	}
	sources := cfg.Sources
	if sources == nil {
		sources = g.Entities()
	}
	st := newExpandState()
	frontier := sourceFrontier(sources)
	bufs := make([]roundBuf, shards)
	errs := make([]error, shards)
	for round := 1; round <= cfg.MaxLen && len(frontier) > 0; round++ {
		st.res.Scans++
		_, rsp := obs.StartSpan(ctx, "expand.round")
		if rsp != nil {
			rsp.SetInt("round", int64(round))
			rsp.SetInt("frontier", int64(len(frontier)))
		}
		var wg sync.WaitGroup
		for i := 0; i < shards; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				ssp := rsp.Child("expand.scan")
				ssp.SetInt("shard", int64(i))
				bufs[i] = scanRound(func(fn func(rdf.Triple)) {
					errs[i] = scan(ctx, i, fn)
				}, g, cfg, frontier, round)
				ssp.SetInt("scanned", int64(bufs[i].scanned))
				ssp.SetInt("emits", int64(len(bufs[i].emits)))
				ssp.End()
			}(i)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				rsp.End()
				return nil, err
			}
		}
		frontier = st.applyRound(bufs)
		if rsp != nil {
			rsp.SetInt("triples", int64(len(st.res.Triples)))
			rsp.End()
		}
	}
	return st.res, nil
}
