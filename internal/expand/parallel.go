package expand

import (
	"context"
	"sync"

	"repro/internal/obs"
	"repro/internal/rdf"
)

// ExpandParallel runs the k-round scan+join BFS with one worker per shard.
// Each round, every worker scans its own shard's triples and joins them
// against the shared frontier index — the frontier is read-only during a
// round, so workers share it without locks. The per-shard candidate buffers
// are then merged back into global ascending-subject scan order and
// deduplicated by the same expandState the sequential path uses, so
// ExpandParallel returns exactly the triples, in exactly the order, that
// Expand produces on an equivalent unsharded store.
//
// g is the local world: it supplies the symbols (source entities, node
// kinds) and, shard by shard through ShardTriples, the triples — an
// in-memory scan that cannot fail. ctx is read for its trace only: when it
// carries one, each round runs under an "expand.round" span with one
// "expand.scan" child per shard worker.
func ExpandParallel(ctx context.Context, g rdf.Sharded, cfg Config) *Result {
	if cfg.MaxLen <= 0 {
		cfg.MaxLen = 1
	}
	sources := cfg.Sources
	if sources == nil {
		sources = g.Entities()
	}
	st := newExpandState()
	frontier := sourceFrontier(sources)
	shards := g.NumShards()
	bufs := make([]roundBuf, shards)
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
				bufs[i] = scanRound(func(fn func(rdf.Triple)) { g.ShardTriples(i, fn) }, g, cfg, frontier, round)
				ssp.SetInt("scanned", int64(bufs[i].scanned))
				ssp.SetInt("emits", int64(len(bufs[i].emits)))
				ssp.End()
			}(i)
		}
		wg.Wait()
		frontier = st.applyRound(bufs)
		if rsp != nil {
			rsp.SetInt("triples", int64(len(st.res.Triples)))
			rsp.End()
		}
	}
	return st.res
}
