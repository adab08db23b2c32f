package shardrpc

import (
	"context"
	"sort"
	"sync"

	"repro/internal/rdf"
)

// KB is the engine's index seam (core.Index) over a Pool: V(e, p+) and the
// reverse lookup, scatter/gathered across the shard servers under the
// caller's context, so deadlines, cancellation and trace spans cross the RPC
// boundary and a failure comes back as an error, never as an empty set.
//
// It is deliberately not an rdf.Graph. Node/predicate interning is global
// and deterministic in the world seed, so every symbol lookup stays on the
// locally loaded world — both sides loaded the same one, enforced by the
// handshake fingerprint — and only index reads travel.
type KB struct {
	pool *Pool
}

// NewKB wraps the pool.
func NewKB(pool *Pool) *KB { return &KB{pool: pool} }

// Subjects gathers the per-shard subject lists and merges them into
// ascending ID order, exactly as ShardedStore.Subjects does in process.
func (kb *KB) Subjects(ctx context.Context, pred rdf.PID, obj rdf.ID) ([]rdf.ID, error) {
	var out []rdf.ID
	for i := 0; i < kb.pool.NumShards(); i++ {
		ids, err := kb.pool.ShardSubjects(ctx, i, pred, obj)
		if err != nil {
			return nil, err
		}
		out = append(out, ids...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// PathObjects computes V(subj, path) by per-hop frontier scatter/gather:
// each hop partitions the frontier by subject hash and fans one Frontier
// RPC out per touched shard. The result is identical to rdf.PathObjects
// over the local world: the per-shard unions are disjoint on input
// (subjects hash to exactly one shard), merged, deduplicated, and the final
// frontier sorted ascending.
func (kb *KB) PathObjects(ctx context.Context, subj rdf.ID, path rdf.Path) ([]rdf.ID, error) {
	n := kb.pool.NumShards()
	frontier := []rdf.ID{subj}
	for _, p := range path {
		byShard := make([][]rdf.ID, n)
		touched := 0
		for _, node := range frontier {
			i := rdf.ShardIndex(node, n)
			if byShard[i] == nil {
				touched++
			}
			byShard[i] = append(byShard[i], node)
		}
		results := make([][]rdf.ID, n)
		errs := make([]error, n)
		if touched == 1 {
			// Single-shard hop (the common probe case): skip the fan-out
			// goroutines.
			for i := 0; i < n; i++ {
				if byShard[i] != nil {
					results[i], errs[i] = kb.pool.Frontier(ctx, i, p, byShard[i])
				}
			}
		} else {
			var wg sync.WaitGroup
			for i := 0; i < n; i++ {
				if byShard[i] == nil {
					continue
				}
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					results[i], errs[i] = kb.pool.Frontier(ctx, i, p, byShard[i])
				}(i)
			}
			wg.Wait()
		}
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		seen := make(map[rdf.ID]bool)
		var next []rdf.ID
		for i := 0; i < n; i++ {
			for _, o := range results[i] {
				if !seen[o] {
					seen[o] = true
					next = append(next, o)
				}
			}
		}
		if len(next) == 0 {
			return nil, nil
		}
		frontier = next
	}
	sort.Slice(frontier, func(i, j int) bool { return frontier[i] < frontier[j] })
	return frontier, nil
}
