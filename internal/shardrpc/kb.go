package shardrpc

import (
	"context"
	"slices"
	"sync"

	"repro/internal/rdf"
)

// KB is the engine's index seam (core.Index) over a Pool: V(e, p+) and the
// reverse lookup, scatter/gathered across the shard servers under the
// caller's context, so deadlines, cancellation and trace spans cross the RPC
// boundary and a failure comes back as an error, never as an empty set.
// Paths are walked where the data is: a server that owns a probe's subject
// walks the probe's whole path, so a probe is answered in one round trip.
//
// It is deliberately not an rdf.Graph. Node/predicate interning is global
// and deterministic in the world seed, so every symbol lookup stays on the
// locally loaded world — both sides loaded the same one, enforced by the
// handshake's world digest — and only index reads travel.
type KB struct {
	pool *Pool
}

// NewKB wraps the pool.
func NewKB(pool *Pool) *KB { return &KB{pool: pool} }

// scatter runs do for each of shards — the last on the caller's goroutine,
// one more goroutine for each of the others — waits for all of them, and
// returns the error of the first listed shard that failed.
func scatter(shards []int, do func(shard int) error) error {
	if len(shards) == 1 {
		return do(shards[0])
	}
	errs := make([]error, len(shards))
	var wg sync.WaitGroup
	for k, s := range shards {
		if k == len(shards)-1 {
			errs[k] = do(s)
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[k] = do(s)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Subjects gathers the per-shard subject lists, all shards at once, and
// merges them into ascending ID order, exactly as ShardedStore.Subjects
// does in process.
func (kb *KB) Subjects(ctx context.Context, pred rdf.PID, obj rdf.ID) ([]rdf.ID, error) {
	shards := make([]int, kb.pool.NumShards())
	for i := range shards {
		shards[i] = i
	}
	parts := make([][]rdf.ID, len(shards))
	err := scatter(shards, func(s int) (err error) {
		parts[s], err = kb.pool.ShardSubjects(ctx, s, pred, obj)
		return err
	})
	if err != nil {
		return nil, err
	}
	out := slices.Concat(parts...)
	slices.Sort(out)
	return out, nil
}

// PathObjects computes V(p.Subj, p.Path) for every probe in one round: it
// groups the probes with a path by the shard their subject hashes to and
// sends one frame per touched shard, in parallel when there are several.
// The shard walks each probe to the end of its path, so each reply set is
// that probe's answer, sorted and deduplicated, which is rdf.PathObjects
// over the local world; a probe with no path is its subject. A frame that
// fails fails the whole batch. The sets are the decoded replies themselves,
// never reused, so out[i] is set to one of them and vals comes back as it
// was given.
func (kb *KB) PathObjects(ctx context.Context, probes []rdf.Probe, out [][]rdf.ID, vals []rdf.ID) ([]rdf.ID, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	n := kb.pool.NumShards()
	frames := make([][]rdf.Probe, n)
	var touched []int
	for _, p := range probes {
		if len(p.Path) > 0 {
			s := rdf.ShardIndex(p.Subj, n)
			if len(frames[s]) == 0 {
				touched = append(touched, s)
			}
			frames[s] = append(frames[s], p)
		}
	}
	replies := make([][][]rdf.ID, n)
	err := scatter(touched, func(s int) (err error) {
		replies[s], err = kb.pool.Probe(ctx, s, frames[s])
		return err
	})
	if err != nil {
		return nil, err
	}
	// A shard's replies are in the order its probes were met.
	out = out[:len(probes)]
	for i, p := range probes {
		if len(p.Path) == 0 {
			out[i] = []rdf.ID{p.Subj}
			continue
		}
		s := rdf.ShardIndex(p.Subj, n)
		out[i], replies[s] = replies[s][0], replies[s][1:]
	}
	return vals, nil
}
