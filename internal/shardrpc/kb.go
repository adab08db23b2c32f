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

// frame is what one shard is asked at one path depth: its groups, and for
// each the probe whose frontier the group's nodes came from.
type frame struct {
	groups []ProbeGroup
	owner  []int
}

// add routes one frontier node of probe to the frame. A probe's nodes
// arrive together, so they extend the frame's last group or open a new one.
func (f *frame) add(probe int, pred rdf.PID, node rdf.ID) {
	if g := len(f.owner) - 1; g >= 0 && f.owner[g] == probe {
		f.groups[g].Nodes = append(f.groups[g].Nodes, node)
		return
	}
	f.groups = append(f.groups, ProbeGroup{Pred: pred, Nodes: []rdf.ID{node}})
	f.owner = append(f.owner, probe)
}

// PathObjects computes V(p.Subj, p.Path) for every probe by advancing all of
// them together, one path depth at a time: each depth partitions every
// live frontier by subject hash and sends one multi-group frame per touched
// shard, in parallel when there are several. A batch therefore costs as
// many sequential round trips as its longest path has edges, however many
// probes it holds. Each result is identical to rdf.PathObjects over the
// local world: a group's nodes are disjoint across shards (a subject hashes
// to exactly one), the per-shard unions are merged and deduplicated, and
// frontiers stay ascending. A frame that fails fails the whole batch. The
// sets are the decoded replies themselves, never reused, so out[i] is set
// to one of them and vals comes back as it was given.
func (kb *KB) PathObjects(ctx context.Context, probes []rdf.Probe, out [][]rdf.ID, vals []rdf.ID) ([]rdf.ID, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	n := kb.pool.NumShards()
	// frontiers[i] is probe i's frontier at the current depth, ascending and
	// unique; one that empties has no values and stays empty.
	subjects := make([]rdf.ID, len(probes))
	frontiers := out[:len(probes)]
	for i, p := range probes {
		subjects[i] = p.Subj
		frontiers[i] = subjects[i : i+1 : i+1]
	}
	frames := make([]frame, n)
	replies := make([][][]rdf.ID, n)
	var touched, unsorted []int
	for depth := 0; ; depth++ {
		touched = touched[:0]
		for i, p := range probes {
			if depth >= len(p.Path) {
				continue // complete: its frontier is its answer
			}
			for _, node := range frontiers[i] {
				s := rdf.ShardIndex(node, n)
				if len(frames[s].owner) == 0 {
					touched = append(touched, s)
				}
				frames[s].add(i, p.Path[depth], node)
			}
			frontiers[i] = nil
		}
		if len(touched) == 0 {
			break
		}
		err := scatter(touched, func(s int) (err error) {
			replies[s], err = kb.pool.Probe(ctx, s, frames[s].groups)
			return err
		})
		if err != nil {
			return nil, err
		}
		// A probe's next frontier is the union of its groups' replies. One
		// that drew on a single shard is that reply as it stands.
		unsorted = unsorted[:0]
		for _, s := range touched {
			for g, i := range frames[s].owner {
				part := replies[s][g]
				if len(frontiers[i]) == 0 {
					frontiers[i] = part
				} else if len(part) > 0 {
					frontiers[i] = append(frontiers[i], part...)
					unsorted = append(unsorted, i)
				}
			}
			frames[s] = frame{}
		}
		for _, i := range unsorted {
			slices.Sort(frontiers[i])
			frontiers[i] = slices.Compact(frontiers[i])
		}
	}
	for i, f := range frontiers {
		if len(f) == 0 {
			frontiers[i] = nil
		}
	}
	return vals, nil
}
