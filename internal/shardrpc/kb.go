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
// Paths are walked where the data is: the server that owns a probe's
// subject walks the probe's path as far as its shards reach, and KB sends
// on only the walks that stopped at a shard the server does not own.
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

// branch is part of a probe's walk: nodes it reached depth edges along
// the probe's path.
type branch struct {
	probe, depth int
	nodes        []rdf.ID
}

// frame is what one shard is asked in one round: its groups, and for each
// the branch whose nodes it walks.
type frame struct {
	groups []ProbeGroup
	owner  []int
}

// add routes one node of branch b, whose remaining path is rest, to the
// frame. A branch's nodes arrive together, so they extend the frame's last
// group or open a new one.
func (f *frame) add(b int, rest rdf.Path, node rdf.ID) {
	if g := len(f.owner) - 1; g >= 0 && f.owner[g] == b {
		f.groups[g].Nodes = append(f.groups[g].Nodes, node)
		return
	}
	f.groups = append(f.groups, ProbeGroup{Path: rest, Nodes: []rdf.ID{node}})
	f.owner = append(f.owner, b)
}

// PathObjects computes V(p.Subj, p.Path) for every probe in rounds. A probe
// starts as one branch, its subject at depth 0. Each round partitions the
// nodes of every unfinished branch by subject hash and sends one
// multi-group frame per touched shard, in parallel when there are several;
// a group carries its branch's remaining path, and the shard walks it for
// as long as the frontier stays on shards it owns. A reply that reached the
// path's end, or an empty frontier, finishes its branch; one that stopped
// at a foreign shard is a branch the next round walks on. On servers that
// own every shard a batch therefore costs one round, however long its
// paths. Each result is the sorted, deduplicated union of the probe's
// finished branches, which is rdf.PathObjects over the local world: a walk
// distributes over a union of frontiers, and a subject hashes to exactly
// one shard. A frame that fails fails the whole batch. The sets are the
// decoded replies themselves, never reused, so out[i] is set to one of them
// and vals comes back as it was given.
func (kb *KB) PathObjects(ctx context.Context, probes []rdf.Probe, out [][]rdf.ID, vals []rdf.ID) ([]rdf.ID, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	n := kb.pool.NumShards()
	subjects := make([]rdf.ID, len(probes))
	live := make([]branch, 0, len(probes))
	out = out[:len(probes)]
	for i, p := range probes {
		subjects[i] = p.Subj
		out[i] = nil
		if len(p.Path) == 0 {
			out[i] = subjects[i : i+1 : i+1]
		} else {
			live = append(live, branch{probe: i, nodes: subjects[i : i+1 : i+1]})
		}
	}
	frames := make([]frame, n)
	replies := make([][]Reached, n)
	var next []branch
	var touched, unsorted []int
	for len(live) > 0 {
		touched = touched[:0]
		for b, br := range live {
			rest := probes[br.probe].Path[br.depth:]
			for _, node := range br.nodes {
				s := rdf.ShardIndex(node, n)
				if len(frames[s].owner) == 0 {
					touched = append(touched, s)
				}
				frames[s].add(b, rest, node)
			}
		}
		err := scatter(touched, func(s int) (err error) {
			replies[s], err = kb.pool.Probe(ctx, s, frames[s].groups)
			return err
		})
		if err != nil {
			return nil, err
		}
		// A finished branch joins its probe's answer, as it stands when it
		// is the first with values.
		next = next[:0]
		for _, s := range touched {
			for g, b := range frames[s].owner {
				br, r := live[b], replies[s][g]
				i := br.probe
				switch {
				case len(r.Nodes) == 0:
				case br.depth+r.Hops < len(probes[i].Path):
					next = append(next, branch{probe: i, depth: br.depth + r.Hops, nodes: r.Nodes})
				case len(out[i]) == 0:
					out[i] = r.Nodes
				default:
					out[i] = append(out[i], r.Nodes...)
					unsorted = append(unsorted, i)
				}
			}
			frames[s] = frame{}
		}
		live, next = next, live
	}
	for _, i := range unsorted {
		slices.Sort(out[i])
		out[i] = slices.Compact(out[i])
	}
	return vals, nil
}
