package shardrpc

import (
	"context"
	"slices"

	"repro/internal/rdf"
)

// KB is the engine's index seam (core.Index) over a Pool: V(e, p+) and the
// reverse lookup, read from the index servers under the caller's context,
// so deadlines, cancellation and trace spans cross the RPC boundary and a
// failure comes back as an error, never as an empty set. A read phase is
// one frame to one server: every server holds the whole world and walks
// each probe to the end of its path.
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

// Subjects returns the subjects with (s, pred, obj) in ascending ID order,
// exactly as rdf.Subjects does in process, in one frame.
func (kb *KB) Subjects(ctx context.Context, pred rdf.PID, obj rdf.ID) ([]rdf.ID, error) {
	return kb.pool.Subjects(ctx, pred, obj)
}

// pathless reports whether p walks no edge: its answer is its subject.
func pathless(p rdf.Probe) bool { return len(p.Path) == 0 }

// PathObjects computes V(p.Subj, p.Path) for every probe in one frame to
// one server, which walks each probe with a path to its end, so each reply
// set is that probe's answer, sorted and deduplicated: rdf.PathObjects over
// the local world. A probe with no path is its subject and is not sent. A
// failed frame fails the whole batch. The sets are the decoded replies
// themselves, never reused, so out[i] is set to one of them and vals comes
// back as it was given.
func (kb *KB) PathObjects(ctx context.Context, probes []rdf.Probe, out [][]rdf.ID, vals []rdf.ID) ([]rdf.ID, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	walks := probes
	if slices.ContainsFunc(probes, pathless) {
		walks = slices.DeleteFunc(slices.Clone(probes), pathless)
	}
	var sets [][]rdf.ID
	if len(walks) > 0 {
		var err error
		if sets, err = kb.pool.Probe(ctx, walks); err != nil {
			return nil, err
		}
	}
	// The replies are in the order the probes were met.
	out = out[:len(probes)]
	for i, p := range probes {
		if pathless(p) {
			out[i] = []rdf.ID{p.Subj}
			continue
		}
		out[i], sets = sets[0], sets[1:]
	}
	return vals, nil
}
