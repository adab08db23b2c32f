// Package rdf implements the RDF knowledge-base substrate KBQA runs on: an
// in-memory triple store with hash indexes over all three access paths the
// system needs (S→P→O for value lookup, P→O→S for reverse lookup, S→O→P for
// predicate discovery between an entity and a candidate value).
//
// The store plays the role of Trinity.RDF in the paper (Sec 7.1). The types
// follow the paper's two phases. The online phase only reads V(e, p+) for
// the templates a question matched (Eq 7), plus the reverse lookup of the
// ranking variants: that is Graph, the one interface, implemented by the
// ShardedStore in memory and by snapshot.Image over a mapped file. The
// offline phase — extraction, EM, the k-round expansion BFS of Sec 6.2 —
// scans and joins the knowledge base and has one backend, so it takes a
// *ShardedStore and calls its scan methods directly.
package rdf

import (
	"fmt"
	"slices"
	"strings"
)

// ID identifies a node (entity, mediator, or literal) in the store.
type ID int32

// PID identifies a predicate.
type PID int32

// Kind classifies a node.
type Kind uint8

const (
	// KindEntity is a named first-class entity (has a surface form users
	// mention in questions).
	KindEntity Kind = iota
	// KindMediator is an anonymous intermediate node of a multi-edge
	// structure (Freebase CVT-style), e.g. the marriage node in
	// name -marriage-> m -person-> b. Mediators never answer questions and
	// never appear in them.
	KindMediator
	// KindLiteral is a value node: a number, date, or name string.
	KindLiteral
)

func (k Kind) String() string {
	switch k {
	case KindEntity:
		return "entity"
	case KindMediator:
		return "mediator"
	case KindLiteral:
		return "literal"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Triple is one (subject, predicate, object) fact.
type Triple struct {
	S ID
	P PID
	O ID
}

// Path is an expanded predicate: a sequence of predicate IDs traversed
// subject-to-object (Definition 1 in the paper).
type Path []PID

// Graph is the online read API of a knowledge base: the interning lookups,
// V(e,p), and the per-shard reverse lookup. It is exactly what the question
// path, the shard server and the mapped image need, and nothing more.
type Graph interface {
	// Node and predicate interning lookups.
	Label(id ID) string
	KindOf(id ID) Kind
	NumNodes() int
	NodesByLabel(label string) []ID
	Entities() []ID
	PredName(p PID) string
	PredID(name string) (PID, bool)
	NumTriples() int
	// NumShards is the subject-hash shard count (ShardIndex).
	NumShards() int

	// Objects returns V(e,p): all objects o with (subj, pred, o) in K. The
	// returned slice may be owned by the backend and must not be mutated.
	Objects(subj ID, pred PID) []ID
	// ShardSubjects returns shard i's subjects with (s, pred, obj), the
	// per-shard half of a scatter/gather Subjects.
	ShardSubjects(i int, pred PID, obj ID) []ID
}

var _ Graph = (*ShardedStore)(nil)

// Subjects returns all subjects with (s, pred, obj) in K, ascending: the
// shards' ShardSubjects concatenated and sorted, the one merge every
// in-process backend shares.
func Subjects(g Graph, pred PID, obj ID) []ID {
	var out []ID
	for i := 0; i < g.NumShards(); i++ {
		out = append(out, g.ShardSubjects(i, pred, obj)...)
	}
	slices.Sort(out)
	return out
}

// ShardIndex maps a subject ID to its owning shard in an n-shard layout —
// the one placement function shared by every backend and by the remote
// shard topology, so a networked probe routes to exactly the shard an
// in-process store would. Node IDs are dense, so a multiplicative
// (Fibonacci) hash spreads consecutive IDs — which the generator assigns
// category by category — evenly across shards.
func ShardIndex(id ID, n int) int {
	return int((uint32(id) * 2654435761) % uint32(n))
}

// Key renders the path in the paper's arrow notation
// ("marriage→person→name"), the canonical string form used as a model key.
func Key(g Graph, p Path) string {
	parts := make([]string, len(p))
	for i, pid := range p {
		parts[i] = g.PredName(pid)
	}
	return strings.Join(parts, "→")
}

// ParsePath converts an arrow-notation key back to a Path. It returns false
// when any predicate name is unknown.
func ParsePath(g Graph, key string) (Path, bool) {
	parts := strings.Split(key, "→")
	path := make(Path, len(parts))
	for i, name := range parts {
		pid, ok := g.PredID(name)
		if !ok {
			return nil, false
		}
		path[i] = pid
	}
	return path, true
}

// OutDegree returns the number of triples with subj as subject. The paper
// uses this as the entity "frequency" when sampling trustworthy entities for
// valid(k) (Sec 6.3).
func OutDegree(g *ShardedStore, subj ID) int {
	n := 0
	g.OutEdges(subj, func(PID, ID) { n++ })
	return n
}

// Probe names one V(e, p+) read: the value set of Path from Subj. A
// question's reads travel as a []Probe so an index can plan them together.
type Probe struct {
	Subj ID
	Path Path
}

// PathObjects appends every object reachable from subj by traversing the
// path — V(e, p+) for an expanded predicate (Sec 6.1 "online part") — to
// dst, ascending and without duplicates, and returns the extended slice;
// dst's own elements are left as they were. Each hop's frontier lives in
// dst's tail, sorted and compacted in place, so a caller that hands in
// storage it reuses pays no allocation. With no value, dst comes back as it
// was passed — nil for nil.
func PathObjects(dst []ID, g Graph, subj ID, path Path) []ID {
	base := len(dst)
	out := append(dst, subj)
	for _, p := range path {
		end := len(out)
		for i := base; i < end; i++ {
			out = append(out, g.Objects(out[i], p)...)
		}
		next := out[end:]
		slices.Sort(next)
		out = append(out[:base], slices.Compact(next)...)
		if len(out) == base {
			return dst
		}
	}
	return out
}

// PathsBetween returns every predicate path of length at most maxLen leading
// from subj to obj. Paths of length 1 are direct predicates. The search is a
// depth-first enumeration over the (small) out-neighbourhood; endFilter, when
// non-nil, must accept the final predicate of any multi-edge path (the paper
// requires length>=2 paths to end in a name-like predicate, Sec 6.3).
func PathsBetween(g *ShardedStore, subj, obj ID, maxLen int, endFilter func(PID) bool) []Path {
	var out []Path
	var walk func(cur ID, prefix Path)
	walk = func(cur ID, prefix Path) {
		if len(prefix) >= maxLen {
			return
		}
		g.OutEdges(cur, func(p PID, o ID) {
			path := append(append(Path{}, prefix...), p)
			if o == obj {
				if len(path) == 1 || endFilter == nil || endFilter(p) {
					out = append(out, path)
				}
			}
			// Continue through mediators and entities (the paper's
			// marriage→person→name crosses the spouse entity); literals
			// have no out-edges. Meaningless multi-hop chains are culled
			// by the end filter, exactly as in Sec 6.3.
			if g.KindOf(o) != KindLiteral {
				walk(o, path)
			}
		})
	}
	walk(subj, nil)
	return out
}
