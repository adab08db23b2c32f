// Package rdf implements the RDF knowledge-base substrate KBQA runs on: an
// in-memory triple store with hash indexes over all three access paths the
// system needs (S→P→O for value lookup, P→O→S for reverse lookup, S→O→P for
// predicate discovery between an entity and a candidate value).
//
// The store plays the role of Trinity.RDF in the paper (Sec 7.1). KBQA's
// algorithms only touch the knowledge base through V(e,p), "which predicates
// connect e and v", and a scan for the BFS of Sec 6.2 — the six index
// primitives of Graph. Everything else (bounded traversal, serialization,
// path keys) is a free function over that interface, written once for every
// backend: ShardedStore in memory, snapshot.Image over a mapped file.
package rdf

import (
	"fmt"
	"sort"
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

// Graph is the read API of a knowledge base: the interning lookups plus six
// index primitives. A backend implements exactly this; extraction, learning,
// the baselines and serialization are written against it.
type Graph interface {
	// Node and predicate interning lookups.
	Label(id ID) string
	KindOf(id ID) Kind
	NumNodes() int
	NodesByLabel(label string) []ID
	EntitiesByLabel(label string) []ID
	Entities() []ID
	PredName(p PID) string
	PredID(name string) (PID, bool)
	NumPredicates() int
	Predicates() []PID

	// Objects returns V(e,p): all objects o with (subj, pred, o) in K. The
	// returned slice may be owned by the backend and must not be mutated.
	Objects(subj ID, pred PID) []ID
	// Subjects returns all subjects with (s, pred, obj) in K, ascending.
	Subjects(pred PID, obj ID) []ID
	// PredicatesBetween returns every direct predicate connecting subj to
	// obj.
	PredicatesBetween(subj, obj ID) []PID
	// OutEdges calls fn for each (pred, obj) pair of subj, predicates
	// ascending, objects of one predicate in insertion order.
	OutEdges(subj ID, fn func(p PID, o ID))
	NumTriples() int
	// Triples iterates over every triple in ascending subject order, each
	// subject's edges as OutEdges yields them — the "scan the RDF triples
	// resident on disk" primitive of the memory-efficient BFS (Sec 6.2).
	Triples(fn func(Triple))
}

// Sharded is a Graph whose triples are partitioned by subject hash
// (ShardIndex), plus the per-shard access paths a shard server, the
// parallel expander and the image writer need.
type Sharded interface {
	Graph
	NumShards() int
	// ShardTriples iterates shard i's triples in ascending subject order.
	// The shards partition the subjects, so scanning every shard visits each
	// triple exactly once; distinct shards may be scanned concurrently.
	ShardTriples(i int, fn func(Triple))
	// ShardSubjectIDs returns shard i's distinct subjects, ascending — the
	// cursor index of a paginated shard scan.
	ShardSubjectIDs(i int) []ID
	// ShardSubjects returns shard i's subjects with (s, pred, obj), the
	// per-shard half of a scatter/gather Subjects.
	ShardSubjects(i int, pred PID, obj ID) []ID
	// SubjectTriples iterates the triples of one subject in scan order.
	SubjectTriples(subj ID, fn func(Triple))
}

var _ Sharded = (*ShardedStore)(nil)

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
func OutDegree(g Graph, subj ID) int {
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

// PathObjects returns every object reachable from subj by traversing the
// path, i.e. V(e, p+) for an expanded predicate (Sec 6.1 "online part").
// Duplicates are removed; the result is ascending.
func PathObjects(g Graph, subj ID, path Path) []ID {
	frontier := []ID{subj}
	for _, p := range path {
		var next []ID
		seen := make(map[ID]bool)
		for _, n := range frontier {
			for _, o := range g.Objects(n, p) {
				if !seen[o] {
					seen[o] = true
					next = append(next, o)
				}
			}
		}
		if len(next) == 0 {
			return nil
		}
		frontier = next
	}
	sort.Slice(frontier, func(i, j int) bool { return frontier[i] < frontier[j] })
	return frontier
}

// PathsBetween returns every predicate path of length at most maxLen leading
// from subj to obj. Paths of length 1 are direct predicates. The search is a
// depth-first enumeration over the (small) out-neighbourhood; endFilter, when
// non-nil, must accept the final predicate of any multi-edge path (the paper
// requires length>=2 paths to end in a name-like predicate, Sec 6.3).
func PathsBetween(g Graph, subj, obj ID, maxLen int, endFilter func(PID) bool) []Path {
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
