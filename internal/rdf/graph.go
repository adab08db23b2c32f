// Package rdf implements the RDF knowledge-base substrate KBQA runs on: an
// in-memory triple store with hash indexes over all three access paths the
// system needs (S→P→O for value lookup, P→O→S for reverse lookup, S→O→P for
// predicate discovery between an entity and a candidate value).
//
// The store plays the role of Trinity.RDF in the paper (Sec 7.1). The types
// follow the paper's two phases. The online phase only reads V(e, p+) for
// the templates a question matched (Eq 7), plus the reverse lookup of the
// ranking variants: that is Graph, the one interface, implemented by the
// Store in memory and by snapshot.Image over a mapped file. The offline
// phase — extraction, EM, the k-round expansion BFS of Sec 6.2 — scans and
// joins the knowledge base and has one backend, so it takes a *Store and
// calls its scan methods directly.
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
// V(e,p), and the reverse lookup. It is exactly what the question
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

	// Objects returns V(e,p): all objects o with (subj, pred, o) in K. The
	// returned slice may be owned by the backend and must not be mutated.
	Objects(subj ID, pred PID) []ID
	// Subjects returns the subjects with (s, pred, obj) in K, in the
	// backend's own order. The returned slice may be owned by the backend
	// and must not be mutated.
	Subjects(pred PID, obj ID) []ID
}

var _ Graph = (*Store)(nil)

// Subjects returns all subjects with (s, pred, obj) in K, ascending: a
// sorted copy of g.Subjects, nil when there is none.
func Subjects(g Graph, pred PID, obj ID) []ID {
	out := append([]ID(nil), g.Subjects(pred, obj)...)
	slices.Sort(out)
	return out
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
func OutDegree(g *Store, subj ID) int {
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
//
// The walk extends one prefix in place and records a path only when it
// reaches obj, into storage on the stack; the paths found are then copied
// into one backing array. The last edge is read from the S→O index rather
// than by visiting every out-edge. A walk that finds nothing allocates
// nothing, and one that does allocates the result slice and its backing
// array.
func PathsBetween(g *Store, subj, obj ID, maxLen int, endFilter func(PID) bool) []Path {
	if maxLen <= 0 {
		return nil
	}
	var prefix [8]PID
	var found [32]PID // the paths found, end to end
	var ends [16]int  // where each found path ends in found
	q := pathQuery{g: g, obj: obj, maxLen: maxLen, endFilter: endFilter}
	fs, es := q.walk(subj, prefix[:0], found[:0], ends[:0])
	if len(es) == 0 {
		return nil
	}
	all := slices.Clone(fs)
	out := make([]Path, len(es))
	start := 0
	for i, end := range es {
		out[i] = Path(all[start:end:end])
		start = end
	}
	return out
}

// pathQuery is what one PathsBetween search looks for.
type pathQuery struct {
	g         *Store
	obj       ID
	maxLen    int
	endFilter func(PID) bool
}

// walk visits cur's out-edges, reached from the subject by prefix, in
// sorted-predicate order, then object insertion order. It appends each
// path into obj to found, and its end to ends, and descends through every
// edge that has room for another.
func (q *pathQuery) walk(cur ID, prefix, found []PID, ends []int) ([]PID, []int) {
	match := func(p PID) {
		if len(prefix) == 0 || q.endFilter == nil || q.endFilter(p) {
			found = append(append(found, prefix...), p)
			ends = append(ends, len(found))
		}
	}
	var buf [32]PID
	if len(prefix)+1 == q.maxLen {
		// The last edge: only the direct predicates into obj can match,
		// and the S→O index holds exactly those (each once).
		preds := append(buf[:0], q.g.so[cur][q.obj]...)
		slices.Sort(preds)
		for _, p := range preds {
			match(p)
		}
		return found, ends
	}
	pm := q.g.spo[cur]
	preds := buf[:0]
	for p := range pm {
		preds = append(preds, p)
	}
	slices.Sort(preds)
	for _, p := range preds {
		for _, o := range pm[p] {
			if o == q.obj {
				match(p)
			}
			// Continue through mediators and entities (the paper's
			// marriage→person→name crosses the spouse entity); literals
			// have no out-edges. Meaningless multi-hop chains are culled
			// by the end filter, exactly as in Sec 6.3.
			if q.g.KindOf(o) != KindLiteral {
				found, ends = q.walk(o, append(prefix, p), found, ends)
			}
		}
	}
	return found, ends
}
