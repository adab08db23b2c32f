// Package expand implements predicate expansion (Sec 6): generating the
// (s, p+, o) triples for expanded predicates up to length k with the
// paper's memory-efficient multi-source BFS, and selecting k with the
// Infobox-based valid(k) statistic (Sec 6.3, Table 4).
//
// The BFS mirrors the disk-based algorithm of Sec 6.2 structurally: k
// rounds, each a full scan of the knowledge base's triples joined (via a
// hash index) against the frontier produced by the previous round. The
// "reduction on s" optimization — starting only from entities that occur
// in the QA corpus — is exposed through Config.Sources. Expansion is
// offline work over the one in-memory backend, rdf.Store.
package expand

import (
	"encoding/binary"
	"sort"

	"repro/internal/rdf"
)

// SPO is one expanded triple (s, p+, o).
type SPO struct {
	S    rdf.ID
	Path rdf.Path
	O    rdf.ID
}

// Config controls expansion.
type Config struct {
	// MaxLen is k, the maximum path length (the paper selects 3).
	MaxLen int
	// Sources restricts BFS start nodes (the reduction-on-s optimization).
	// Nil means every entity in the store.
	Sources []rdf.ID
	// EndFilter accepts the final predicate of any path of length >= 2
	// (the end-with-name rule). Nil accepts everything.
	EndFilter func(rdf.PID) bool
	// KeepAllLengths, when true, emits (s, p+, o) for every length
	// <= MaxLen; when false only paths of exactly MaxLen are emitted.
	// Materialization for the online engine wants every length; valid(k)
	// (Eq 29) only needs the complete length.
	KeepAllLengths bool
}

// Result is the output of Expand.
type Result struct {
	// Triples are the expanded (s, p+, o) triples, deterministic order.
	// Each supported (s, path, o) appears exactly once, even when a
	// diamond-shaped subgraph reaches o through several mediators.
	Triples []SPO
	// ByLength counts emitted triples per path length.
	ByLength map[int]int
	// Scans is the number of full knowledge-base scans performed (k).
	Scans int
	// Scanned is the total number of base triples visited across scans,
	// the dominant cost term O(k·|K|) of Sec 6.2.
	Scanned int
}

// frontierEntry is a partial path ending at a node. sig is the compact
// binary encoding of path used as a dedupe key (4 bytes per predicate).
type frontierEntry struct {
	src  rdf.ID
	path rdf.Path
	sig  string
}

// appendSig extends a path signature by one predicate.
func appendSig(sig string, p rdf.PID) string {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], uint32(p))
	return sig + string(b[:])
}

// emitKey identifies an output triple for deduplication: same source, same
// expanded predicate, same object — however many mediator routes exist.
type emitKey struct {
	src, obj rdf.ID
	sig      string
}

// entryKey identifies a frontier entry: duplicate (node, src, path)
// arrivals generate byte-identical downstream work and are pruned.
type entryKey struct {
	node, src rdf.ID
	sig       string
}

// scanRound runs one round: a scan of the whole store in ascending-subject
// order, joined against the frontier. It appends each new (s, p+, o) the
// join supports to res and returns the next round's frontier, both
// deduplicated as the scan meets them. The dedupe sets are per round: a
// signature encodes the full path, so a round-r key (4·r sig bytes) can
// never recur in a later round.
func (res *Result) scanRound(g *rdf.Store, cfg Config, frontier map[rdf.ID][]frontierEntry, round int) map[rdf.ID][]frontierEntry {
	emitted := make(map[emitKey]bool)
	entrySeen := make(map[entryKey]bool)
	next := make(map[rdf.ID][]frontierEntry)
	g.Triples(func(t rdf.Triple) {
		res.Scanned++
		for _, fe := range frontier[t.S] {
			path := append(append(rdf.Path{}, fe.path...), t.P)
			sig := appendSig(fe.sig, t.P)
			if (len(path) == 1 || cfg.EndFilter == nil || cfg.EndFilter(t.P)) &&
				(cfg.KeepAllLengths || len(path) == cfg.MaxLen) {
				if k := (emitKey{src: fe.src, obj: t.O, sig: sig}); !emitted[k] {
					emitted[k] = true
					res.Triples = append(res.Triples, SPO{S: fe.src, Path: path, O: t.O})
					res.ByLength[len(path)]++
				}
			}
			if g.KindOf(t.O) != rdf.KindLiteral && round < cfg.MaxLen {
				if k := (entryKey{node: t.O, src: fe.src, sig: sig}); !entrySeen[k] {
					entrySeen[k] = true
					next[t.O] = append(next[t.O], frontierEntry{src: fe.src, path: path, sig: sig})
				}
			}
		}
	})
	return next
}

// sourceFrontier builds round 1's frontier: the source set with empty
// paths (the "load all entities occurring in the QA corpus into memory and
// build the hash index on S0" step).
func sourceFrontier(sources []rdf.ID) map[rdf.ID][]frontierEntry {
	frontier := make(map[rdf.ID][]frontierEntry, len(sources))
	for _, e := range sources {
		frontier[e] = append(frontier[e], frontierEntry{src: e})
	}
	return frontier
}

// Expand runs the k-round scan+join BFS: each round is one scan of the
// store joined against the previous round's frontier (the "hash index on
// S0" of Sec 6.2), so the triples come out in scan order, round by round.
func Expand(g *rdf.Store, cfg Config) *Result {
	if cfg.MaxLen <= 0 {
		cfg.MaxLen = 1
	}
	sources := cfg.Sources
	if sources == nil {
		sources = g.Entities()
	}
	res := &Result{ByLength: make(map[int]int)}
	frontier := sourceFrontier(sources)
	for round := 1; round <= cfg.MaxLen && len(frontier) > 0; round++ {
		res.Scans++
		frontier = res.scanRound(g, cfg, frontier, round)
	}
	return res
}

// DistinctPaths returns the distinct expanded predicates of the result,
// sorted by their key, optionally restricted to a single length (0 = all).
func (r *Result) DistinctPaths(g *rdf.Store, length int) []string {
	set := make(map[string]bool)
	for _, t := range r.Triples {
		if length != 0 && len(t.Path) != length {
			continue
		}
		set[rdf.Key(g, t.Path)] = true
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Meaningful reports, per the Infobox criterion of Sec 6.3, whether an
// expanded triple has ground-truth support. It is injected as a function so
// the package does not depend on the infobox implementation.
type Meaningful func(s rdf.ID, valueLabel string) bool

// ValidK computes valid(k) of Eq (29): the number of expanded triples of
// length exactly k, starting from the given (top-frequency) entities, whose
// (subject, value) pair the infobox supports. Each supported (s, p+, o) is
// counted exactly once — diamond-shaped subgraphs that reach the same
// object through several mediators do not inflate the count.
func ValidK(g *rdf.Store, entities []rdf.ID, k int, endFilter func(rdf.PID) bool, has Meaningful) int {
	res := Expand(g, Config{MaxLen: k, Sources: entities, EndFilter: endFilter})
	n := 0
	for _, t := range res.Triples {
		if len(t.Path) != k {
			continue
		}
		if has(t.S, g.Label(t.O)) {
			n++
		}
	}
	return n
}

// TopEntitiesByFrequency returns the n entities with the highest out-degree
// (the paper's trustworthy-entity sampling for valid(k)).
func TopEntitiesByFrequency(g *rdf.Store, n int) []rdf.ID {
	ents := g.Entities()
	deg := make(map[rdf.ID]int, len(ents))
	for _, e := range ents {
		deg[e] = rdf.OutDegree(g, e)
	}
	sort.Slice(ents, func(i, j int) bool {
		di, dj := deg[ents[i]], deg[ents[j]]
		if di != dj {
			return di > dj
		}
		return ents[i] < ents[j]
	})
	if n > len(ents) {
		n = len(ents)
	}
	return ents[:n]
}
