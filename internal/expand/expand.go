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
// offline work over the one in-memory backend, rdf.ShardedStore: each
// round's scan runs one worker per shard and merges deterministically, so
// the result does not depend on the shard layout.
package expand

import (
	"encoding/binary"
	"sort"
	"sync"

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
	// (the end-with-name rule). Nil accepts everything. Expand calls it
	// from one goroutine per shard, so it must be safe for
	// concurrent use — in practice a pure function of the PID.
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

// emitCand is a candidate output triple produced by a scan, tagged with the
// scanned subject that generated it so per-shard buffers can be merged back
// into global scan order.
type emitCand struct {
	scanS rdf.ID
	spo   SPO
	sig   string
}

// nextCand is a candidate next-round frontier entry, tagged like emitCand.
type nextCand struct {
	scanS rdf.ID
	node  rdf.ID
	entry frontierEntry
}

// roundBuf collects one scan's raw candidates before deduplication.
type roundBuf struct {
	emits   []emitCand
	nexts   []nextCand
	scanned int
}

// scanRound runs one scan+join over a triple source. The source must
// deliver triples in ascending-subject order (ShardedStore's Triples and
// ShardTriples both do), so the buffers come back sorted by scanS.
// EndFilter and the length policy are applied here; deduplication is not —
// the same (s, path, o) can surface from scans of different shards, so it
// happens in applyRound on the merged stream.
func scanRound(scan func(func(rdf.Triple)), g *rdf.ShardedStore, cfg Config, frontier map[rdf.ID][]frontierEntry, round int) roundBuf {
	var buf roundBuf
	scan(func(t rdf.Triple) {
		buf.scanned++
		entries, ok := frontier[t.S]
		if !ok {
			return
		}
		for i := range entries {
			fe := &entries[i]
			path := append(append(rdf.Path{}, fe.path...), t.P)
			sig := appendSig(fe.sig, t.P)
			if (len(path) == 1 || cfg.EndFilter == nil || cfg.EndFilter(t.P)) &&
				(cfg.KeepAllLengths || len(path) == cfg.MaxLen) {
				buf.emits = append(buf.emits, emitCand{
					scanS: t.S,
					spo:   SPO{S: fe.src, Path: path, O: t.O},
					sig:   sig,
				})
			}
			if g.KindOf(t.O) != rdf.KindLiteral && round < cfg.MaxLen {
				buf.nexts = append(buf.nexts, nextCand{
					scanS: t.S,
					node:  t.O,
					entry: frontierEntry{src: fe.src, path: path, sig: sig},
				})
			}
		}
	})
	return buf
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

// applyRound merges one round's per-worker buffers back into global
// ascending-subject scan order, deduplicates, appends the surviving
// triples to res and builds the next frontier. With a single buffer
// the merge is the identity, so every shard layout applies candidates in
// exactly the order one scan of the whole store would, and produces
// identical results.
func (res *Result) applyRound(bufs []roundBuf) map[rdf.ID][]frontierEntry {
	emits := make([][]emitCand, 0, len(bufs))
	nexts := make([][]nextCand, 0, len(bufs))
	for _, b := range bufs {
		res.Scanned += b.scanned
		if len(b.emits) > 0 {
			emits = append(emits, b.emits)
		}
		if len(b.nexts) > 0 {
			nexts = append(nexts, b.nexts)
		}
	}
	// The dedupe sets are per round: a signature encodes the full path, so
	// a round-r key (4·r sig bytes) can never recur in a later round, and
	// holding the sets across rounds would only retain memory.
	emitted := make(map[emitKey]bool)
	mergeBySubject(emits, func(c emitCand) rdf.ID { return c.scanS }, func(c emitCand) {
		k := emitKey{src: c.spo.S, obj: c.spo.O, sig: c.sig}
		if emitted[k] {
			return
		}
		emitted[k] = true
		res.Triples = append(res.Triples, c.spo)
		res.ByLength[len(c.spo.Path)]++
	})
	entrySeen := make(map[entryKey]bool)
	next := make(map[rdf.ID][]frontierEntry)
	mergeBySubject(nexts, func(c nextCand) rdf.ID { return c.scanS }, func(c nextCand) {
		k := entryKey{node: c.node, src: c.entry.src, sig: c.entry.sig}
		if entrySeen[k] {
			return
		}
		entrySeen[k] = true
		next[c.node] = append(next[c.node], c.entry)
	})
	return next
}

// mergeBySubject k-way-merges buffers that are each sorted by subject into
// global ascending-subject order. Shards partition the subjects, so no two
// buffers share a subject and the merge is a total order.
func mergeBySubject[T any](bufs [][]T, key func(T) rdf.ID, apply func(T)) {
	switch len(bufs) {
	case 0:
		return
	case 1:
		for _, c := range bufs[0] {
			apply(c)
		}
		return
	}
	heads := make([]int, len(bufs))
	for {
		best := -1
		var bestKey rdf.ID
		for i, b := range bufs {
			if heads[i] >= len(b) {
				continue
			}
			k := key(b[heads[i]])
			if best < 0 || k < bestKey {
				best, bestKey = i, k
			}
		}
		if best < 0 {
			return
		}
		// Consume the full run of the winning subject; the next buffer
		// entry for it (if any) is contiguous because each buffer is in
		// ascending subject order.
		b := bufs[best]
		for heads[best] < len(b) && key(b[heads[best]]) == bestKey {
			apply(b[heads[best]])
			heads[best]++
		}
	}
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

// Expand runs the k-round scan+join BFS with one worker per shard. Each
// round, every worker scans its own shard's triples and joins them against
// the shared frontier index — the frontier is read-only during a round, so
// workers share it without locks. The per-shard candidate buffers are then
// merged back into global ascending-subject scan order and deduplicated, so
// Expand returns exactly the triples, in exactly the order, that one scan
// of the whole store per round produces, whatever the shard count.
func Expand(g *rdf.ShardedStore, cfg Config) *Result {
	if cfg.MaxLen <= 0 {
		cfg.MaxLen = 1
	}
	sources := cfg.Sources
	if sources == nil {
		sources = g.Entities()
	}
	res := &Result{ByLength: make(map[int]int)}
	frontier := sourceFrontier(sources)
	bufs := make([]roundBuf, g.NumShards())
	for round := 1; round <= cfg.MaxLen && len(frontier) > 0; round++ {
		res.Scans++
		var wg sync.WaitGroup
		for i := range bufs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				bufs[i] = scanRound(func(fn func(rdf.Triple)) { g.ShardTriples(i, fn) }, g, cfg, frontier, round)
			}(i)
		}
		wg.Wait()
		frontier = res.applyRound(bufs)
	}
	return res
}

// DistinctPaths returns the distinct expanded predicates of the result,
// sorted by their key, optionally restricted to a single length (0 = all).
func (r *Result) DistinctPaths(g *rdf.ShardedStore, length int) []string {
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
func ValidK(g *rdf.ShardedStore, entities []rdf.ID, k int, endFilter func(rdf.PID) bool, has Meaningful) int {
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
func TopEntitiesByFrequency(g *rdf.ShardedStore, n int) []rdf.ID {
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
