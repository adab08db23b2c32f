package expand

import (
	"testing"

	"repro/internal/infobox"
	"repro/internal/kbgen"
	"repro/internal/rdf"
)

// serialExpand is the reference Expand is held to: the same rounds, each
// one scan of the whole store in global subject order, applied as a single
// buffer — no partition, no merge.
func serialExpand(g *rdf.ShardedStore, cfg Config) *Result {
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
		frontier = res.applyRound([]roundBuf{scanRound(g.Triples, g, cfg, frontier, round)})
	}
	return res
}

// diamondKB builds a diamond-shaped subgraph: src reaches o through two
// different mediators via the same predicate path a→b. Before the dedupe
// fix, Expand emitted (src, a→b, o) twice and valid(k) double-counted it.
func diamondKB() (*rdf.ShardedStore, rdf.ID, rdf.ID) {
	s := rdf.NewShardedStore(1)
	src := s.Entity("source")
	m1 := s.Mediator("m1")
	m2 := s.Mediator("m2")
	o := s.Literal("shared value")
	a := s.Pred("a")
	b := s.Pred("b")
	s.Add(src, a, m1)
	s.Add(src, a, m2)
	s.Add(m1, b, o)
	s.Add(m2, b, o)
	return s, src, o
}

func TestExpandDiamondDedupe(t *testing.T) {
	s, src, o := diamondKB()
	res := Expand(s, Config{MaxLen: 2, Sources: []rdf.ID{src}, KeepAllLengths: true})
	objs := lookup(res, s, src, "a→b")
	if len(objs) != 1 || objs[0] != o {
		t.Fatalf("lookup(src, a→b) = %v, want exactly [%d]: diamond emitted duplicates", objs, o)
	}
	if res.ByLength[2] != 1 {
		t.Errorf("ByLength[2] = %d, want 1", res.ByLength[2])
	}
	// Cross-check against the store's online traversal, which always
	// deduplicated.
	path, _ := rdf.ParsePath(s, "a→b")
	online := rdf.PathObjects(nil, s, src, path)
	if len(online) != len(objs) || online[0] != objs[0] {
		t.Errorf("materialized expansion %v disagrees with PathObjects %v", objs, online)
	}
}

func TestValidKCountsDiamondOnce(t *testing.T) {
	s, src, _ := diamondKB()
	// With unconditional infobox support, valid(2) is the number of
	// distinct supported (s, p+, o) triples of length 2 — exactly one
	// here, however many mediator routes exist.
	always := func(rdf.ID, string) bool { return true }
	if got := ValidK(s, []rdf.ID{src}, 2, nil, always); got != 1 {
		t.Fatalf("ValidK = %d, want 1: diamond double-counted (Eq 29)", got)
	}
}

func TestKeepAllLengthsFalseEmitsOnlyComplete(t *testing.T) {
	s, src, _ := diamondKB()
	res := Expand(s, Config{MaxLen: 2, Sources: []rdf.ID{src}})
	if res.ByLength[1] != 0 {
		t.Errorf("ByLength[1] = %d, want 0 when KeepAllLengths is false", res.ByLength[1])
	}
	if res.ByLength[2] != 1 {
		t.Errorf("ByLength[2] = %d, want 1", res.ByLength[2])
	}
	for _, tr := range res.Triples {
		if len(tr.Path) != 2 {
			t.Fatalf("emitted incomplete-length path %v", tr.Path)
		}
	}
}

func TestExpandParallelMatchesSequential(t *testing.T) {
	kb := kbgen.Generate(kbgen.Config{Seed: 11, Flavor: kbgen.Freebase, Scale: 12})
	// Rebuild the store in canonical scan order, as every layout below is:
	// Repartition keeps node IDs, so all copies answer in the same IDs.
	flat := rdf.Repartition(kb.Store, 1)
	endFilter := func(p rdf.PID) bool {
		name := flat.PredName(p)
		return name == "name" || name == "alias"
	}
	for _, keep := range []bool{true, false} {
		cfg := Config{MaxLen: 3, EndFilter: endFilter, KeepAllLengths: keep}
		seq := serialExpand(flat, cfg)
		for _, shards := range []int{1, 2, 4, 7} {
			ss := rdf.Repartition(kb.Store, shards)
			par := Expand(ss, cfg)
			if par.Scans != seq.Scans || par.Scanned != seq.Scanned {
				t.Fatalf("shards=%d keep=%v: scan accounting diverges: scans %d/%d scanned %d/%d",
					shards, keep, par.Scans, seq.Scans, par.Scanned, seq.Scanned)
			}
			if len(par.Triples) != len(seq.Triples) {
				t.Fatalf("shards=%d keep=%v: %d triples, sequential %d",
					shards, keep, len(par.Triples), len(seq.Triples))
			}
			for i := range seq.Triples {
				a, b := seq.Triples[i], par.Triples[i]
				if a.S != b.S || a.O != b.O || rdf.Key(flat, a.Path) != rdf.Key(ss, b.Path) {
					t.Fatalf("shards=%d keep=%v: triple %d diverges: %v vs %v", shards, keep, i, a, b)
				}
			}
			for l, n := range seq.ByLength {
				if par.ByLength[l] != n {
					t.Fatalf("shards=%d keep=%v: ByLength[%d] = %d, want %d", shards, keep, l, par.ByLength[l], n)
				}
			}
		}
	}
}

func TestValidKSameAcrossLayouts(t *testing.T) {
	kb := kbgen.Generate(kbgen.Config{Seed: 3, Flavor: kbgen.DBpedia, Scale: 8, Shards: 4})
	if n := kb.Store.NumShards(); n != 4 {
		t.Fatalf("Shards config ignored: store has %d shards", n)
	}
	res := Expand(kb.Store, Config{MaxLen: 3, EndFilter: kb.EndFilter, KeepAllLengths: true})
	if len(res.Triples) == 0 {
		t.Fatal("Expand over sharded store produced nothing")
	}
	// valid(k) over the sharded layout matches the unsharded one.
	flat := kbgen.Generate(kbgen.Config{Seed: 3, Flavor: kbgen.DBpedia, Scale: 8})
	ib := infobox.Build(flat.Store, 1)
	top := TopEntitiesByFrequency(flat.Store, 50)
	for k := 1; k <= 3; k++ {
		a := ValidK(flat.Store, top, k, flat.EndFilter, ib.Has)
		b := ValidK(kb.Store, top, k, kb.EndFilter, ib.Has)
		if a != b {
			t.Fatalf("valid(%d) diverges across layouts: %d vs %d", k, a, b)
		}
	}
}
