package expand

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"repro/internal/infobox"
	"repro/internal/kbgen"
	"repro/internal/obs"
	"repro/internal/rdf"
)

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
	online := rdf.PathObjects(s, src, path)
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
	// Round-trip the store once so the sequential and sharded copies carry
	// identical node IDs (serialization re-assigns them in scan order).
	var buf bytes.Buffer
	if err := rdf.WriteNTriples(kb.Store, &buf); err != nil {
		t.Fatal(err)
	}
	flat, err := rdf.LoadNTriples(bytes.NewReader(buf.Bytes()), 1)
	if err != nil {
		t.Fatal(err)
	}
	endFilter := func(p rdf.PID) bool {
		name := flat.PredName(p)
		return name == "name" || name == "alias"
	}
	for _, keep := range []bool{true, false} {
		cfg := Config{MaxLen: 3, EndFilter: endFilter, KeepAllLengths: keep}
		seq := Expand(flat, cfg)
		for _, shards := range []int{1, 2, 4, 7} {
			// Load from the same byte stream as flat: parsing assigns IDs
			// in first-seen order, so equal inputs give equal IDs.
			ss, err := rdf.LoadNTriples(bytes.NewReader(buf.Bytes()), shards)
			if err != nil {
				t.Fatal(err)
			}
			par := ExpandParallel(context.Background(), ss, cfg)
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

func TestOverDispatches(t *testing.T) {
	kb := kbgen.Generate(kbgen.Config{Seed: 3, Flavor: kbgen.DBpedia, Scale: 8, Shards: 4})
	if _, ok := kb.Store.(*rdf.ShardedStore); !ok {
		t.Fatalf("Shards config ignored: store is %T", kb.Store)
	}
	res := Over(kb.Store, Config{MaxLen: 3, EndFilter: kb.EndFilter, KeepAllLengths: true})
	if len(res.Triples) == 0 {
		t.Fatal("Over over sharded store produced nothing")
	}
	// valid(k) over the sharded layout matches the unsharded one.
	flat := kbgen.Generate(kbgen.Config{Seed: 3, Flavor: kbgen.DBpedia, Scale: 8})
	ib := infobox.Build(flat.Store, infobox.Config{Seed: 1})
	top := TopEntitiesByFrequency(flat.Store, 50)
	for k := 1; k <= 3; k++ {
		a := ValidK(flat.Store, top, k, flat.EndFilter, ib.Has)
		b := ValidK(kb.Store, top, k, kb.EndFilter, ib.Has)
		if a != b {
			t.Fatalf("valid(%d) diverges across layouts: %d vs %d", k, a, b)
		}
	}
}

// TestExpandParallelSpans checks the trace shape of a traced parallel
// expansion: one expand.round span per scan round, each with one
// expand.scan child per shard, and per-shard scanned counts that sum to
// the result's Scanned total.
func TestExpandParallelSpans(t *testing.T) {
	kb := kbgen.Generate(kbgen.Config{Seed: 5, Flavor: kbgen.Freebase, Scale: 8, Shards: 4})
	ss, ok := kb.Store.(*rdf.ShardedStore)
	if !ok {
		t.Fatalf("store is %T, want sharded", kb.Store)
	}
	tracer := obs.NewTracer(obs.Options{SampleRate: 1})
	ctx, trace := tracer.Start(context.Background(), "expand")
	res := ExpandParallel(ctx, ss, Config{MaxLen: 3, EndFilter: kb.EndFilter, KeepAllLengths: true})
	trace.Finish()

	snaps := tracer.Snapshot()
	if len(snaps) != 1 {
		t.Fatalf("captured %d traces, want 1", len(snaps))
	}
	var rounds []obs.SpanSnapshot
	for _, c := range snaps[0].Root.Children {
		if c.Name == "expand.round" {
			rounds = append(rounds, c)
		}
	}
	if len(rounds) != res.Scans {
		t.Fatalf("%d expand.round spans, want %d (res.Scans)", len(rounds), res.Scans)
	}
	var scanned int64
	for _, r := range rounds {
		shards := map[string]bool{}
		for _, c := range r.Children {
			if c.Name != "expand.scan" {
				continue
			}
			id, ok := c.Attr("shard")
			if !ok || shards[id] {
				t.Fatalf("scan span missing or duplicate shard attr: %+v", c)
			}
			shards[id] = true
			n, _ := c.Attr("scanned")
			var v int64
			fmt.Sscan(n, &v)
			scanned += v
		}
		if len(shards) != ss.NumShards() {
			t.Fatalf("round has %d scan spans, want %d", len(shards), ss.NumShards())
		}
	}
	if scanned != int64(res.Scanned) {
		t.Fatalf("per-shard scanned sums to %d, result reports %d", scanned, res.Scanned)
	}
}

// TestExpandParallelUntracedIdentical pins that a trace in the context
// changes nothing about the result.
func TestExpandParallelUntracedIdentical(t *testing.T) {
	kb := kbgen.Generate(kbgen.Config{Seed: 5, Flavor: kbgen.Freebase, Scale: 8, Shards: 2})
	cfg := Config{MaxLen: 2, EndFilter: kb.EndFilter}
	a := ExpandParallel(context.Background(), kb.Store, cfg)
	ctx, trace := obs.NewTracer(obs.Options{SampleRate: 1}).Start(context.Background(), "expand")
	b := ExpandParallel(ctx, kb.Store, cfg)
	trace.Finish()
	if len(a.Triples) != len(b.Triples) || a.Scanned != b.Scanned || a.Scans != b.Scans {
		t.Fatalf("traced run diverged: %+v vs %+v", a, b)
	}
}
