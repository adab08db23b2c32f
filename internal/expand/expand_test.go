package expand

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"reflect"
	"testing"

	"repro/internal/infobox"
	"repro/internal/kbgen"
	"repro/internal/rdf"
)

// figure1 builds the paper's toy KB.
func figure1() (*rdf.Store, rdf.ID, rdf.PID) {
	s := rdf.NewStore()
	a := s.Entity("Barack Obama")
	b := s.Mediator("m1")
	c := s.Entity("Michelle Obama")
	d := s.Entity("Honolulu")
	name := s.Pred("name")
	s.Add(a, s.Pred("dob"), s.Literal("1961"))
	s.Add(a, s.Pred("pob"), d)
	s.Add(a, s.Pred("marriage"), b)
	s.Add(b, s.Pred("person"), c)
	s.Add(b, s.Pred("date"), s.Literal("1992"))
	s.Add(c, name, s.Literal("Michelle Obama"))
	s.Add(c, s.Pred("dob"), s.Literal("1964"))
	s.Add(d, s.Pred("population"), s.Literal("390K"))
	return s, a, name
}

// lookup lists the objects the materialized result set reaches from subj
// through path, for cross-checks against the store's online traversal.
func lookup(r *Result, g rdf.Graph, subj rdf.ID, pathKey string) []rdf.ID {
	var out []rdf.ID
	for _, t := range r.Triples {
		if t.S == subj && rdf.Key(g, t.Path) == pathKey {
			out = append(out, t.O)
		}
	}
	return out
}

func TestExpandToyKB(t *testing.T) {
	s, a, name := figure1()
	res := Expand(s, Config{
		MaxLen:         3,
		Sources:        []rdf.ID{a},
		EndFilter:      func(p rdf.PID) bool { return p == name },
		KeepAllLengths: true,
	})
	if res.Scans != 3 {
		t.Errorf("Scans = %d, want 3", res.Scans)
	}
	// Length 1: dob, pob, marriage — all direct edges of a.
	if res.ByLength[1] != 3 {
		t.Errorf("ByLength[1] = %d, want 3", res.ByLength[1])
	}
	// Length 3 must include marriage→person→name -> Michelle Obama and
	// nothing ending in dob/date.
	objs := lookup(res, s, a, "marriage→person→name")
	if len(objs) != 1 || s.Label(objs[0]) != "Michelle Obama" {
		t.Fatalf("marriage→person→name lookup = %v", objs)
	}
	if got := lookup(res, s, a, "marriage→person→dob"); len(got) != 0 {
		t.Error("end filter violated: marriage→person→dob emitted")
	}
	// Expansion agrees with the store's online traversal.
	path, _ := rdf.ParsePath(s, "marriage→person→name")
	online := rdf.PathObjects(nil, s, a, path)
	if len(online) != 1 || online[0] != objs[0] {
		t.Error("materialized expansion disagrees with online traversal")
	}
}

func TestExpandReductionOnS(t *testing.T) {
	s, a, name := figure1()
	all := Expand(s, Config{MaxLen: 3, EndFilter: func(p rdf.PID) bool { return p == name }, KeepAllLengths: true})
	one := Expand(s, Config{MaxLen: 3, Sources: []rdf.ID{a}, EndFilter: func(p rdf.PID) bool { return p == name }, KeepAllLengths: true})
	if len(one.Triples) >= len(all.Triples) {
		t.Errorf("reduction on s did not reduce: %d vs %d", len(one.Triples), len(all.Triples))
	}
	// Every triple of the reduced run must appear in the full run.
	type k struct {
		s, o rdf.ID
		p    string
	}
	set := make(map[k]bool)
	for _, tr := range all.Triples {
		set[k{tr.S, tr.O, rdf.Key(s, tr.Path)}] = true
	}
	for _, tr := range one.Triples {
		if !set[k{tr.S, tr.O, rdf.Key(s, tr.Path)}] {
			t.Fatalf("reduced run emitted triple absent from full run: %v", tr)
		}
	}
}

func TestExpandDeterministic(t *testing.T) {
	s, a, name := figure1()
	cfg := Config{MaxLen: 3, Sources: []rdf.ID{a}, EndFilter: func(p rdf.PID) bool { return p == name }, KeepAllLengths: true}
	r1 := Expand(s, cfg)
	r2 := Expand(s, cfg)
	if len(r1.Triples) != len(r2.Triples) {
		t.Fatal("nondeterministic triple count")
	}
	for i := range r1.Triples {
		if r1.Triples[i].S != r2.Triples[i].S || r1.Triples[i].O != r2.Triples[i].O ||
			rdf.Key(s, r1.Triples[i].Path) != rdf.Key(s, r2.Triples[i].Path) {
			t.Fatal("nondeterministic order")
		}
	}
}

func TestExpandAgainstPathsBetween(t *testing.T) {
	// Cross-validation on a generated KB: every expanded triple must be
	// confirmed by PathsBetween, and vice versa for sampled pairs.
	kb := kbgen.Generate(kbgen.Config{Seed: 11, Flavor: kbgen.DBpedia, Scale: 10})
	s := kb.Store
	ents := s.Entities()[:20]
	res := Expand(s, Config{MaxLen: 3, Sources: ents, EndFilter: kb.EndFilter, KeepAllLengths: true})
	checked := 0
	for _, tr := range res.Triples {
		if len(tr.Path) < 2 || checked > 200 {
			continue
		}
		checked++
		paths := rdf.PathsBetween(s, tr.S, tr.O, 3, kb.EndFilter)
		found := false
		for _, p := range paths {
			if rdf.Key(s, p) == rdf.Key(s, tr.Path) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("expanded triple not confirmed by PathsBetween: %s -%s-> %s",
				s.Label(tr.S), rdf.Key(s, tr.Path), s.Label(tr.O))
		}
	}
	if checked == 0 {
		t.Fatal("no multi-edge triples to check")
	}
}

func TestDistinctPaths(t *testing.T) {
	kb := kbgen.Generate(kbgen.Config{Seed: 11, Flavor: kbgen.Freebase, Scale: 10})
	res := Expand(kb.Store, Config{MaxLen: 3, EndFilter: kb.EndFilter, KeepAllLengths: true})
	multi := res.DistinctPaths(kb.Store, 3)
	want := map[string]bool{
		"marriage→person→name":              false,
		"group_member→member→name":          false,
		"organization_members→member→alias": false,
		"nutrition_fact→nutrient→alias":     false,
		"songs→musical_game_song→name":      false,
	}
	for _, p := range multi {
		if _, ok := want[p]; ok {
			want[p] = true
		}
	}
	for p, seen := range want {
		if !seen {
			t.Errorf("expanded predicate %s not discovered", p)
		}
	}
	if len(res.DistinctPaths(kb.Store, 1)) == 0 {
		t.Error("no direct predicates found")
	}
}

func TestValidKShape(t *testing.T) {
	// Table 4's shape: valid(2) >= valid(1) (or at least comparable) and
	// valid(3) collapses to a small fraction of valid(2).
	kb := kbgen.Generate(kbgen.Config{Seed: 42, Flavor: kbgen.KBA, Scale: 30})
	ib := infobox.Build(kb.Store, 1)
	top := TopEntitiesByFrequency(kb.Store, 170)
	v1 := ValidK(kb.Store, top, 1, kb.EndFilter, ib.Has)
	v2 := ValidK(kb.Store, top, 2, kb.EndFilter, ib.Has)
	v3 := ValidK(kb.Store, top, 3, kb.EndFilter, ib.Has)
	if v1 == 0 || v2 == 0 {
		t.Fatalf("degenerate valid(k): v1=%d v2=%d v3=%d", v1, v2, v3)
	}
	if float64(v2) < 0.5*float64(v1) {
		t.Errorf("valid(2)=%d collapsed vs valid(1)=%d; want comparable or higher", v2, v1)
	}
	if float64(v3) > 0.5*float64(v2) {
		t.Errorf("valid(3)=%d did not collapse vs valid(2)=%d", v3, v2)
	}
}

func TestTopEntitiesByFrequency(t *testing.T) {
	kb := kbgen.Generate(kbgen.Config{Seed: 42, Flavor: kbgen.DBpedia, Scale: 10})
	top := TopEntitiesByFrequency(kb.Store, 5)
	if len(top) != 5 {
		t.Fatalf("got %d entities", len(top))
	}
	for i := 1; i < len(top); i++ {
		if rdf.OutDegree(kb.Store, top[i-1]) < rdf.OutDegree(kb.Store, top[i]) {
			t.Fatal("not sorted by out-degree")
		}
	}
	// Requesting more than exist degrades gracefully.
	all := TopEntitiesByFrequency(kb.Store, 1<<30)
	if len(all) != len(kb.Store.Entities()) {
		t.Error("overflow request mishandled")
	}
}

func TestExpandScannedAccounting(t *testing.T) {
	s, a, _ := figure1()
	res := Expand(s, Config{MaxLen: 2, Sources: []rdf.ID{a}, KeepAllLengths: true})
	if res.Scanned != 2*s.NumTriples() {
		t.Errorf("Scanned = %d, want %d (2 scans of %d triples)", res.Scanned, 2*s.NumTriples(), s.NumTriples())
	}
}

// diamondKB builds a diamond-shaped subgraph: src reaches o through two
// different mediators via the same predicate path a→b. Before the dedupe
// fix, Expand emitted (src, a→b, o) twice and valid(k) double-counted it.
func diamondKB() (*rdf.Store, rdf.ID, rdf.ID) {
	s := rdf.NewStore()
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

// TestExpandPinned pins what Expand returns for the default world of every
// flavor — the count, the scan accounting, the per-length counts and a
// SHA-256 of the triple sequence (S, path length, path, O as u32 LE each) —
// so a change to the scan order or the dedupe shows as a changed digest.
func TestExpandPinned(t *testing.T) {
	for _, c := range []struct {
		flavor           kbgen.Flavor
		triples, scanned int
		byLength         map[int]int
		sha256           string
	}{
		{kbgen.KBA, 6004, 8940, map[int]int{1: 2660, 2: 944, 3: 2400}, "03a4516f8ba1ecd147909c03db5430e6586b30205ec164cd582f6142da6600b2"},
		{kbgen.Freebase, 4103, 6072, map[int]int{1: 1815, 2: 646, 3: 1642}, "02fbcaac9ed4d05b15b2f3accecaac82a1828c7bf08b9e7457f5ba7d43f4864c"},
		{kbgen.DBpedia, 2319, 3255, map[int]int{1: 998, 2: 393, 3: 928}, "42c6a0da8a987d352e21b3d314ef232c1d562bf38016564660183438d992decc"},
	} {
		kb := kbgen.Generate(kbgen.Config{Seed: 42, Flavor: c.flavor})
		res := Expand(kb.Store, Config{MaxLen: 3, EndFilter: kb.EndFilter, KeepAllLengths: true})
		h := sha256.New()
		var b []byte
		for _, tr := range res.Triples {
			b = binary.LittleEndian.AppendUint32(b[:0], uint32(tr.S))
			b = binary.LittleEndian.AppendUint32(b, uint32(len(tr.Path)))
			for _, p := range tr.Path {
				b = binary.LittleEndian.AppendUint32(b, uint32(p))
			}
			h.Write(binary.LittleEndian.AppendUint32(b, uint32(tr.O)))
		}
		if len(res.Triples) != c.triples || res.Scanned != c.scanned || !reflect.DeepEqual(res.ByLength, c.byLength) {
			t.Errorf("%v: %d triples, %d scanned, by length %v; want %d, %d, %v",
				c.flavor, len(res.Triples), res.Scanned, res.ByLength, c.triples, c.scanned, c.byLength)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != c.sha256 {
			t.Errorf("%v: triple sequence SHA-256 %s, want %s", c.flavor, got, c.sha256)
		}
	}
}
