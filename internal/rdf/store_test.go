package rdf

import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"
)

// buildToyKB reproduces Figure 1 of the paper: Barack Obama (a), a marriage
// mediator (b), Michelle Obama (c), Honolulu (d).
func buildToyKB(t testing.TB) (*ShardedStore, map[string]ID) {
	t.Helper()
	s := NewShardedStore(3)
	a := s.Entity("Barack Obama")
	b := s.Mediator("m:marriage1")
	c := s.Entity("Michelle Obama")
	d := s.Entity("Honolulu")

	name := s.Pred("name")
	marriage := s.Pred("marriage")
	person := s.Pred("person")
	dob := s.Pred("dob")
	pob := s.Pred("pob")
	population := s.Pred("population")
	category := s.Pred("category")
	date := s.Pred("date")

	s.Add(a, dob, s.Literal("1961"))
	s.Add(a, pob, d)
	s.Add(a, marriage, b)
	s.Add(b, person, c)
	s.Add(b, date, s.Literal("1992"))
	s.Add(c, name, s.Literal("Michelle Obama"))
	s.Add(c, dob, s.Literal("1964"))
	s.Add(d, population, s.Literal("390K"))
	s.Add(a, category, s.Literal("person"))
	s.Add(a, category, s.Literal("politician"))
	s.Add(d, category, s.Literal("city"))

	return s, map[string]ID{"a": a, "b": b, "c": c, "d": d}
}

func TestEntityInterning(t *testing.T) {
	s := NewShardedStore(3)
	a := s.Entity("Barack Obama")
	b := s.Entity("barack obama") // normalized identical
	if a != b {
		t.Errorf("Entity not interned by normalized label: %d vs %d", a, b)
	}
	c := s.NewAmbiguousEntity("Barack Obama")
	if c == a {
		t.Error("NewAmbiguousEntity must create a fresh node")
	}
	ents := s.EntitiesByLabel("Barack Obama")
	if len(ents) != 2 {
		t.Errorf("expected 2 ambiguous entities, got %d", len(ents))
	}
}

func TestLiteralInterning(t *testing.T) {
	s := NewShardedStore(3)
	l1 := s.Literal("1961")
	l2 := s.Literal("1961")
	if l1 != l2 {
		t.Error("literals must be interned")
	}
	if s.KindOf(l1) != KindLiteral {
		t.Error("wrong kind for literal")
	}
}

func TestAddDeduplicates(t *testing.T) {
	s := NewShardedStore(3)
	a := s.Entity("x")
	p := s.Pred("p")
	o := s.Literal("1")
	s.Add(a, p, o)
	s.Add(a, p, o)
	if s.NumTriples() != 1 {
		t.Errorf("duplicate triple counted: %d", s.NumTriples())
	}
	if len(s.Objects(a, p)) != 1 {
		t.Error("duplicate object stored")
	}
}

func TestObjectsSubjectsPredicatesBetween(t *testing.T) {
	s, ids := buildToyKB(t)
	dob, _ := s.PredID("dob")
	objs := s.Objects(ids["a"], dob)
	if len(objs) != 1 || s.Label(objs[0]) != "1961" {
		t.Fatalf("V(a, dob) = %v", objs)
	}
	subs := s.Subjects(dob, s.Literal("1961"))
	if len(subs) != 1 || subs[0] != ids["a"] {
		t.Fatalf("Subjects(dob, 1961) = %v", subs)
	}
	preds := s.PredicatesBetween(ids["a"], s.Literal("1961"))
	if len(preds) != 1 || s.PredName(preds[0]) != "dob" {
		t.Fatalf("PredicatesBetween = %v", preds)
	}
	if got := s.PredicatesBetween(ids["a"], s.Literal("1964")); got != nil {
		t.Fatalf("expected no direct predicate a->1964, got %v", got)
	}
}

func TestPathObjects(t *testing.T) {
	s, ids := buildToyKB(t)
	path, ok := ParsePath(s, "marriage→person→name")
	if !ok {
		t.Fatal("ParsePath failed")
	}
	objs := PathObjects(s, ids["a"], path)
	if len(objs) != 1 || s.Label(objs[0]) != "Michelle Obama" {
		t.Fatalf("PathObjects(a, marriage→person→name) = %v", objs)
	}
	if got := PathObjects(s, ids["d"], path); got != nil {
		t.Fatalf("Honolulu has no marriage path, got %v", got)
	}
	// Key round-trips.
	if key := Key(s, path); key != "marriage→person→name" {
		t.Errorf("Key = %q", key)
	}
	if _, ok := ParsePath(s, "marriage→nosuch"); ok {
		t.Error("ParsePath accepted unknown predicate")
	}
}

func TestPathsBetween(t *testing.T) {
	s, ids := buildToyKB(t)
	name, _ := s.PredID("name")
	michelle := s.Literal("Michelle Obama")
	endName := func(p PID) bool { return p == name }

	paths := PathsBetween(s, ids["a"], michelle, 3, endName)
	if len(paths) != 1 || Key(s, paths[0]) != "marriage→person→name" {
		t.Fatalf("PathsBetween = %v", renderPaths(s, paths))
	}
	// The dob literal of Michelle is reachable via marriage→person→dob, but
	// the end filter must reject it.
	d1964 := s.Literal("1964")
	paths = PathsBetween(s, ids["a"], d1964, 3, endName)
	if len(paths) != 0 {
		t.Fatalf("end filter violated: %v", renderPaths(s, paths))
	}
	// Without a filter it is found.
	paths = PathsBetween(s, ids["a"], d1964, 3, nil)
	if len(paths) != 1 || Key(s, paths[0]) != "marriage→person→dob" {
		t.Fatalf("unfiltered PathsBetween = %v", renderPaths(s, paths))
	}
	// Length bound respected.
	if got := PathsBetween(s, ids["a"], michelle, 2, endName); len(got) != 0 {
		t.Fatalf("maxLen=2 must not reach length-3 path, got %v", renderPaths(s, got))
	}
}

func TestPathsBetweenEndFilter(t *testing.T) {
	// a -pob-> d(entity) -population-> 390K is reachable, but pob→population
	// is exactly the kind of meaningless chain the end-with-name rule of
	// Sec 6.3 rejects.
	s, ids := buildToyKB(t)
	v := s.Literal("390K")
	paths := PathsBetween(s, ids["a"], v, 3, nil)
	if len(paths) != 1 || Key(s, paths[0]) != "pob→population" {
		t.Fatalf("unfiltered = %v, want [pob→population]", renderPaths(s, paths))
	}
	name, _ := s.PredID("name")
	paths = PathsBetween(s, ids["a"], v, 3, func(p PID) bool { return p == name })
	if len(paths) != 0 {
		t.Fatalf("end filter failed to reject pob→population: %v", renderPaths(s, paths))
	}
}

func TestOutDegreeAndStats(t *testing.T) {
	s, ids := buildToyKB(t)
	if got := OutDegree(s, ids["a"]); got != 5 {
		t.Errorf("OutDegree(a) = %d, want 5", got)
	}
	if s.NumTriples() != 11 {
		t.Errorf("NumTriples = %d, want 11", s.NumTriples())
	}
	if s.NumPredicates() != 8 {
		t.Errorf("NumPredicates = %d, want 8", s.NumPredicates())
	}
	if len(s.Entities()) != 3 {
		t.Errorf("Entities = %d, want 3", len(s.Entities()))
	}
}

func TestOutEdgesDeterministic(t *testing.T) {
	s, ids := buildToyKB(t)
	collect := func() []string {
		var out []string
		s.OutEdges(ids["a"], func(p PID, o ID) {
			out = append(out, fmt.Sprintf("%s->%s", s.PredName(p), s.Label(o)))
		})
		return out
	}
	first := collect()
	for i := 0; i < 10; i++ {
		if got := collect(); !reflect.DeepEqual(got, first) {
			t.Fatalf("OutEdges order unstable: %v vs %v", got, first)
		}
	}
}

// TestIndexCoherence is the property test for the three indexes: any triple
// inserted is visible through all access paths, and the indexes agree.
func TestIndexCoherence(t *testing.T) {
	f := func(edges []struct{ S, P, O uint8 }) bool {
		s := NewShardedStore(3)
		subs := make([]ID, 8)
		for i := range subs {
			subs[i] = s.Entity(fmt.Sprintf("e%d", i))
		}
		var preds [4]PID
		for i := range preds {
			preds[i] = s.Pred(fmt.Sprintf("p%d", i))
		}
		lits := make([]ID, 8)
		for i := range lits {
			lits[i] = s.Literal(fmt.Sprintf("v%d", i))
		}
		for _, e := range edges {
			s.Add(subs[e.S%8], preds[e.P%4], lits[e.O%8])
		}
		for _, e := range edges {
			sub, p, o := subs[e.S%8], preds[e.P%4], lits[e.O%8]
			if !contains(s.Objects(sub, p), o) {
				return false
			}
			if !contains(s.Subjects(p, o), sub) {
				return false
			}
			found := false
			for _, pp := range s.PredicatesBetween(sub, o) {
				if pp == p {
					found = true
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func contains(ids []ID, want ID) bool {
	for _, id := range ids {
		if id == want {
			return true
		}
	}
	return false
}

func renderPaths(s *ShardedStore, paths []Path) []string {
	out := make([]string, len(paths))
	for i, p := range paths {
		out[i] = Key(s, p)
	}
	return out
}

func TestAddFact(t *testing.T) {
	s := NewShardedStore(3)
	s.Add(s.Entity("Honolulu"), s.Pred("population"), s.Literal("390K"))
	e := s.Entity("Honolulu")
	p, _ := s.PredID("population")
	objs := s.Objects(e, p)
	if len(objs) != 1 || s.Label(objs[0]) != "390K" {
		t.Fatalf("Add lookup = %v", objs)
	}
}
