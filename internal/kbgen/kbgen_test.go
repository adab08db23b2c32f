package kbgen

import (
	"testing"

	"repro/internal/qclass"
	"repro/internal/rdf"
)

func testKB(t testing.TB, f Flavor) *KB {
	t.Helper()
	return Generate(Config{Seed: 42, Flavor: f, Scale: 30})
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Config{Seed: 7, Flavor: Freebase, Scale: 20})
	b := Generate(Config{Seed: 7, Flavor: Freebase, Scale: 20})
	if a.Store.NumTriples() != b.Store.NumTriples() ||
		a.Store.NumNodes() != b.Store.NumNodes() ||
		a.Store.NumPredicates() != b.Store.NumPredicates() {
		t.Fatalf("same seed, different KBs: %d/%d vs %d/%d triples/nodes",
			a.Store.NumTriples(), a.Store.NumNodes(), b.Store.NumTriples(), b.Store.NumNodes())
	}
	c := Generate(Config{Seed: 8, Flavor: Freebase, Scale: 20})
	if a.Store.NumTriples() == c.Store.NumTriples() && a.Store.NumNodes() == c.Store.NumNodes() {
		t.Log("warning: different seeds produced identical sizes (possible but unlikely)")
	}
}

func TestFlavorSizes(t *testing.T) {
	kba := testKB(t, KBA)
	fb := testKB(t, Freebase)
	dbp := testKB(t, DBpedia)
	if !(kba.Store.NumTriples() > fb.Store.NumTriples() && fb.Store.NumTriples() > dbp.Store.NumTriples()) {
		t.Errorf("size ordering KBA > Freebase > DBpedia violated: %d, %d, %d",
			kba.Store.NumTriples(), fb.Store.NumTriples(), dbp.Store.NumTriples())
	}
	// DBpedia excludes the CVT-heavy Freebase domains.
	if len(dbp.ByCategory["game"]) != 0 || len(dbp.ByCategory["food"]) != 0 {
		t.Error("DBpedia flavor must exclude game and food")
	}
	if len(fb.ByCategory["game"]) == 0 {
		t.Error("Freebase flavor must include game")
	}
}

func TestIntentsPerFlavor(t *testing.T) {
	all := Intents(KBA)
	dbp := Intents(DBpedia)
	if len(dbp) >= len(all) {
		t.Errorf("DBpedia intents (%d) must be fewer than KBA's (%d)", len(dbp), len(all))
	}
	for _, it := range dbp {
		if it.Category == "game" || it.Category == "food" || it.Category == "organization" {
			t.Errorf("excluded category leaked into DBpedia intents: %+v", it)
		}
	}
}

func TestEveryIntentHasAskableSubjects(t *testing.T) {
	kb := testKB(t, Freebase)
	for _, it := range kb.Intents {
		subs := kb.SubjectsWithPath(it)
		if len(subs) == 0 {
			t.Errorf("intent %s/%s has no askable subjects", it.Category, it.PathKey)
		}
		for _, p := range it.Paraphrases {
			if !containsPlaceholder(p) {
				t.Errorf("paraphrase without $e: %q", p)
			}
		}
	}
}

func containsPlaceholder(p string) bool {
	for _, f := range splitFields(p) {
		if f == "$e" {
			return true
		}
	}
	return false
}

func TestExpandedPredicatesExist(t *testing.T) {
	kb := testKB(t, Freebase)
	s := kb.Store
	// Every Table 18 shape must be realized in the Freebase flavor.
	for _, key := range []string{
		"marriage→person→name",
		"group_member→member→name",
		"organization_members→member→alias",
		"nutrition_fact→nutrient→alias",
		"songs→musical_game_song→name",
	} {
		path, ok := rdf.ParsePath(s, key)
		if !ok {
			t.Errorf("path %s has unknown predicates", key)
			continue
		}
		found := false
		for _, cat := range categoryOrder {
			for _, e := range kb.ByCategory[cat] {
				if len(rdf.PathObjects(nil, s, e, path)) > 0 {
					found = true
					break
				}
			}
		}
		if !found {
			t.Errorf("no instance of expanded predicate %s", key)
		}
	}
}

func TestMarriageSymmetricButSelfFree(t *testing.T) {
	kb := testKB(t, Freebase)
	s := kb.Store
	path, _ := rdf.ParsePath(s, "marriage→person→name")
	married := 0
	for _, p := range kb.ByCategory["person"] {
		objs := rdf.PathObjects(nil, s, p, path)
		if len(objs) == 0 {
			continue
		}
		married++
		self := s.Label(p)
		for _, o := range objs {
			if s.Label(o) == self {
				t.Errorf("entity %q is its own spouse", self)
			}
		}
	}
	if married == 0 {
		t.Fatal("no married persons generated")
	}
}

func TestTaxonomyMultipleConcepts(t *testing.T) {
	kb := testKB(t, Freebase)
	multi := 0
	for _, e := range kb.ByCategory["person"] {
		cs := kb.Taxonomy.Concepts(kb.Store.Label(e))
		if len(cs) >= 2 {
			multi++
		}
	}
	if multi == 0 {
		t.Error("persons must have multiple concepts (person + persona)")
	}
}

func TestAmbiguousEntities(t *testing.T) {
	kb := testKB(t, Freebase)
	ents := kb.Store.EntitiesByLabel("paris")
	if len(ents) < 2 {
		t.Fatalf("ambiguous label paris has %d entities, want >=2", len(ents))
	}
	// The two senses must have different top concepts.
	cs := kb.Taxonomy.Concepts("paris")
	if len(cs) < 2 {
		t.Errorf("paris must carry at least two concepts, got %v", cs)
	}
}

func TestPredClassesAssigned(t *testing.T) {
	kb := testKB(t, Freebase)
	for _, p := range kb.Store.Predicates() {
		name := kb.Store.PredName(p)
		if _, ok := predClasses[name]; !ok {
			t.Errorf("predicate %q generated without a class label", name)
		}
	}
	pop, ok := kb.Store.PredID("population")
	if !ok || kb.ClassOf(pop) != qclass.Num {
		t.Error("population class must be NUM")
	}
}

func TestEndFilter(t *testing.T) {
	kb := testKB(t, Freebase)
	name, _ := kb.Store.PredID("name")
	alias, _ := kb.Store.PredID("alias")
	pop, _ := kb.Store.PredID("population")
	if !kb.EndFilter(name) || !kb.EndFilter(alias) {
		t.Error("name/alias must pass the end filter")
	}
	if kb.EndFilter(pop) {
		t.Error("population must not pass the end filter")
	}
}

func TestEveryEntityHasNameFact(t *testing.T) {
	kb := testKB(t, Freebase)
	name, _ := kb.Store.PredID("name")
	for cat, ents := range kb.ByCategory {
		for _, e := range ents {
			if len(kb.Store.Objects(e, name)) == 0 {
				t.Fatalf("%s entity %q lacks a name fact", cat, kb.Store.Label(e))
			}
		}
	}
}

func TestContextEvidenceDisambiguates(t *testing.T) {
	kb := testKB(t, Freebase)
	// "paris" is both a city and a person. In the context of a population
	// question the city sense must win; in a birthday question the person
	// sense must win.
	cityCtx := []string{"how", "many", "people", "are", "there", "in"}
	if got := kb.Taxonomy.Best("paris", cityCtx); got != "city" {
		t.Errorf("Best(paris | population ctx) = %q, want city", got)
	}
	humCtx := []string{"when", "was", "born"}
	if got := kb.Taxonomy.Best("paris", humCtx); got != "person" {
		t.Errorf("Best(paris | born ctx) = %q, want person", got)
	}
}

func TestValuesPerEntityPredicateMultiplicity(t *testing.T) {
	// Bands have several members: V(e, group_member→member→name) must have
	// cardinality > 1 for at least one band (Table 6's #values statistic).
	kb := testKB(t, Freebase)
	path, _ := rdf.ParsePath(kb.Store, "group_member→member→name")
	multi := false
	for _, b := range kb.ByCategory["band"] {
		if len(rdf.PathObjects(nil, kb.Store, b, path)) > 1 {
			multi = true
			break
		}
	}
	if !multi {
		t.Error("no band with multiple member names")
	}
}

func TestMediatorsAreOpaque(t *testing.T) {
	kb := testKB(t, Freebase)
	s := kb.Store
	for _, id := range s.Entities() {
		if s.KindOf(id) == rdf.KindMediator {
			t.Error("Entities() returned a mediator")
		}
	}
}
