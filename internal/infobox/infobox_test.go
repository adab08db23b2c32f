package infobox

import (
	"testing"

	"repro/internal/kbgen"
	"repro/internal/rdf"
)

func toyKB() (*rdf.ShardedStore, rdf.ID, rdf.ID) {
	s := rdf.NewShardedStore(1)
	a := s.Entity("Barack Obama")
	b := s.Mediator("m1")
	c := s.Entity("Michelle Obama")
	d := s.Entity("Honolulu")
	s.Add(a, s.Pred("name"), s.Literal("Barack Obama"))
	s.Add(c, s.Pred("name"), s.Literal("Michelle Obama"))
	s.Add(c, s.Pred("alias"), s.Literal("m. obama"))
	s.Add(d, s.Pred("name"), s.Literal("Honolulu"))
	s.Add(a, s.Pred("dob"), s.Literal("1961"))
	s.Add(a, s.Pred("pob"), d)
	s.Add(a, s.Pred("marriage"), b)
	s.Add(b, s.Pred("person"), c)
	s.Add(b, s.Pred("date"), s.Literal("1992"))
	return s, a, d
}

func TestBuildEntityValued(t *testing.T) {
	s, a, _ := toyKB()
	ib := Build(s, Config{Seed: 1, LiteralKeepRate: 1})
	// Direct entity-valued fact: pob -> Honolulu listed by name.
	if !ib.Has(a, "Honolulu") {
		t.Error("pob value missing from infobox")
	}
	// Literal fact with keep rate 1.
	if !ib.Has(a, "1961") {
		t.Error("dob value missing at keep rate 1")
	}
	// CVT value: spouse by primary name, not alias.
	if !ib.Has(a, "Michelle Obama") {
		t.Error("spouse missing from infobox")
	}
	if ib.Has(a, "m. obama") {
		t.Error("CVT value listed by alias; infoboxes use the primary name")
	}
	// Mediator internals are not meaningful pairs.
	if ib.Has(a, "1992") {
		t.Error("marriage date leaked into subject's infobox")
	}
}

func TestLiteralKeepRateZeroish(t *testing.T) {
	s, a, _ := toyKB()
	// Rate so small that literals are (almost surely) dropped; entity
	// values must remain.
	ib := Build(s, Config{Seed: 1, LiteralKeepRate: 1e-12})
	if ib.Has(a, "1961") {
		t.Error("literal kept at ~0 keep rate")
	}
	if !ib.Has(a, "Honolulu") {
		t.Error("entity value must not depend on keep rate")
	}
}

func TestBuildDeterministic(t *testing.T) {
	kb := kbgen.Generate(kbgen.Config{Seed: 3, Flavor: kbgen.DBpedia, Scale: 10})
	a := Build(kb.Store, Config{Seed: 5})
	b := Build(kb.Store, Config{Seed: 5})
	if a.Len() != b.Len() {
		t.Fatalf("nondeterministic infobox: %d vs %d", a.Len(), b.Len())
	}
	c := Build(kb.Store, Config{Seed: 6})
	if c.Len() == 0 {
		t.Fatal("empty infobox")
	}
}

func TestSkipPreds(t *testing.T) {
	s, a, _ := toyKB()
	ib := Build(s, Config{Seed: 1, LiteralKeepRate: 1})
	// name facts themselves are bookkeeping, not infobox rows.
	if ib.Has(a, "Barack Obama") {
		t.Error("subject's own name listed as a fact")
	}
}
