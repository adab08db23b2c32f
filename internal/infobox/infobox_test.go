package infobox

import (
	"math/rand"
	"testing"

	"repro/internal/kbgen"
	"repro/internal/rdf"
)

func toyKB() (*rdf.Store, rdf.ID, rdf.ID) {
	s := rdf.NewStore()
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

// seedKeeping returns a seed under which the toy KB's one literal fact
// (dob), the only fact Build samples, is kept or dropped as asked.
func seedKeeping(t *testing.T, keep bool) int64 {
	t.Helper()
	for seed := int64(1); seed < 100; seed++ {
		if rand.New(rand.NewSource(seed)).Float64() < literalKeepRate == keep {
			return seed
		}
	}
	t.Fatalf("no seed below 100 keeps=%v the literal", keep)
	return 0
}

func TestBuildEntityValued(t *testing.T) {
	s, a, _ := toyKB()
	ib := Build(s, seedKeeping(t, true))
	// Direct entity-valued fact: pob -> Honolulu listed by name.
	if !ib.Has(a, "Honolulu") {
		t.Error("pob value missing from infobox")
	}
	// Literal fact under a seed that keeps it.
	if !ib.Has(a, "1961") {
		t.Error("dob value missing under a keeping seed")
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
	// A seed that drops the literal; entity values must remain.
	ib := Build(s, seedKeeping(t, false))
	if ib.Has(a, "1961") {
		t.Error("literal kept under a dropping seed")
	}
	if !ib.Has(a, "Honolulu") {
		t.Error("entity value must not depend on keep rate")
	}
}

func TestBuildDeterministic(t *testing.T) {
	kb := kbgen.Generate(kbgen.Config{Seed: 3, Flavor: kbgen.DBpedia, Scale: 10})
	a := Build(kb.Store, 5)
	b := Build(kb.Store, 5)
	if len(a.pairs) != len(b.pairs) {
		t.Fatalf("nondeterministic infobox: %d vs %d", len(a.pairs), len(b.pairs))
	}
	c := Build(kb.Store, 6)
	if len(c.pairs) == 0 {
		t.Fatal("empty infobox")
	}
}

func TestSkipPreds(t *testing.T) {
	s, a, _ := toyKB()
	ib := Build(s, seedKeeping(t, true))
	// name facts themselves are bookkeeping, not infobox rows.
	if ib.Has(a, "Barack Obama") {
		t.Error("subject's own name listed as a fact")
	}
}
