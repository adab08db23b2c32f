package extract

import (
	"reflect"
	"testing"

	"repro/internal/qclass"
	"repro/internal/rdf"
	"repro/internal/text"
)

// figure1KB rebuilds the paper's toy KB with predicate classes.
func figure1KB() (*rdf.ShardedStore, *Extractor) {
	s := rdf.NewShardedStore(1)
	a := s.Entity("Barack Obama")
	b := s.Mediator("m:marriage1")
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
	s.Add(a, s.Pred("category"), s.Literal("politician"))

	classes := map[string]qclass.Class{
		"dob":        qclass.Num,
		"date":       qclass.Num,
		"population": qclass.Num,
		"name":       qclass.Hum,
		"person":     qclass.Hum,
		"pob":        qclass.Loc,
		"category":   qclass.Enty,
		"marriage":   qclass.Enty,
	}
	x := &Extractor{
		KB:         s,
		Lexicon:    NewLexicon(s),
		MaxPathLen: 3,
		EndFilter:  func(p rdf.PID) bool { return p == name },
		PredClass: func(p rdf.PID) qclass.Class {
			return classes[s.PredName(p)]
		},
	}
	return s, x
}

func TestFindMentions(t *testing.T) {
	s, _ := figure1KB()
	toks := text.Tokenize("When was Barack Obama born?")
	ms := NewLexicon(s).Find(toks)
	if len(ms) != 1 || ms[0].Surface != "barack obama" {
		t.Fatalf("mentions = %+v", ms)
	}
	if ms[0].Span != (text.Span{Start: 2, End: 4}) {
		t.Errorf("span = %v", ms[0].Span)
	}
}

func TestFindMentionsLongestMatch(t *testing.T) {
	s := rdf.NewShardedStore(1)
	s.Entity("new york")
	s.Entity("new york city")
	toks := text.Tokenize("how big is new york city")
	ms := NewLexicon(s).Find(toks)
	if len(ms) != 1 || ms[0].Surface != "new york city" {
		t.Fatalf("longest match failed: %+v", ms)
	}
}

func TestFindMentionsAmbiguous(t *testing.T) {
	s := rdf.NewShardedStore(1)
	s.NewAmbiguousEntity("springfield")
	s.NewAmbiguousEntity("springfield")
	ms := NewLexicon(s).Find(text.Tokenize("population of springfield"))
	if len(ms) != 1 || len(ms[0].Entities) != 2 {
		t.Fatalf("ambiguity lost: %+v", ms)
	}
}

func TestFindMentionsStopword(t *testing.T) {
	s := rdf.NewShardedStore(1)
	s.Entity("the") // a perverse entity named "the"
	ms := NewLexicon(s).Find(text.Tokenize("the population"))
	if len(ms) != 0 {
		t.Fatalf("stopword matched as entity: %+v", ms)
	}
}

func TestNoisyCapNER(t *testing.T) {
	got := NoisyCapNER("When was Barack Obama born?")
	want := []string{"barack obama"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("NoisyCapNER = %v, want %v", got, want)
	}
	// Misses sentence-initial entities.
	if got := NoisyCapNER("Honolulu has how many people?"); len(got) != 0 {
		t.Errorf("sentence-initial should be missed, got %v", got)
	}
	// Misses lowercase mentions.
	if got := NoisyCapNER("when was barack obama born"); len(got) != 0 {
		t.Errorf("lowercase should be missed, got %v", got)
	}
	// Picks up spurious capitalized tokens.
	got = NoisyCapNER("what is The Answer to Life")
	if len(got) == 0 {
		t.Error("expected spurious matches from capitalization")
	}
}

// TestEntityValuesExample2 reproduces Example 2: from (q1, a1) of Table 3 we
// must extract (Barack Obama, 1961) and must NOT keep the noise value
// "politician" after refinement.
func TestEntityValuesExample2(t *testing.T) {
	s, x := figure1KB()
	pairs := x.EntityValues(
		"When was Barack Obama born?",
		"The politician was born in 1961.",
	)
	if len(pairs) != 1 {
		t.Fatalf("pairs = %d (%v), want exactly 1", len(pairs), render(s, pairs))
	}
	p := pairs[0]
	if s.Label(p.Entity) != "Barack Obama" || s.Label(p.Value) != "1961" {
		t.Errorf("pair = %s -> %s", s.Label(p.Entity), s.Label(p.Value))
	}
	if len(p.Paths) != 1 || rdf.Key(s, p.Paths[0]) != "dob" {
		t.Errorf("paths = %v", render(s, pairs))
	}
}

func TestEntityValuesWithoutRefinementKeepsNoise(t *testing.T) {
	s, x := figure1KB()
	x.DisableRefinement = true
	pairs := x.EntityValues(
		"When was Barack Obama born?",
		"The politician was born in 1961.",
	)
	if len(pairs) != 2 {
		t.Fatalf("unrefined pairs = %v, want politician noise kept", render(s, pairs))
	}
}

func TestEntityValuesExpandedPredicate(t *testing.T) {
	s, x := figure1KB()
	pairs := x.EntityValues(
		"Who is the wife of Barack Obama?",
		"His wife is Michelle Obama.",
	)
	if len(pairs) != 1 {
		t.Fatalf("pairs = %v", render(s, pairs))
	}
	if rdf.Key(s, pairs[0].Paths[0]) != "marriage→person→name" {
		t.Errorf("path = %v", render(s, pairs))
	}
}

func TestEntityValuesDirectOnlyWhenMaxLen1(t *testing.T) {
	s, x := figure1KB()
	x.MaxPathLen = 1
	pairs := x.EntityValues(
		"Who is the wife of Barack Obama?",
		"His wife is Michelle Obama.",
	)
	if len(pairs) != 0 {
		t.Fatalf("expanded pair found at maxLen=1: %v", render(s, pairs))
	}
}

func TestEntityValuesNoEntities(t *testing.T) {
	_, x := figure1KB()
	if pairs := x.EntityValues("what is love", "baby don't hurt me"); pairs != nil {
		t.Errorf("pairs = %v, want none", pairs)
	}
	if pairs := x.EntityValues("When was Barack Obama born?", ""); pairs != nil {
		t.Errorf("pairs with empty answer = %v", pairs)
	}
}

func TestEntityPrior(t *testing.T) {
	s, x := figure1KB()
	pairs := x.EntityValues(
		"When was Barack Obama born in Honolulu?",
		"He was born in 1961 and the city has 390K people.",
	)
	prior := EntityPrior(pairs)
	if len(prior) != 2 {
		t.Fatalf("prior = %v (pairs %v)", prior, render(s, pairs))
	}
	for e, p := range prior {
		if p != 0.5 {
			t.Errorf("P(%s) = %v, want 0.5", s.Label(e), p)
		}
	}
	if EntityPrior(nil) != nil {
		t.Error("empty prior must be nil")
	}
}

func render(s *rdf.ShardedStore, pairs []EVPair) []string {
	var out []string
	for _, p := range pairs {
		line := s.Label(p.Entity) + "->" + s.Label(p.Value) + " via"
		for _, path := range p.Paths {
			line += " " + rdf.Key(s, path)
		}
		out = append(out, line)
	}
	return out
}
