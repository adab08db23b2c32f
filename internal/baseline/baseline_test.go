package baseline

import (
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/extract"
	"repro/internal/kbgen"
	"repro/internal/rdf"
	"repro/internal/text"
)

func benchKB(t testing.TB) *kbgen.KB {
	t.Helper()
	return kbgen.Generate(kbgen.Config{Seed: 42, Flavor: kbgen.Freebase, Scale: 30})
}

// pickSubject finds an entity that has the given direct predicate.
func pickSubject(kb *kbgen.KB, cat, pred string) (string, string) {
	pid, _ := kb.Store.PredID(pred)
	for _, e := range kb.ByCategory[cat] {
		values := kb.Store.Objects(e, pid)
		if len(values) > 0 {
			return kb.Store.Label(e), text.Normalize(kb.Store.Label(values[0]))
		}
	}
	return "", ""
}

func TestKeywordAnswersLexicalOverlap(t *testing.T) {
	kb := benchKB(t)
	k := &Keyword{KB: kb.Store, Mentions: extract.NewLexicon(kb.Store)}
	city, want := pickSubject(kb, "city", "population")
	res, ok := k.Answer("What is the population of " + city + "?")
	if !ok {
		t.Fatal("keyword failed on lexical-overlap question")
	}
	if res.Path != "population" {
		t.Errorf("Path = %q", res.Path)
	}
	if res.Values[0] != want {
		t.Errorf("Value = %q, want %q", res.Values[0], want)
	}
}

// TestKeywordFailsOnParaphrase is the paper's motivating case ⓐ: keyword
// matching cannot recover "population" from "how many people are there".
func TestKeywordFailsOnParaphrase(t *testing.T) {
	kb := benchKB(t)
	k := &Keyword{KB: kb.Store, Mentions: extract.NewLexicon(kb.Store)}
	city, _ := pickSubject(kb, "city", "population")
	res, ok := k.Answer("How many people are there in " + city + "?")
	if ok && res.Path == "population" {
		t.Error("keyword baseline unexpectedly solved the paraphrase case")
	}
}

func TestKeywordNoEntity(t *testing.T) {
	kb := benchKB(t)
	k := &Keyword{KB: kb.Store, Mentions: extract.NewLexicon(kb.Store)}
	if _, ok := k.Answer("what is the population of nowhere at all"); ok {
		t.Error("answered with no KB entity")
	}
}

func TestSynonymAnswersParaphrase(t *testing.T) {
	kb := benchKB(t)
	s := &Synonym{KB: kb.Store, Mentions: extract.NewLexicon(kb.Store), Lexicon: DefaultLexicon()}
	person, want := pickSubject(kb, "person", "dob")
	// "born" is a synonym of dob; keywords alone cannot do this.
	res, ok := s.Answer("When was " + person + " born?")
	if !ok {
		t.Fatal("synonym baseline failed on 'born'")
	}
	if res.Path != "dob" {
		t.Errorf("Path = %q, want dob", res.Path)
	}
	if res.Value != want {
		t.Errorf("Value = %q, want %q", res.Value, want)
	}
}

// TestSynonymFailsOnExpandedPredicate reproduces the paper's core claim:
// synonym methods cannot map to multi-edge KB structures.
func TestSynonymFailsOnExpandedPredicate(t *testing.T) {
	kb := benchKB(t)
	s := &Synonym{KB: kb.Store, Mentions: extract.NewLexicon(kb.Store), Lexicon: DefaultLexicon()}
	path, _ := rdf.ParsePath(kb.Store, "marriage→person→name")
	var person string
	for _, p := range kb.ByCategory["person"] {
		if len(rdf.PathObjects(nil, kb.Store, p, path)) > 0 {
			person = kb.Store.Label(p)
			break
		}
	}
	res, ok := s.Answer("Who is the wife of " + person + "?")
	if ok && res.Path == "marriage→person→name" {
		t.Error("synonym baseline resolved an expanded predicate; it must not")
	}
}

func TestGraphMatchHandlesSubStructure(t *testing.T) {
	kb := benchKB(t)
	g := &GraphMatch{KB: kb.Store, Mentions: extract.NewLexicon(kb.Store), Lexicon: DefaultLexicon(), PathSynonyms: DefaultPathSynonyms()}
	path, _ := rdf.ParsePath(kb.Store, "marriage→person→name")
	var person, want string
	for _, p := range kb.ByCategory["person"] {
		objs := rdf.PathObjects(nil, kb.Store, p, path)
		if len(objs) > 0 {
			person = kb.Store.Label(p)
			want = text.Normalize(kb.Store.Label(objs[0]))
			break
		}
	}
	res, ok := g.Answer("Who is the wife of " + person + "?")
	if !ok {
		t.Fatal("graph baseline failed on spouse question")
	}
	if res.Path != "marriage→person→name" || res.Value != want {
		t.Errorf("got %+v, want spouse %q", res, want)
	}
}

func TestRuleBased(t *testing.T) {
	kb := benchKB(t)
	r := &Rule{KB: kb.Store}
	country, want := pickSubject(kb, "country", "capital")
	res, ok := r.Answer("What is the capital of " + country + "?")
	if !ok {
		t.Fatal("rule baseline failed on canned pattern")
	}
	if res.Path != "capital" || res.Value != want {
		t.Errorf("got %+v", res)
	}
	// Any deviation from the canned pattern is unanswerable.
	if _, ok := r.Answer("Name the capital of " + country + "?"); ok {
		t.Error("rule baseline answered a non-canned phrasing")
	}
	if _, ok := r.Answer("What is the capital?"); ok {
		t.Error("rule baseline answered without an entity")
	}
}

func TestHybridFallback(t *testing.T) {
	kb := benchKB(t)
	rule := &Rule{KB: kb.Store}
	syn := &Synonym{KB: kb.Store, Mentions: extract.NewLexicon(kb.Store), Lexicon: DefaultLexicon()}
	h := &Hybrid{Primary: rule, Secondary: syn}
	person, _ := pickSubject(kb, "person", "dob")

	// The rule system cannot answer "when was X born", the synonym one can:
	// the hybrid must answer it.
	if _, ok := rule.Answer("When was " + person + " born?"); ok {
		t.Fatal("precondition: rule should fail here")
	}
	res, ok := h.Answer("When was " + person + " born?")
	if !ok || res.Path != "dob" {
		t.Fatalf("hybrid fallback failed: %+v ok=%v", res, ok)
	}
	// When the primary answers, its result wins.
	country, _ := pickSubject(kb, "country", "capital")
	res, ok = h.Answer("What is the capital of " + country + "?")
	if !ok || res.Path != "capital" {
		t.Fatalf("hybrid primary path failed: %+v", res)
	}
	if h.Name() != "rule+synonym(DEANNA)" {
		t.Errorf("Name = %q", h.Name())
	}
}

func TestBootstrap(t *testing.T) {
	kb := benchKB(t)
	docs := corpus.GenerateWebDocs(kb, 5, 30)
	m := Bootstrap(kb.Store, extract.NewLexicon(kb.Store), docs)
	if m.NumPredicates() == 0 || m.NumPatterns() == 0 {
		t.Fatalf("bootstrapping learned nothing: %d preds, %d patterns", m.NumPredicates(), m.NumPatterns())
	}
	// Patterns must be direct predicates only.
	for pred := range m.Patterns {
		if strings.Contains(pred, "→") {
			t.Errorf("bootstrapping learned an expanded predicate %q", pred)
		}
	}
	// Patterns for population should include an abstracted ?D ... ?R form.
	pats := m.Patterns["population"]
	if len(pats) == 0 {
		t.Fatal("no population patterns")
	}
	for p := range pats {
		if !strings.Contains(p, "?D") || !strings.Contains(p, "?R") {
			t.Errorf("pattern %q not abstracted", p)
		}
	}
}

func TestAbstractPattern(t *testing.T) {
	toks := text.Tokenize("the population of Dunford is 390k")
	pat := abstractPattern(toks, text.Span{Start: 3, End: 4}, text.Span{Start: 5, End: 6})
	if pat != "?D is ?R" {
		t.Errorf("pattern = %q, want \"?D is ?R\"", pat)
	}
	// Reversed order.
	pat = abstractPattern(toks, text.Span{Start: 5, End: 6}, text.Span{Start: 3, End: 4})
	if pat != "?R is ?D" {
		t.Errorf("reversed = %q", pat)
	}
	if got := abstractPattern(toks, text.Span{Start: 3, End: 5}, text.Span{Start: 4, End: 6}); got != "" {
		t.Errorf("overlapping spans must yield no pattern, got %q", got)
	}
}

var _ System = (*Keyword)(nil)
var _ System = (*Synonym)(nil)
var _ System = (*GraphMatch)(nil)
var _ System = (*Rule)(nil)
var _ System = (*Hybrid)(nil)
var _ = rdf.KindEntity
