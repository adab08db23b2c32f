package core

import (
	"context"
	"strings"
	"testing"

	"repro/internal/text"
)

func TestParseNumber(t *testing.T) {
	cases := []struct {
		in   string
		want float64
		ok   bool
	}{
		{"390k", 390000, true},
		{"12m", 12000000, true},
		{"4300 sq km", 4300, true},
		{"1.85 m", 1.85, true},
		{"42 billion", 42e9, true},
		{"1923", 1923, true},
		{"250 kcal", 250, true},
		{"guitar", 0, false},
		{"", 0, false},
		{"vitamin c", 0, false},
		// The edges of the grammar — a sign, one '.', digits only — which
		// the parser has always agreed with.
		{"-12", -12, true},
		{"+2.5k", 2500, true},
		{"1.2.3", 0, false},
		{".", 0, false},
		{"-", 0, false},
		{strings.Repeat("9", 400), 0, false},
		// Digits that fit a float64 until the suffix multiplies them past it.
		{strings.Repeat("9", 300) + " billion", 0, false},
		{strings.Repeat("9", 306) + "k", 0, false},
		// What strconv.ParseFloat takes but a label never means: a person
		// named "Nan" is no NaN, "Infinity" no +Inf.
		{"nan", 0, false},
		{"Nan", 0, false},
		{"NaN k", 0, false},
		{"inf", 0, false},
		{"-Inf", 0, false},
		{"Infinity", 0, false},
		{"+infinity m", 0, false},
		{"infk", 0, false},
		{"1_000", 0, false},
		{"0x1p4", 0, false},
		{"1e3", 0, false},
		{"1E3 billion", 0, false},
	}
	for _, c := range cases {
		got, ok := parseNumber(c.in)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("parseNumber(%q) = %v,%v want %v,%v", c.in, got, ok, c.want, c.ok)
		}
	}
}

func TestFormatNumber(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{390000, "390k"},
		{12000000, "12m"},
		{42e9, "42b"},
		{1923, "1923"},
		{1.85, "1.85"},
	}
	for _, c := range cases {
		if got := formatNumber(c.in); got != c.want {
			t.Errorf("formatNumber(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}

// TestRankingQuestion reproduces Sec 1's ranking variant: "which city has
// the 3rd largest population?" — answerable purely from the BFQ machinery.
func TestRankingQuestion(t *testing.T) {
	f := world(t)
	ans, ok := askVariant(f.engine, "Which city has the 3rd largest population?")
	if !ok {
		t.Fatal("ranking variant not answered")
	}
	if ans.Kind != VariantRanking || ans.Path != "population" || ans.Category != "city" {
		t.Fatalf("answer = %+v", ans)
	}
	// Verify against a direct sort of the KB.
	ranked, _ := f.engine.rankCategory(context.Background(), new(scratch), "city", "population", true)
	if len(ranked) < 3 {
		t.Fatal("too few cities")
	}
	if ans.Entities[0] != ranked[2].label {
		t.Errorf("3rd largest = %q, want %q", ans.Entities[0], ranked[2].label)
	}
	// Smallest.
	ansMin, ok := askVariant(f.engine, "Which city has the smallest population?")
	if !ok || ansMin.Entities[0] != ranked[len(ranked)-1].label {
		t.Errorf("smallest = %+v, want %q", ansMin, ranked[len(ranked)-1].label)
	}
}

// TestComparisonQuestion reproduces "which city has more people, A or B?".
func TestComparisonQuestion(t *testing.T) {
	f := world(t)
	ranked, _ := f.engine.rankCategory(context.Background(), new(scratch), "city", "population", true)
	if len(ranked) < 2 {
		t.Fatal("too few cities")
	}
	big, small := ranked[0], ranked[len(ranked)-1]
	q := "Which city has more people , " + big.label + " or " + small.label + "?"
	ans, ok := askVariant(f.engine, q)
	if !ok {
		t.Fatalf("comparison not answered: %q", q)
	}
	if ans.Kind != VariantComparison {
		t.Fatalf("kind = %v", ans.Kind)
	}
	if ans.Entities[0] != big.label {
		t.Errorf("winner = %q, want %q (values %v)", ans.Entities[0], big.label, ans.Values)
	}
	// Order independence.
	q2 := "Which city has more people , " + small.label + " or " + big.label + "?"
	ans2, ok := askVariant(f.engine, q2)
	if !ok || ans2.Entities[0] != big.label {
		t.Errorf("reversed order winner = %+v", ans2)
	}
}

// TestListingQuestion reproduces "list cities ordered by population".
func TestListingQuestion(t *testing.T) {
	f := world(t)
	ans, ok := askVariant(f.engine, "List cities ordered by population?")
	if !ok {
		t.Fatal("listing not answered")
	}
	if ans.Kind != VariantListing || len(ans.Entities) == 0 {
		t.Fatalf("answer = %+v", ans)
	}
	// Descending order by value.
	ranked, _ := f.engine.rankCategory(context.Background(), new(scratch), "city", "population", true)
	for i := range ans.Entities {
		if ans.Entities[i] != ranked[i].label {
			t.Fatalf("listing[%d] = %q, want %q", i, ans.Entities[i], ranked[i].label)
		}
	}
	if len(ans.Entities) > 10 {
		t.Error("listing not capped")
	}
}

func TestVariantRejectsPlainBFQ(t *testing.T) {
	f := world(t)
	city := f.kb.Store.Label(f.kb.ByCategory["city"][0])
	if _, ok := askVariant(f.engine, "What is the population of "+city+"?"); ok {
		t.Error("plain BFQ misclassified as a variant")
	}
	if _, ok := askVariant(f.engine, ""); ok {
		t.Error("empty question answered")
	}
	if _, ok := askVariant(f.engine, "list my grievances in order?"); ok {
		t.Error("ungroundable listing answered")
	}
}

func TestVariantKindString(t *testing.T) {
	if VariantRanking.String() != "ranking" || VariantNone.String() != "none" ||
		VariantComparison.String() != "comparison" || VariantListing.String() != "listing" {
		t.Error("VariantKind.String wrong")
	}
}

func TestRankCategoryDeterministic(t *testing.T) {
	f := world(t)
	a, _ := f.engine.rankCategory(context.Background(), new(scratch), "city", "population", true)
	b, _ := f.engine.rankCategory(context.Background(), new(scratch), "city", "population", true)
	if len(a) == 0 || len(a) != len(b) {
		t.Fatal("rankCategory unstable size")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("rankCategory nondeterministic")
		}
	}
	// Ascending vs descending are reverses for distinct values.
	asc, _ := f.engine.rankCategory(context.Background(), new(scratch), "city", "population", false)
	if asc[0].value > asc[len(asc)-1].value {
		t.Error("ascending sort wrong")
	}
}

// TestNumericPredicateMemoised: whether a path's values are numbers is
// settled once per engine. A second identical ranking question reads the
// index for the ranking alone — one batch over the category's members — and
// a scan the index failed decides nothing.
func TestNumericPredicateMemoised(t *testing.T) {
	f := world(t)
	e, g := countingEngine(f)
	const q = "Which city has the 3rd largest population?"
	first, ok := askVariant(e, q)
	cold := g.calls.Load()
	second, ok2 := askVariant(e, q)
	warm := g.calls.Load() - cold
	if !ok || !ok2 || first.Entities[0] != second.Entities[0] {
		t.Fatalf("ranking answers: %+v (%v), %+v (%v)", first, ok, second, ok2)
	}
	if warm != 1 || cold <= warm {
		t.Errorf("PathObjects calls: %d for the first ranking question, %d for the second; want > 1, then 1 (no numericPredicate reads)", cold, warm)
	}

	fi := &failingIndex{Index: f.engine.Index}
	flaky := NewEngine(f.kb.Store, fi, f.kb.Taxonomy, f.model, f.engine.Stats)
	if _, err := flaky.numericPredicate(context.Background(), new(scratch), "population"); err == nil {
		t.Fatal("numericPredicate over a failing index reported a verdict")
	}
	fi.healthy.Store(1 << 30)
	if numeric, err := flaky.numericPredicate(context.Background(), new(scratch), "population"); err != nil || !numeric {
		t.Fatalf("numericPredicate after the index recovered = %v, %v; the failed scan must not have been kept", numeric, err)
	}
}

func TestBestTemplateForUsesLearnedModel(t *testing.T) {
	f := world(t)
	q := f.engine.parse(text.Tokenize("which city has the largest population"))
	path, score, _ := f.engine.bestTemplateFor(context.Background(), q.s, q.ids)
	if path != "population" || score <= 0 {
		t.Errorf("bestTemplateFor = %q (%.2f), want population", path, score)
	}
	q = f.engine.parse(text.Tokenize("how tall"))
	path, _, _ = f.engine.bestTemplateFor(context.Background(), q.s, q.ids)
	if path != "height" && path != "elevation" {
		t.Errorf("bestTemplateFor(how tall) = %q", path)
	}
}
