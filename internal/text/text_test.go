package text

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestTokenize(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"How many people are there in Honolulu?", []string{"how", "many", "people", "are", "there", "in", "honolulu"}},
		{"When was Barack Obama's wife born?", []string{"when", "was", "barack", "obama", "'s", "wife", "born"}},
		{"What is the population of $city?", []string{"what", "is", "the", "population", "of", "$city"}},
		{"It's 390K.", []string{"it", "'s", "390k"}},
		{"", nil},
		{"   ", nil},
		{"3.14 is pi", []string{"3.14", "is", "pi"}},
		{"U.S.A.", []string{"u", "s", "a"}},
		{"a--b", []string{"a", "b"}},
		{"marriage_person_name", []string{"marriage_person_name"}},
		{"'s", []string{"'s"}},
		{"O'Brien", []string{"o", "brien"}},
		{"what's up", []string{"what", "'s", "up"}},
	}
	for _, c := range cases {
		got := Tokenize(c.in)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestNormalizeIdempotent(t *testing.T) {
	inputs := []string{
		"How many people are there in Honolulu?",
		"When was Barack Obama's wife born?",
		"  mixed   CASE  and   spaces ",
	}
	for _, in := range inputs {
		n1 := Normalize(in)
		n2 := Normalize(n1)
		if n1 != n2 {
			t.Errorf("Normalize not idempotent: %q -> %q -> %q", in, n1, n2)
		}
	}
}

func TestTokenizeJoinRoundTrip(t *testing.T) {
	// Property: for any string, Tokenize(Join(Tokenize(s))) == Tokenize(s).
	f := func(s string) bool {
		t1 := Tokenize(s)
		t2 := Tokenize(Join(t1))
		return reflect.DeepEqual(t1, t2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestStopwords(t *testing.T) {
	if !IsStopword("the") || !IsStopword("'s") {
		t.Error("expected 'the' and \"'s\" to be stopwords")
	}
	for _, w := range []string{"how", "many", "people", "population", "who", "when", "where"} {
		if IsStopword(w) {
			t.Errorf("%q must not be a stopword (templates need it)", w)
		}
	}
	got := ContentTokens([]string{"what", "is", "the", "population", "of", "honolulu"})
	want := []string{"what", "population", "honolulu"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ContentTokens = %v, want %v", got, want)
	}
}

func TestSpanBasics(t *testing.T) {
	sp := Span{1, 3}
	if sp.Len() != 2 {
		t.Errorf("Len = %d, want 2", sp.Len())
	}
	if !sp.Valid(3) || sp.Valid(2) {
		t.Error("Valid boundary behaviour wrong")
	}
	if (Span{0, 0}).Valid(5) {
		t.Error("empty span must be invalid")
	}
	if !(Span{0, 4}).Contains(Span{1, 3}) {
		t.Error("Contains failed")
	}
	if (Span{0, 2}).Contains(Span{1, 3}) {
		t.Error("partial overlap is not containment")
	}
	if !(Span{0, 2}).Overlaps(Span{1, 3}) {
		t.Error("Overlaps failed")
	}
	if (Span{0, 2}).Overlaps(Span{2, 4}) {
		t.Error("adjacent spans must not overlap")
	}
}

func TestReplaceSpan(t *testing.T) {
	toks := Tokenize("how many people are there in honolulu")
	got := ReplaceSpan(toks, Span{6, 7}, "$city")
	want := Tokenize("how many people are there in $city")
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ReplaceSpan = %v, want %v", got, want)
	}
	// Original must be untouched.
	if toks[6] != "honolulu" {
		t.Error("ReplaceSpan mutated its input")
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic on invalid span")
		}
	}()
	ReplaceSpan(toks, Span{5, 99}, "x")
}

func TestCutSpan(t *testing.T) {
	toks := []string{"a", "b", "c", "d"}
	got := CutSpan(toks, Span{1, 3})
	if !reflect.DeepEqual(got, []string{"b", "c"}) {
		t.Errorf("CutSpan = %v", got)
	}
}

func TestTitleCase(t *testing.T) {
	if got := TitleCase("barack obama"); got != "Barack Obama" {
		t.Errorf("TitleCase = %q", got)
	}
	if got := TitleCase("honolulu"); got != "Honolulu" {
		t.Errorf("TitleCase = %q", got)
	}
}

func TestReplaceSpanPreservesLengthArithmetic(t *testing.T) {
	// Property: replacing an n-token span with one token shrinks by n-1.
	f := func(raw string, a, b uint8) bool {
		toks := Tokenize(raw)
		if len(toks) == 0 {
			return true
		}
		start := int(a) % len(toks)
		end := start + 1 + int(b)%(len(toks)-start)
		sp := Span{start, end}
		out := ReplaceSpan(toks, sp, "$e")
		return len(out) == len(toks)-sp.Len()+1 && out[start] == "$e"
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
