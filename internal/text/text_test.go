package text

import (
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"unicode"
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

// tokenizeRunes is Tokenize as it was before it scanned bytes — []rune, a
// builder per token — kept as the oracle the one-pass scanner must equal.
func tokenizeRunes(s string) []string {
	var toks []string
	var cur strings.Builder
	flush := func() {
		if cur.Len() > 0 {
			toks = append(toks, cur.String())
			cur.Reset()
		}
	}
	isDigits := func(s string) bool {
		for _, r := range s {
			if !unicode.IsDigit(r) && r != '.' {
				return false
			}
		}
		return len(s) > 0
	}
	runes := []rune(s)
	for i := 0; i < len(runes); i++ {
		r := runes[i]
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			cur.WriteRune(unicode.ToLower(r))
		case r == '\'' && i+1 < len(runes) && (runes[i+1] == 's' || runes[i+1] == 'S') &&
			(i+2 >= len(runes) || !unicode.IsLetter(runes[i+2])):
			flush()
			toks = append(toks, "'s")
			i++
		case r == '$' || r == '_':
			cur.WriteRune(r)
		case r == '.' && cur.Len() > 0 && i+1 < len(runes) && unicode.IsDigit(runes[i+1]) && isDigits(cur.String()):
			cur.WriteRune(r)
		default:
			flush()
		}
	}
	flush()
	return toks
}

// checkTokenize holds the four facts the rest of the system leans on: the
// scanner equals the oracle, a vocabulary's Tokenize appends the same
// tokens with each one's ID, joined tokens tokenize to themselves (which is
// what lets the mention lexicon match tokens without re-normalizing their
// join), and Normalize is the oracle's join, Join(tokenizeRunes(s)), and
// idempotent.
func checkTokenize(t *testing.T, s string) {
	t.Helper()
	got, want := Tokenize(s), tokenizeRunes(s)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Tokenize(%q) = %q, the rune-based oracle says %q", s, got, want)
	}
	v := NewVocab()
	v.Add("barack")
	v.Add("'s")
	toks, ids := v.Tokenize(s, []string{"kept"}, []uint32{7})
	if len(toks) != 1+len(got) || (len(got) > 0 && !reflect.DeepEqual(toks[1:], got)) || toks[0] != "kept" || len(ids) != len(toks) || ids[0] != 7 {
		t.Fatalf("Vocab.Tokenize(%q) = %q, %v; want %q after the token and ID kept", s, toks, ids, got)
	}
	for i, tok := range toks[1:] {
		if ids[1+i] != v.ID(tok) {
			t.Fatalf("Vocab.Tokenize(%q): %q has ID %d, the vocabulary says %d", s, tok, ids[1+i], v.ID(tok))
		}
	}
	joined := Join(got)
	if again := Tokenize(joined); !reflect.DeepEqual(again, got) {
		t.Fatalf("Tokenize(Join(Tokenize(%q))) = %q, want %q", s, again, got)
	}
	if n := Normalize(s); n != joined || n != Join(want) {
		t.Fatalf("Normalize(%q) = %q, want %q", s, n, Join(want))
	}
	if n := Normalize(joined); n != joined {
		t.Fatalf("Normalize(%q) = %q: not idempotent", joined, n)
	}
}

func FuzzTokenize(f *testing.F) {
	for _, s := range []string{
		"", "   ", "When was Barack Obama's wife born?", "it'S 390.5K.", "3.14.15 .5 5.", "x.5",
		"What is the population of $city?", "marriage_person_name", "'s", "'sx", "a'S5", "O'Brien",
		"ÉCOLE İstanbul ǅ K", "٣.٣ ３.５", "\xff\xfea\xc0\xafb", "a b c", "barack obama 's wife",
	} {
		f.Add(s)
	}
	f.Fuzz(checkTokenize)
}

// TestTokenizeEveryRune sweeps the code points — all of the two planes that
// hold every cased letter and every digit (and the surrogates a string
// conversion turns into U+FFFD), a sample of the caseless rest — through
// the contexts in which the scanner treats a rune specially: inside a word,
// after a number's point, after a clitic and alone.
func TestTokenizeEveryRune(t *testing.T) {
	for r := rune(0); r <= unicode.MaxRune; r++ {
		if r > 0x1ffff {
			r += 96
		}
		c := string(r)
		s := "a" + c + "B 1." + c + " x's" + c + "s " + c
		if got, want := Tokenize(s), tokenizeRunes(s); !slices.Equal(got, want) {
			t.Fatalf("Tokenize(%q) = %q, the rune-based oracle says %q", s, got, want)
		}
	}
}

// TestNormalizeCanonicalAllocatesNothing: a canonical string is its own
// key, and any other is built in one pass with at most one allocation, the
// key's.
func TestNormalizeCanonicalAllocatesNothing(t *testing.T) {
	for _, s := range []string{"", "honolulu", "barack obama 's wife", "how many people are there in $city", "390.5 sq km", "école ３"} {
		if Normalize(s) != s {
			t.Fatalf("%q is not canonical", s)
		}
		if n := testing.AllocsPerRun(100, func() { Normalize(s) }); n != 0 {
			t.Errorf("Normalize(%q) of a canonical string: %v allocs, want 0", s, n)
		}
	}
	for _, s := range []string{" a", "a ", "a  b", "A", "a's", "a 'S", "a.b", "5.", "a\tb", "What is the population of Norhaven?"} {
		if n := Normalize(s); n == s || n != Join(tokenizeRunes(s)) {
			t.Errorf("Normalize(%q) = %q, want %q", s, n, Join(tokenizeRunes(s)))
		}
		if n := testing.AllocsPerRun(100, func() { Normalize(s) }); n > 1 {
			t.Errorf("Normalize(%q) of a non-canonical string: %v allocs, want at most 1", s, n)
		}
	}
}

// TestAppendPlaceholderEqualsJoin pins the key a template or a pattern is
// looked up by to its string form, Join(ReplaceSpan(toks, sp, "$"+name)):
// every span of every question, spans at either end, a one-token question
// and a question already holding a placeholder included, written after
// whatever the buffer held.
func TestAppendPlaceholderEqualsJoin(t *testing.T) {
	for _, q := range []string{"Honolulu?", "When was Barack Obama's wife born?", "who founded $e 's label", "a b c d e f g h i j"} {
		toks := Tokenize(q)
		for i := range toks {
			for j := i + 1; j <= len(toks); j++ {
				sp := Span{Start: i, End: j}
				want := "junk" + Join(ReplaceSpan(toks, sp, "$city"))
				if got := string(AppendPlaceholder(AppendHead([]byte("junk"), toks[:i]), "city", toks[j:])); got != want {
					t.Errorf("%q %v: key %q, want %q", q, sp, got, want)
				}
			}
		}
	}
}
