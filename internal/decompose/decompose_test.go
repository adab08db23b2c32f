package decompose

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/text"
)

// paperCorpus mirrors Table 3 / Example 4 of the paper.
var paperCorpus = []string{
	"When was Barack Obama born?",
	"When was Barack Obama born?",
	"How many people are there in Honolulu?",
}

func entityOracle(entities ...string) func(toks []string, sp text.Span) bool {
	set := make(map[string]bool)
	for _, e := range entities {
		set[text.Normalize(e)] = true
	}
	return func(toks []string, sp text.Span) bool {
		return set[text.Join(text.CutSpan(toks, sp))]
	}
}

// TestStatsFingerprint: the fingerprint depends on the counted patterns,
// not on the order the questions came in or the maps iterate in, and a
// change of fv alone (the same questions, another entity oracle) moves it.
func TestStatsFingerprint(t *testing.T) {
	oracle := entityOracle("Barack Obama", "Honolulu")
	a := BuildStats(paperCorpus, oracle)
	reversed := []string{paperCorpus[2], paperCorpus[1], paperCorpus[0]}
	for i := 0; i < 10; i++ {
		if got, want := BuildStats(reversed, oracle).Fingerprint(), a.Fingerprint(); got != want {
			t.Fatalf("reordered corpus fingerprints %#x, want %#x", got, want)
		}
	}
	if BuildStats(paperCorpus[1:], oracle).Fingerprint() == a.Fingerprint() {
		t.Error("dropping a question did not move the fingerprint")
	}
	if BuildStats(paperCorpus, entityOracle("Honolulu")).Fingerprint() == a.Fingerprint() {
		t.Error("changing only fv did not move the fingerprint")
	}
}

// TestExample4 reproduces the paper's Example 4: for q̌1 = "when was $e
// born" we get fv = fo = 2 so P = 1; for q̌2 = "when $e" (which swallows
// "was ... born"), fv = 0 so P = 0.
func TestExample4(t *testing.T) {
	stats := BuildStats(paperCorpus, entityOracle("Barack Obama", "Honolulu"))
	if p := stats.prob([]byte("when was $e born")); p != 1 {
		t.Errorf("P(when was $e born) = %v, want 1", p)
	}
	if fv, fo := stats.fv["when was $e born"], stats.fo["when was $e born"]; fv != 2 || fo != 2 {
		t.Errorf("counts = %d/%d, want 2/2", fv, fo)
	}
	if p := stats.prob([]byte("when $e")); p != 0 {
		t.Errorf("P(when $e) = %v, want 0", p)
	}
	if fo := stats.fo["when $e"]; fo != 2 {
		t.Errorf("fo(when $e) = %d, want 2", fo)
	}
	if p := stats.prob([]byte("never seen $e")); p != 0 {
		t.Errorf("unseen pattern must have P=0, got %v", p)
	}
}

func TestStatsFullSpanSkipped(t *testing.T) {
	stats := BuildStats([]string{"Honolulu?"}, entityOracle("Honolulu"))
	if fo := stats.fo["$e"]; fo != 0 {
		t.Errorf("whole-question hole must not be counted, fo=%d", fo)
	}
}

// decomposerForWife builds the Sec 5.1 scenario: corpus provides "when was
// $e born" as a strong pattern and the primitive oracle accepts "barack
// obama 's wife" (a BFQ the engine can answer) but not arbitrary strings.
func decomposerForWife() *Decomposer {
	corpus := []string{
		"When was Barack Obama born?",
		"When was Michelle Obama born?",
		"When was Alden Thorne born?",
		"Barack Obama's wife?",
	}
	oracle := entityOracle("Barack Obama", "Michelle Obama", "Alden Thorne")
	stats := BuildStats(corpus, oracle)
	primitives := map[string]bool{
		"barack obama 's wife":       true,
		"when was barack obama born": true,
	}
	return &Decomposer{
		Stats: stats,
		Primitive: func(toks []string, sp text.Span) bool {
			return primitives[text.Join(text.CutSpan(toks, sp))]
		},
	}
}

// TestDecomposeWifeQuestion reproduces Example 3: the optimal decomposition
// of "When was Barack Obama's wife born?" is
// q̌0 = "barack obama 's wife", q̌1 = "when was $e born".
func TestDecomposeWifeQuestion(t *testing.T) {
	d := decomposerForWife()
	dec, ok := d.Decompose(text.Tokenize("When was Barack Obama's wife born?"))
	if !ok {
		t.Fatal("no decomposition found")
	}
	want := []string{"barack obama 's wife", "when was $e born"}
	got := make([]string, len(dec.Sequence))
	for i, toks := range dec.Sequence {
		got[i] = text.Join(toks)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("sequence = %v, want %v", got, want)
	}
	if first := (text.Span{Start: 2, End: 6}); dec.First != first {
		t.Errorf("First = %v, want %v (the span of %q)", dec.First, first, want[0])
	}
	if !dec.IsComplex() {
		t.Error("IsComplex must be true")
	}
	if dec.P <= 0 || dec.P > 1 {
		t.Errorf("P = %v out of range", dec.P)
	}
}

func TestDecomposePrimitivePassThrough(t *testing.T) {
	d := decomposerForWife()
	dec, ok := d.Decompose(text.Tokenize("When was Barack Obama born?"))
	if !ok {
		t.Fatal("no decomposition")
	}
	if dec.IsComplex() {
		t.Fatalf("primitive question decomposed: %v", dec.Sequence)
	}
	if dec.P != 1 {
		t.Errorf("primitive P = %v, want 1", dec.P)
	}
}

func TestDecomposeUnanswerable(t *testing.T) {
	d := decomposerForWife()
	if _, ok := d.Decompose(text.Tokenize("what is the meaning of life?")); ok {
		t.Error("unanswerable question decomposed")
	}
	if _, ok := d.Decompose(text.Tokenize("")); ok {
		t.Error("empty question decomposed")
	}
}

func TestBind(t *testing.T) {
	bind := func(pattern, answer string) string {
		return text.Join(Bind(text.Tokenize(pattern), text.Tokenize(answer)))
	}
	got := bind("when was $e born", "Michelle Obama")
	if got != "when was michelle obama born" {
		t.Errorf("Bind = %q", got)
	}
	// Only the first hole is bound.
	if got := bind("$e and $e", "x"); got != "x and $e" {
		t.Errorf("Bind multiple = %q", got)
	}
}

// bruteForce enumerates all decompositions recursively to verify the DP's
// optimality (Theorem 2).
func bruteForce(d *Decomposer, toks []string) (float64, []string) {
	bestP, bestSeq := 0.0, []string(nil)
	if d.Primitive(toks, text.Span{Start: 0, End: len(toks)}) {
		bestP, bestSeq = 1, []string{text.Join(toks)}
	}
	for a := 0; a < len(toks); a++ {
		for b := a + 1; b <= len(toks); b++ {
			if a == 0 && b == len(toks) {
				continue
			}
			innerP, innerSeq := bruteForce(d, toks[a:b])
			if innerP == 0 {
				continue
			}
			pat := text.Join(text.ReplaceSpan(toks, text.Span{Start: a, End: b}, Hole))
			p := d.Stats.prob([]byte(pat)) * innerP
			if p > bestP {
				bestP = p
				bestSeq = append(append([]string{}, innerSeq...), pat)
			}
		}
	}
	return bestP, bestSeq
}

// TestDPMatchesBruteForce checks the DP against exhaustive search on every
// prefix of several questions (the local-optimality property).
func TestDPMatchesBruteForce(t *testing.T) {
	d := decomposerForWife()
	questions := []string{
		"When was Barack Obama's wife born?",
		"When was Barack Obama born?",
		"barack obama 's wife",
		"completely unrelated words here",
	}
	for _, q := range questions {
		toks := text.Tokenize(q)
		wantP, _ := bruteForce(d, toks)
		dec, ok := d.Decompose(text.Tokenize(q))
		gotP := 0.0
		if ok {
			gotP = dec.P
		}
		if gotP != wantP {
			t.Errorf("DP P=%v, brute force P=%v for %q", gotP, wantP, q)
		}
	}
}

func TestOverGeneralizedPatternPunished(t *testing.T) {
	// "when $e" matches both corpus questions but never validly; the DP
	// must prefer the tighter "when was $e born".
	corpus := []string{
		"When was Barack Obama born?",
		"When was Michelle Obama born?",
	}
	oracle := entityOracle("Barack Obama", "Michelle Obama")
	stats := BuildStats(corpus, oracle)
	if stats.prob([]byte("when $e")) >= stats.prob([]byte("when was $e born")) {
		t.Errorf("over-generalized pattern not punished: %v vs %v",
			stats.prob([]byte("when $e")), stats.prob([]byte("when was $e born")))
	}
}

func TestMaxQuestionTokens(t *testing.T) {
	d := decomposerForWife()
	d.MaxQuestionTokens = 5
	long := "When was Barack Obama born " + strings.Repeat("blah ", 50) + "?"
	// Must terminate quickly and operate on the truncated prefix.
	if dec, ok := d.Decompose(text.Tokenize(long)); ok {
		if len(dec.Sequence) == 0 {
			t.Error("empty sequence")
		}
	}
}

func TestNumPatterns(t *testing.T) {
	stats := BuildStats(paperCorpus, entityOracle("Barack Obama", "Honolulu"))
	if len(stats.fo) == 0 {
		t.Error("no patterns counted")
	}
}
