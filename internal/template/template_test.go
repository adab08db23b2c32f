package template

import (
	"math"
	"testing"

	"repro/internal/concept"
	"repro/internal/text"
)

func TestDerive(t *testing.T) {
	toks := text.Tokenize("How many people are there in Honolulu?")
	tpl := Derive(toks, text.Span{Start: 6, End: 7}, "city")
	if tpl.Text != "how many people are there in $city" {
		t.Errorf("Text = %q", tpl.Text)
	}
	if tpl.Concept != "city" {
		t.Errorf("Concept = %q", tpl.Concept)
	}
}

func TestDeriveMultiTokenMention(t *testing.T) {
	toks := text.Tokenize("When was Barack Obama born?")
	tpl := Derive(toks, text.Span{Start: 2, End: 4}, "person")
	if tpl.Text != "when was $person born" {
		t.Errorf("Text = %q", tpl.Text)
	}
}

func TestDeriveAll(t *testing.T) {
	tax := concept.NewTaxonomy()
	tax.AddIsA("barack obama", "person", 2)
	tax.AddIsA("barack obama", "politician", 1)
	toks := text.Tokenize("When was Barack Obama born?")
	ws := DeriveAll(tax, toks, text.Span{Start: 2, End: 4}, "barack obama")
	if len(ws) != 2 {
		t.Fatalf("templates = %v", ws)
	}
	if ws[0].Text != "when was $person born" {
		t.Errorf("top template = %q", ws[0].Text)
	}
	var sum float64
	for _, w := range ws {
		sum += w.P
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("weights sum to %v", sum)
	}
}

func TestDeriveAllContext(t *testing.T) {
	tax := concept.NewTaxonomy()
	tax.AddIsA("apple", "fruit", 3)
	tax.AddIsA("apple", "company", 1)
	tax.AddContextEvidence("company", "headquarter", 10)
	toks := text.Tokenize("what is the headquarter of apple")
	ws := DeriveAll(tax, toks, text.Span{Start: 5, End: 6}, "apple")
	if len(ws) == 0 || ws[0].Concept != "company" {
		t.Fatalf("context-aware derivation failed: %v", ws)
	}
	if ws[0].Text != "what is the headquarter of $company" {
		t.Errorf("template = %q", ws[0].Text)
	}
}

func TestInstantiate(t *testing.T) {
	got := Instantiate("when was $person born", "Barack Obama")
	if got != "when was barack obama born" {
		t.Errorf("Instantiate = %q", got)
	}
	// Round trip: derive then instantiate recovers the question.
	q := "how many people are there in honolulu"
	toks := text.Tokenize(q)
	tpl := Derive(toks, text.Span{Start: 6, End: 7}, "city")
	if back := Instantiate(tpl.Text, "honolulu"); back != q {
		t.Errorf("round trip = %q, want %q", back, q)
	}
}
