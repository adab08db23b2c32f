package qclass

import (
	"testing"

	"repro/internal/text"
)

func TestClassify(t *testing.T) {
	cases := []struct {
		q    string
		want Class
	}{
		// The paper's running examples.
		{"How many people are there in Honolulu?", Num},
		{"What is the population of Honolulu?", Num},
		{"What is the total number of people in Honolulu?", Num},
		{"When was Barack Obama born?", Num},
		{"Who is the wife of Barack Obama?", Hum},
		{"When was Barack Obama's wife born?", Num},
		{"Which city has the 3rd largest population?", Loc}, // asks for a city
		{"Where was Barack Obama from?", Loc},
		{"How long is Mississippi River?", Num},
		// Coverage of the remaining classes.
		{"Why is the sky blue?", Desc},
		{"What does NASA stand for?", Abbr},
		{"What is the meaning of life?", Desc},
		{"What instrument do members of Coldplay play?", Hum}, // members head
		{"Which country is the headquarter of Google located in?", Loc},
		{"Who founded Microsoft?", Hum},
		{"What are books written by the author of Harry Potter?", Hum}, // author head
		{"How large is the capital of Germany?", Num},
		{"Is Berlin the capital of Germany?", Desc},
		{"What band released Thriller?", Enty},
		{"", Unknown},
		{"how to bake bread", Desc},
		{"whose car is this", Hum},
	}
	for _, c := range cases {
		if got := ClassifyTokens(text.Tokenize(c.q)); got != c.want {
			t.Errorf("ClassifyTokens(%q) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestClassString(t *testing.T) {
	if Num.String() != "NUM" || Hum.String() != "HUM" || Unknown.String() != "UNKNOWN" {
		t.Error("Class String() wrong")
	}
	if Class(99).String() != "Class(?)" {
		t.Error("out-of-range Class String() wrong")
	}
}

func TestAgrees(t *testing.T) {
	cases := []struct {
		q, v Class
		want bool
	}{
		{Num, Num, true},
		{Num, Hum, false},
		{Hum, Num, false},
		{Unknown, Num, true},
		{Num, Unknown, true},
		{Enty, Hum, true},
		{Enty, Loc, true},
		{Enty, Num, false},
		{Hum, Enty, false}, // asymmetric: a HUM question needs a HUM answer
		{Loc, Loc, true},
	}
	for _, c := range cases {
		if got := Agrees(c.q, c.v); got != c.want {
			t.Errorf("Agrees(%v, %v) = %v, want %v", c.q, c.v, got, c.want)
		}
	}
}

// TestRefinementScenario reproduces Example 2 of the paper: for
// "When was Barack Obama born?" the value 1961 (NUM, via predicate dob) must
// agree, while the noise value "politician" (ENTY, via predicate category)
// must be filtered.
func TestRefinementScenario(t *testing.T) {
	q := ClassifyTokens(text.Tokenize("When was Barack Obama born?"))
	if q != Num {
		t.Fatalf("question class = %v", q)
	}
	if !Agrees(q, Num) {
		t.Error("dob value wrongly filtered")
	}
	if Agrees(q, Enty) {
		t.Error("category noise value not filtered")
	}
}
