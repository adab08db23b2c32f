package rdf

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"testing"
)

func TestNTriplesRoundTrip(t *testing.T) {
	s, ids := buildToyKB(t)
	var buf bytes.Buffer
	if err := WriteNTriples(s, &buf); err != nil {
		t.Fatal(err)
	}
	s2, err := LoadNTriples(&buf, 3)
	if err != nil {
		t.Fatal(err)
	}
	if s2.NumTriples() != s.NumTriples() {
		t.Fatalf("triples %d != %d", s2.NumTriples(), s.NumTriples())
	}
	if s2.NumPredicates() != s.NumPredicates() {
		t.Fatalf("predicates %d != %d", s2.NumPredicates(), s.NumPredicates())
	}
	// Semantic checks across the round trip.
	a2 := s2.EntitiesByLabel("Barack Obama")
	if len(a2) != 1 {
		t.Fatalf("entity lookup after round trip: %v", a2)
	}
	dob, ok := s2.PredID("dob")
	if !ok {
		t.Fatal("dob predicate lost")
	}
	objs := s2.Objects(a2[0], dob)
	if len(objs) != 1 || s2.Label(objs[0]) != "1961" {
		t.Fatalf("dob lookup = %v", objs)
	}
	// Expanded path still works (mediator preserved as a mediator).
	path, ok := ParsePath(s2, "marriage→person→name")
	if !ok {
		t.Fatal("path predicates lost")
	}
	spouse := PathObjects(s2, a2[0], path)
	if len(spouse) != 1 || s2.Label(spouse[0]) != "Michelle Obama" {
		t.Fatalf("spouse after round trip = %v", spouse)
	}
	_ = ids
}

func TestNTriplesPreservesAmbiguity(t *testing.T) {
	s := NewShardedStore(3)
	e1 := s.NewAmbiguousEntity("springfield")
	e2 := s.NewAmbiguousEntity("springfield")
	p := s.Pred("population")
	s.Add(e1, p, s.Literal("100k"))
	s.Add(e2, p, s.Literal("200k"))

	var buf bytes.Buffer
	if err := WriteNTriples(s, &buf); err != nil {
		t.Fatal(err)
	}
	s2, err := LoadNTriples(&buf, 3)
	if err != nil {
		t.Fatal(err)
	}
	ents := s2.EntitiesByLabel("springfield")
	if len(ents) != 2 {
		t.Fatalf("ambiguity lost: %d entities", len(ents))
	}
	p2, _ := s2.PredID("population")
	values := map[string]bool{}
	for _, e := range ents {
		for _, o := range s2.Objects(e, p2) {
			values[s2.Label(o)] = true
		}
	}
	if !values["100k"] || !values["200k"] {
		t.Fatalf("values lost: %v", values)
	}
}

func TestNTriplesEscaping(t *testing.T) {
	s := NewShardedStore(3)
	e := s.Entity(`weird "name" with spaces`)
	s.Add(e, s.Pred("note"), s.Literal(`a "quoted" literal with \ backslash`))
	var buf bytes.Buffer
	if err := WriteNTriples(s, &buf); err != nil {
		t.Fatal(err)
	}
	s2, err := LoadNTriples(&buf, 3)
	if err != nil {
		t.Fatal(err)
	}
	got := s2.EntitiesByLabel(`weird "name" with spaces`)
	if len(got) != 1 {
		t.Fatalf("escaped entity lost: %v", got)
	}
	note, _ := s2.PredID("note")
	objs := s2.Objects(got[0], note)
	if len(objs) != 1 || s2.Label(objs[0]) != `a "quoted" literal with \ backslash` {
		t.Fatalf("literal = %q", s2.Label(objs[0]))
	}
}

func TestReadNTriplesErrors(t *testing.T) {
	cases := []string{
		"<e/0/x .",                    // missing predicate
		"nonsense",                    // no tokens
		"<x/0/a> <p> <e/1/b> .",       // unknown node kind
		`<e/0/a> <p> "unterminated .`, // bad literal
		"<e/0%ZZ/a> <p> \"x\" .",      // bad escaping
		"<e/0> <p> \"x\" .",           // malformed node ref
	}
	for _, c := range cases {
		if _, err := LoadNTriples(strings.NewReader(c), 3); err == nil {
			t.Errorf("expected error for %q", c)
		}
	}
	// Blank lines and comments are fine.
	s, err := LoadNTriples(strings.NewReader("\n# comment\n<e/0/a> <p> \"x\" .\n"), 3)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumTriples() != 1 {
		t.Fatalf("triples = %d", s.NumTriples())
	}
}

func TestNTriplesControlCharLiterals(t *testing.T) {
	lits := []string{
		"a\nb", "tab\there", "cr\rhere", "nul\x00byte", "bell\x07",
		"high\xffbyte", `back\slash`, "mixed \n\t\\\" end",
	}
	s := NewShardedStore(3)
	e := s.Entity("x")
	p := s.Pred("v")
	for _, l := range lits {
		s.Add(e, p, s.Literal(l))
	}
	var buf bytes.Buffer
	if err := WriteNTriples(s, &buf); err != nil {
		t.Fatal(err)
	}
	s2, err := LoadNTriples(&buf, 3)
	if err != nil {
		t.Fatal(err)
	}
	ents := s2.EntitiesByLabel("x")
	if len(ents) != 1 {
		t.Fatalf("entity lost: %v", ents)
	}
	p2, _ := s2.PredID("v")
	objs := s2.Objects(ents[0], p2)
	if len(objs) != len(lits) {
		t.Fatalf("got %d literals, want %d", len(objs), len(lits))
	}
	for i, o := range objs {
		if got := s2.Label(o); got != lits[i] {
			t.Errorf("literal %d = %q, want %q", i, got, lits[i])
		}
	}
}

func TestNTriplesLongLine(t *testing.T) {
	// One label far beyond the 4 MiB token cap the old bufio.Scanner-based
	// reader imposed; the load must succeed and preserve the label exactly.
	long := strings.Repeat("x", 5<<20)
	s := NewShardedStore(3)
	e := s.Entity("subject")
	s.Add(e, s.Pred("blob"), s.Literal(long))
	var buf bytes.Buffer
	if err := WriteNTriples(s, &buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() < 5<<20 {
		t.Fatalf("expected a >4MiB line, got %d bytes", buf.Len())
	}
	s2, err := LoadNTriples(&buf, 3)
	if err != nil {
		t.Fatalf("long line failed to load: %v", err)
	}
	ents := s2.EntitiesByLabel("subject")
	if len(ents) != 1 {
		t.Fatalf("entity lost: %v", ents)
	}
	p2, _ := s2.PredID("blob")
	objs := s2.Objects(ents[0], p2)
	if len(objs) != 1 || s2.Label(objs[0]) != long {
		t.Fatal("long literal corrupted")
	}
}

// tripleLabels flattens a store to a sorted label-level rendering — the
// id-independent canonical form used to compare stores across reloads.
func tripleLabels(g Graph) string {
	var lines []string
	g.Triples(func(tr Triple) {
		lines = append(lines, fmt.Sprintf("%d%q %q %d%q",
			g.KindOf(tr.S), g.Label(tr.S), g.PredName(tr.P), g.KindOf(tr.O), g.Label(tr.O)))
	})
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

func FuzzNTriplesRoundTrip(f *testing.F) {
	seeds := []struct{ ent, lit string }{
		{"plain", "value"},
		{"with spaces", "line\nbreak\tand tab"},
		{`quo"ted`, `a "quoted" literal`},
		{"trailing", `ends with backslash\`},
		{"ctrl", "\x00\x01\x1f\x7f"},
		{"unicode ✓", "naïve café"},
		{"not-utf8", "\xff\xfe\xfd"},
		{"percent%2Fsign", "100% ."},
		{"slash/label", "dot at end ."},
	}
	for _, s := range seeds {
		f.Add(s.ent, s.lit)
	}
	f.Fuzz(func(t *testing.T, ent, lit string) {
		s := NewShardedStore(3)
		e := s.NewAmbiguousEntity(ent)
		s.Add(e, s.Pred("name"), s.Literal(lit))
		s.Add(e, s.Pred("of"), s.Mediator(ent+"-m"))
		s.Add(e, s.Pred("knows"), s.NewAmbiguousEntity(ent))

		var b1 bytes.Buffer
		if err := WriteNTriples(s, &b1); err != nil {
			t.Fatal(err)
		}
		s2, err := LoadNTriples(bytes.NewReader(b1.Bytes()), 3)
		if err != nil {
			t.Fatalf("read back own serialization: %v\n%s", err, b1.Bytes())
		}
		// Semantic equivalence: the multiset of label-level triples survives.
		if got, want := tripleLabels(s2), tripleLabels(s); got != want {
			t.Fatalf("triples changed across round trip:\n got %s\nwant %s", got, want)
		}
		// Fixed point: write -> read -> write is byte-identical. (The very
		// first write may renumber nodes, so b1 vs b2 can differ in ids; the
		// canonical serialization of a read-back store must not.)
		var b2 bytes.Buffer
		if err := WriteNTriples(s2, &b2); err != nil {
			t.Fatal(err)
		}
		s3, err := LoadNTriples(bytes.NewReader(b2.Bytes()), 3)
		if err != nil {
			t.Fatal(err)
		}
		var b3 bytes.Buffer
		if err := WriteNTriples(s3, &b3); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b2.Bytes(), b3.Bytes()) {
			t.Fatalf("write->read->write not byte-identical:\n%q\nvs\n%q", b2.Bytes(), b3.Bytes())
		}
	})
}
