package concept

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/text"
)

func appleTaxonomy() *Taxonomy {
	t := NewTaxonomy()
	t.AddIsA("apple", "fruit", 3) // the fruit sense is more frequent a priori
	t.AddIsA("apple", "company", 1)
	t.AddContextEvidence("company", "headquarter", 5)
	t.AddContextEvidence("company", "ceo", 5)
	t.AddContextEvidence("fruit", "pie", 5)
	t.AddContextEvidence("fruit", "eat", 3)
	return t
}

func TestPriorConcepts(t *testing.T) {
	tax := appleTaxonomy()
	cs := tax.Concepts("Apple")
	if len(cs) != 2 {
		t.Fatalf("got %d concepts", len(cs))
	}
	if cs[0].Concept != "fruit" {
		t.Errorf("prior top concept = %q, want fruit", cs[0].Concept)
	}
	if math.Abs(cs[0].P-0.75) > 1e-9 || math.Abs(cs[1].P-0.25) > 1e-9 {
		t.Errorf("prior = %v, want 0.75/0.25", cs)
	}
}

func TestContextAwareDisambiguation(t *testing.T) {
	tax := appleTaxonomy()
	// The paper's example: "what is the headquarter of apple" must
	// conceptualize apple to $company, not $fruit.
	ctx := text.Tokenize("what is the headquarter of")
	if got := tax.Best("apple", ctx); got != "company" {
		t.Errorf("Best(apple | headquarter) = %q, want company", got)
	}
	ctx = text.Tokenize("how do i eat an")
	if got := tax.Best("apple", ctx); got != "fruit" {
		t.Errorf("Best(apple | eat) = %q, want fruit", got)
	}
	// No context: prior wins.
	if got := tax.Best("apple", nil); got != "fruit" {
		t.Errorf("Best(apple | -) = %q, want fruit", got)
	}
}

func TestConceptualizeNormalized(t *testing.T) {
	tax := appleTaxonomy()
	cs := tax.Conceptualize("apple", text.Tokenize("where is the headquarter"))
	var sum float64
	for _, s := range cs {
		sum += s.P
		if s.P < 0 || s.P > 1 {
			t.Errorf("probability out of range: %v", s)
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("distribution sums to %v", sum)
	}
}

func TestUnknownEntity(t *testing.T) {
	tax := appleTaxonomy()
	if cs := tax.Conceptualize("zzz", nil); cs != nil {
		t.Errorf("unknown entity returned %v", cs)
	}
	if got := tax.Best("zzz", nil); got != "" {
		t.Errorf("Best(zzz) = %q", got)
	}
}

func TestAccumulatingWeights(t *testing.T) {
	tax := NewTaxonomy()
	tax.AddIsA("x", "a", 1)
	tax.AddIsA("x", "a", 1)
	tax.AddIsA("x", "b", 2)
	cs := tax.Concepts("x")
	if math.Abs(cs[0].P-cs[1].P) > 1e-9 {
		t.Errorf("accumulated weights should tie at 0.5: %v", cs)
	}
}

func TestIgnoresNonPositiveWeights(t *testing.T) {
	tax := NewTaxonomy()
	tax.AddIsA("x", "a", 0)
	tax.AddIsA("x", "b", -1)
	if cs := tax.Concepts("x"); cs != nil {
		t.Errorf("non-positive weights registered: %v", cs)
	}
	tax.AddContextEvidence("c", "w", 0)
	if tax.concepts["c"] {
		t.Error("zero-weight context evidence registered a concept")
	}
}

func TestStopwordContextIgnored(t *testing.T) {
	tax := appleTaxonomy()
	// Context made only of stopwords must reduce to the prior.
	withStops := tax.Conceptualize("apple", []string{"the", "of", "is"})
	prior := tax.Concepts("apple")
	for i := range prior {
		if withStops[i].Concept != prior[i].Concept || math.Abs(withStops[i].P-prior[i].P) > 1e-9 {
			t.Errorf("stopword context changed distribution: %v vs %v", withStops, prior)
		}
	}
}

// Property: Conceptualize always returns a probability distribution
// (non-negative, sums to 1) for any registered entity and any context.
func TestConceptualizeDistributionProperty(t *testing.T) {
	tax := appleTaxonomy()
	f := func(ctxRaw string) bool {
		cs := tax.Conceptualize("apple", text.Tokenize(ctxRaw))
		var sum float64
		for _, s := range cs {
			if s.P < -1e-12 {
				return false
			}
			sum += s.P
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestNumConcepts(t *testing.T) {
	tax := appleTaxonomy()
	if got := len(tax.concepts); got != 2 {
		t.Errorf("%d concepts, want 2", got)
	}
	c := tax.Compile(text.NewVocab())
	_, fruit := c.ID("fruit")
	_, vegetable := c.ID("vegetable")
	if c.Len() != 2 || !fruit || vegetable || c.Name(0) != "company" || c.Name(1) != "fruit" {
		t.Error("the compiled concepts are wrong: IDs go to every concept, in name order")
	}
}

// referenceConceptualize is Conceptualize as it was written by name,
// before the compiled form: the surface normalized here, the stopword test
// run for every concept, the evidence read from the name-keyed maps, the
// result a fresh slice.
func referenceConceptualize(t *Taxonomy, entity string, contextTokens []string) []Scored {
	prior := t.isA[text.Normalize(entity)]
	if len(prior) == 0 {
		return nil
	}
	out := make([]Scored, len(prior))
	for i, s := range prior {
		like := 1.0
		ev := t.ctx[s.Concept]
		for _, w := range contextTokens {
			if text.IsStopword(w) {
				continue
			}
			like *= ctxSmoothing + ev[w]
		}
		out[i] = Scored{Concept: s.Concept, P: s.P * like}
	}
	return referenceNormalize(out)
}

// referenceNormalize is normalize by name.
func referenceNormalize(s []Scored) []Scored {
	var sum float64
	for _, c := range s {
		sum += c.P
	}
	if sum <= 0 {
		u := 1.0 / float64(len(s))
		for i := range s {
			s[i].P = u
		}
	} else {
		for i := range s {
			s[i].P /= sum
		}
	}
	slices.SortFunc(s, func(a, b Scored) int {
		if a.P != b.P {
			return cmp.Compare(b.P, a.P)
		}
		return cmp.Compare(a.Concept, b.Concept)
	})
	return s
}

// TestConceptualizeIntoEqualsReference checks the compiled form against the
// by-name reference over random taxonomies and contexts — stopwords,
// repeated words, words without evidence, words the vocabulary does not
// know, contexts longer than its stack buffer, tied concepts — bit for bit
// in P and in order (concept IDs in ascending name order), appended after
// whatever dst held, which it leaves alone; and Conceptualize, the adapter
// over it, agrees too, also after the taxonomy changes under it.
func TestConceptualizeIntoEqualsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	words := []string{"the", "of", "is", "who", "born", "ceo", "pie", "river", "city", "'s", "long", "unseen"}
	concepts := []string{"person", "city", "company", "fruit", "river", "band", "film"}
	for trial := 0; trial < 200; trial++ {
		tax := NewTaxonomy()
		entities := []string{"apple", "paris", "new york", "the nile"}
		// Every other trial draws whole weights, so that concepts tie and
		// the order of their IDs must be the order of their names.
		weight := func(max float64) float64 {
			if trial%2 == 0 {
				return float64(1 + rng.Intn(2))
			}
			return rng.Float64() * max
		}
		for _, e := range entities {
			for range 1 + rng.Intn(5) {
				tax.AddIsA(e, concepts[rng.Intn(len(concepts))], weight(3))
			}
		}
		for range rng.Intn(30) {
			tax.AddContextEvidence(concepts[rng.Intn(len(concepts))], words[rng.Intn(len(words)-1)], weight(5))
		}
		tax.Conceptualize("apple", nil) // compiled now; the change below must drop it
		tax.AddContextEvidence(concepts[rng.Intn(len(concepts))], words[rng.Intn(len(words)-1)], 1)
		vocab := text.NewVocab()
		c := tax.Compile(vocab)
		for _, e := range append(entities, "zzz") {
			ctx := make([]string, rng.Intn(40))
			for i := range ctx {
				ctx[i] = words[rng.Intn(len(words))]
			}
			want := referenceConceptualize(tax, e, ctx)
			head := []ScoredID{{99, 0.5}}
			got := c.ConceptualizeInto(slices.Clone(head), c.Priors(text.Normalize(e)), vocab.AppendIDs(nil, ctx))
			named := make([]Scored, 0, len(got))
			for _, s := range got[1:] {
				named = append(named, Scored{Concept: c.Name(s.Concept), P: s.P})
			}
			if !slices.Equal(got[:1], head) || !slices.Equal(named, want) {
				t.Fatalf("trial %d, %q in %q:\nConceptualizeInto %v\nreference         %v", trial, e, ctx, named, want)
			}
			if got := tax.Conceptualize(e, ctx); !slices.Equal(got, want) {
				t.Fatalf("trial %d, %q in %q: Conceptualize %v, reference %v", trial, e, ctx, got, want)
			}
		}
	}
}

// TestConceptualizeIntoAllocatesNothing: with room in dst the engine's
// per-mention call is free.
func TestConceptualizeIntoAllocatesNothing(t *testing.T) {
	tax := appleTaxonomy()
	vocab := text.NewVocab()
	c := tax.Compile(vocab)
	_, ctx := vocab.Tokenize("what is the headquarter of", nil, nil)
	prior := c.Priors("apple")
	var buf [8]ScoredID
	if n := testing.AllocsPerRun(100, func() { c.ConceptualizeInto(buf[:0], prior, ctx) }); n != 0 {
		t.Errorf("ConceptualizeInto allocates %v times, want 0", n)
	}
}

// TestConceptualizeConcurrent: the form Conceptualize compiles on first use
// is built and read from many goroutines at once, and each agrees with the
// reference.
func TestConceptualizeConcurrent(t *testing.T) {
	tax := appleTaxonomy()
	ctx := text.Tokenize("what is the headquarter of")
	want := referenceConceptualize(tax, "apple", ctx)
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 50 {
				if got := tax.Conceptualize("apple", ctx); !slices.Equal(got, want) {
					t.Errorf("Conceptualize = %v, reference %v", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}
