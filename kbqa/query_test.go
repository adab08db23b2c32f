package kbqa

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"
)

// equivalenceQuestions is the full eval equivalence suite: every training
// corpus question plus composed complex questions.
func equivalenceQuestions(s *System) []string {
	qs := make([]string, 0, len(s.world.Pairs)+20)
	seen := make(map[string]bool)
	for _, p := range s.world.Pairs {
		if !seen[p.Q] {
			seen[p.Q] = true
			qs = append(qs, p.Q)
		}
	}
	for _, cq := range s.ComplexQuestions(17, 20) {
		qs = append(qs, cq.Q)
	}
	return qs
}

// TestQueryTopK1MatchesAsk: with K=1 the Result's answer must be
// byte-identical to the raw engine argmax over the full equivalence suite,
// and the unanswerable set must map exactly onto typed errors.
func TestQueryTopK1MatchesAsk(t *testing.T) {
	s := testSystem(t)
	ctx := context.Background()
	answered := 0
	for _, q := range equivalenceQuestions(s) {
		raw, _, _, engErr := s.cur.Load().engine.Answer(ctx, q, 0, false)
		engineOK := engErr == nil
		res, err := s.Query(ctx, q, WithTopK(1), WithoutVariants())
		if engineOK != (err == nil) {
			t.Fatalf("answerability diverges for %q: engine %v, Query err %v", q, engineOK, err)
		}
		if !engineOK {
			if !IsUnanswerable(err) {
				t.Fatalf("unanswerable %q maps to non-typed error %v", q, err)
			}
			continue
		}
		answered++
		want := answerFromCore(raw)
		if res.Answer == nil || !reflect.DeepEqual(*res.Answer, want) {
			t.Fatalf("answer diverges for %q:\n  engine: %+v\n  query:  %+v", q, want, res.Answer)
		}
		if len(res.Interpretations) != 1 {
			t.Fatalf("WithTopK(1) returned %d interpretations for %q", len(res.Interpretations), q)
		}
	}
	if answered == 0 {
		t.Fatal("equivalence suite answered nothing")
	}
	t.Logf("K=1 byte-identical on %d answered questions", answered)
}

func TestQueryTopKRanking(t *testing.T) {
	s := testSystem(t)
	q := s.SampleQuestions(1)[0]
	res, err := s.Query(context.Background(), q, WithTopK(5))
	if err != nil {
		t.Fatalf("Query(%q): %v", q, err)
	}
	if res.Answer == nil || res.Variant != nil {
		t.Fatalf("BFQ routed wrong: %+v", res)
	}
	if len(res.Interpretations) == 0 || len(res.Interpretations) > 5 {
		t.Fatalf("got %d interpretations, want 1..5", len(res.Interpretations))
	}
	for i := 1; i < len(res.Interpretations); i++ {
		if res.Interpretations[i].Score > res.Interpretations[i-1].Score {
			t.Fatalf("interpretations not sorted by score: %+v", res.Interpretations)
		}
	}
	if res.Timings.Total <= 0 {
		t.Errorf("timings missing: %+v", res.Timings)
	}

	// Default K applies without options; K=0 disables ranking.
	if res, err := s.Query(context.Background(), q); err != nil || len(res.Interpretations) == 0 {
		t.Errorf("default Query lost interpretations: %v, %+v", err, res)
	}
	if res, err := s.Query(context.Background(), q, WithTopK(0)); err != nil || len(res.Interpretations) != 0 {
		t.Errorf("WithTopK(0) still ranked: %v, %+v", err, res)
	}
}

func TestQueryVariantAutoRouting(t *testing.T) {
	s := testSystem(t)
	ctx := context.Background()
	res, err := s.Query(ctx, "Which city has the largest population?")
	if err != nil {
		t.Fatalf("variant query: %v", err)
	}
	if res.Variant == nil || res.Answer != nil {
		t.Fatalf("variant not routed: %+v", res)
	}
	if res.Variant.Kind != "ranking" || res.Variant.Predicate != "population" {
		t.Fatalf("variant = %+v", res.Variant)
	}
	// Same question with variants disabled falls through to the BFQ
	// pipeline (and typically fails typed).
	if res, err := s.Query(ctx, "Which city has the largest population?", WithoutVariants()); err == nil && res.Variant != nil {
		t.Fatalf("WithoutVariants still routed a variant: %+v", res)
	}
}

func TestQueryTypedErrors(t *testing.T) {
	s := testSystem(t)
	ctx := context.Background()
	if _, err := s.Query(ctx, "why is the sky blue at noon"); !errors.Is(err, ErrNoEntity) {
		t.Errorf("err = %v, want ErrNoEntity", err)
	}
	if code := ErrorCode(ErrNoEntity); code != "no_entity" {
		t.Errorf("ErrorCode(ErrNoEntity) = %q", code)
	}
	if code := ErrorCode(ErrNoTemplate); code != "no_template" {
		t.Errorf("ErrorCode(ErrNoTemplate) = %q", code)
	}
	if code := ErrorCode(ErrNoAnswer); code != "no_answer" {
		t.Errorf("ErrorCode(ErrNoAnswer) = %q", code)
	}
	if code := ErrorCode(context.DeadlineExceeded); code != "timeout" {
		t.Errorf("ErrorCode(deadline) = %q", code)
	}
	if code := ErrorCode(nil); code != "" {
		t.Errorf("ErrorCode(nil) = %q", code)
	}
}

func TestQueryCancellation(t *testing.T) {
	s := testSystem(t)
	q := s.SampleQuestions(1)[0]

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if _, err := s.Query(ctx, q); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled query err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Errorf("cancelled query took %v, want prompt return", elapsed)
	}

	// WithTimeout plumbs a deadline without caller context surgery.
	if _, err := s.Query(context.Background(), q, WithTimeout(time.Nanosecond)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("1ns query err = %v, want deadline exceeded", err)
	}
}

// TestConcurrentQueryAndLearn exercises the documented guarantee that
// retraining is safe under traffic (run with -race): queries race Learn
// and must each complete against a coherent engine snapshot.
func TestConcurrentQueryAndLearn(t *testing.T) {
	s, err := Build(Options{Flavor: "dbpedia", Seed: 7, Scale: 12, PairsPerIntent: 8})
	if err != nil {
		t.Fatal(err)
	}
	qs := s.SampleQuestions(6)
	pairs := s.TrainingCorpus()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := qs[(g+i)%len(qs)]
				if _, err := s.Query(ctx, q); err != nil && !IsUnanswerable(err) {
					t.Errorf("Query(%q) under Learn: %v", q, err)
					return
				}
			}
		}(g)
	}
	for i := 0; i < 3; i++ {
		s.Learn(pairs[:len(pairs)-i])
		s.Stats()
	}
	close(stop)
	wg.Wait()
}

func TestChainFallsThroughTypedErrors(t *testing.T) {
	s := testSystem(t)
	ctx := context.Background()
	syn, err := s.Baseline("synonym")
	if err != nil {
		t.Fatal(err)
	}
	hybrid := Chain(s, syn)

	// A question the primary answers: the chain returns the primary's
	// full result, interpretations included.
	q := s.SampleQuestions(1)[0]
	res, err := hybrid.Query(ctx, q)
	if err != nil || res.Answer == nil || res.Answer.Predicate == "" {
		t.Fatalf("chain lost the primary answer for %q: %v %+v", q, err, res)
	}
	// A question nobody answers keeps the primary's typed classification.
	if _, err := hybrid.Query(ctx, "how do magnets work at night?"); !IsUnanswerable(err) {
		t.Errorf("exhausted chain err = %v, want typed unanswerable", err)
	}
}

// fakeAnswerer scripts one Answerer response for chain plumbing tests.
type fakeAnswerer struct {
	res   *Result
	err   error
	calls int
}

func (f *fakeAnswerer) Query(context.Context, string, ...QueryOption) (*Result, error) {
	f.calls++
	return f.res, f.err
}

func TestChainAbortsOnContextError(t *testing.T) {
	primary := &fakeAnswerer{err: context.DeadlineExceeded}
	fallback := &fakeAnswerer{res: &Result{}}
	if _, err := Chain(primary, fallback).Query(context.Background(), "q"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if fallback.calls != 0 {
		t.Error("chain burned budget on a fallback after a context error")
	}

	// Typed errors do fall through, first error wins on exhaustion.
	primary = &fakeAnswerer{err: ErrNoTemplate}
	fallback = &fakeAnswerer{err: ErrNoAnswer}
	if _, err := Chain(primary, fallback).Query(context.Background(), "q"); !errors.Is(err, ErrNoTemplate) {
		t.Fatalf("exhausted chain err = %v, want primary's ErrNoTemplate", err)
	}
	if fallback.calls != 1 {
		t.Error("fallback not consulted on typed error")
	}
}

func TestBaselineAnswerer(t *testing.T) {
	s := testSystem(t)
	if _, err := s.Baseline("kbqa"); err == nil {
		t.Error("kbqa must not be its own fallback")
	}
	if _, err := s.Baseline("nope"); err == nil {
		t.Error("expected error for unknown baseline")
	}
	rule, err := s.Baseline("rule")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := rule.Query(ctx, "What is the population of nowhere?"); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled baseline err = %v, want context.Canceled", err)
	}
}

// TestOptionsDefaults covers every Options field: the zero value resolves
// to the documented defaults, every explicit field overrides, and the
// NoiseRate pointer distinguishes unset from an explicit zero (the old
// `> 0` check silently swallowed NoiseRate: 0).
func TestOptionsDefaults(t *testing.T) {
	def, err := Options{}.worldConfig()
	if err != nil {
		t.Fatal(err)
	}
	if def.Flavor.String() != "Freebase" || def.Seed != 42 || def.Scale != 30 ||
		def.PairsPerIntent != 40 || def.NoiseRate != 0.15 || def.Shards != 4 {
		t.Fatalf("zero-Options defaults = %+v", def)
	}

	full, err := Options{
		Flavor:         "dbpedia",
		Seed:           9,
		Scale:          11,
		PairsPerIntent: 13,
		NoiseRate:      Noise(0.3),
		Shards:         2,
	}.worldConfig()
	if err != nil {
		t.Fatal(err)
	}
	if full.Flavor.String() != "DBpedia" || full.Seed != 9 || full.Scale != 11 ||
		full.PairsPerIntent != 13 || full.NoiseRate != 0.3 || full.Shards != 2 {
		t.Fatalf("explicit Options lost a field: %+v", full)
	}

	noiseFree, err := Options{NoiseRate: Noise(0)}.worldConfig()
	if err != nil {
		t.Fatal(err)
	}
	if noiseFree.NoiseRate != 0 {
		t.Fatalf("Noise(0) resolved to %v, want 0 (the zero-value bug)", noiseFree.NoiseRate)
	}

	if _, err := (Options{Flavor: "klingon"}).worldConfig(); err == nil {
		t.Error("expected error for unknown flavor")
	}
}

// TestNoiseFreeBuild proves Noise(0) reaches corpus generation: the built
// corpus contains no corrupted pairs.
func TestNoiseFreeBuild(t *testing.T) {
	s, err := Build(Options{Flavor: "dbpedia", Seed: 5, Scale: 8, PairsPerIntent: 6, NoiseRate: Noise(0)})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range s.world.Pairs {
		if p.Noise {
			t.Fatal("Noise(0) corpus still contains a corrupted pair")
		}
	}
	if len(s.world.Pairs) == 0 {
		t.Fatal("empty corpus")
	}
}
