package kbqa

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"repro/internal/shardrpc"
)

var (
	sysOnce sync.Once
	sys     *System
)

func testSystem(t testing.TB) *System {
	t.Helper()
	sysOnce.Do(func() {
		s, err := Build(Options{Flavor: "freebase", Seed: 42, Scale: 30, PairsPerIntent: 40})
		if err != nil {
			panic(err)
		}
		sys = s
	})
	return sys
}

// ask is Query held to the BFQ / complex pipeline with no ranking, every
// failure folded into false — the yes/no view most of these tests want.
func ask(ctx context.Context, a Answerer, q string) (Answer, bool) {
	res, err := a.Query(ctx, q, WithoutVariants(), WithTopK(0))
	if err != nil || res.Answer == nil {
		return Answer{}, false
	}
	return *res.Answer, true
}

func TestBuildFlavors(t *testing.T) {
	if _, err := Build(Options{Flavor: "klingon"}); err == nil {
		t.Error("expected error for unknown flavor")
	}
	for _, f := range []string{"", "kba", "freebase", "dbpedia", "FB", "dbp"} {
		if _, err := (Options{Flavor: f}).worldConfig(); err != nil {
			t.Errorf("flavor %q refused: %v", f, err)
		}
	}
}

// TestBuildRefusesRepeatedShardServers: a shard-server list naming one
// address twice, or an empty one, fails Build before any dial, rather than
// giving every shard one host as two replicas.
func TestBuildRefusesRepeatedShardServers(t *testing.T) {
	for _, servers := range [][]string{{"127.0.0.1:1", "127.0.0.1:1"}, {"127.0.0.1:1", ""}} {
		_, err := Build(Options{Scale: 8, PairsPerIntent: 10, ShardServers: servers})
		if !errors.Is(err, shardrpc.ErrServerList) {
			t.Errorf("Build(ShardServers: %q) err = %v, want ErrServerList", servers, err)
		}
	}
}

func TestAskSampleQuestions(t *testing.T) {
	s := testSystem(t)
	qs := s.SampleQuestions(30)
	if len(qs) != 30 {
		t.Fatalf("got %d sample questions", len(qs))
	}
	answered := 0
	for _, q := range qs {
		if ans, ok := ask(context.Background(), s, q); ok {
			answered++
			if ans.Value == "" || ans.Predicate == "" || ans.Template == "" {
				t.Errorf("incomplete answer for %q: %+v", q, ans)
			}
		}
	}
	if answered < 25 {
		t.Errorf("answered only %d/30 sample questions", answered)
	}
}

func TestAskUnanswerable(t *testing.T) {
	s := testSystem(t)
	if _, ok := ask(context.Background(), s, "what is the airspeed velocity of an unladen swallow?"); ok {
		t.Error("answered an out-of-domain question")
	}
}

func TestComplexQuestionsAPI(t *testing.T) {
	s := testSystem(t)
	cqs := s.ComplexQuestions(7, 10)
	if len(cqs) == 0 {
		t.Fatal("no complex questions composed")
	}
	hits := 0
	for _, cq := range cqs {
		ans, ok := ask(context.Background(), s, cq.Q)
		if !ok {
			continue
		}
		gold := make(map[string]bool)
		for _, g := range cq.GoldAnswers {
			gold[g] = true
		}
		for _, v := range append(ans.Values, ans.Value) {
			if gold[v] {
				hits++
				break
			}
		}
	}
	if hits == 0 {
		t.Error("no complex question answered correctly through the public API")
	}
}

func TestStats(t *testing.T) {
	s := testSystem(t)
	st := s.Stats()
	if st.Flavor != "Freebase" || st.Entities == 0 || st.Triples == 0 ||
		st.Templates == 0 || st.Intents == 0 || st.CorpusSize == 0 {
		t.Errorf("degenerate stats: %+v", st)
	}
}

func TestSaveLoadModel(t *testing.T) {
	s := testSystem(t)
	var buf bytes.Buffer
	if err := s.SaveModel(&buf); err != nil {
		t.Fatal(err)
	}
	before := s.Stats().Templates
	if err := s.LoadModel(&buf); err != nil {
		t.Fatal(err)
	}
	if s.Stats().Templates != before {
		t.Error("model round trip changed template count")
	}
	// Still answers after reload.
	qs := s.SampleQuestions(5)
	ok := false
	for _, q := range qs {
		if _, o := ask(context.Background(), s, q); o {
			ok = true
		}
	}
	if !ok {
		t.Error("system stopped answering after model reload")
	}
	if err := s.LoadModel(strings.NewReader("garbage")); err == nil {
		t.Error("expected error loading garbage model")
	}
}

func TestFallbackAndBaselines(t *testing.T) {
	s := testSystem(t)
	syn, err := s.Baseline("synonym")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Baseline("kbqa"); err == nil {
		t.Error("kbqa must not be its own fallback")
	}
	if _, err := s.Baseline("nope"); err == nil {
		t.Error("expected error for unknown baseline")
	}
	hybrid := Chain(s, syn)
	// A question KBQA answers: hybrid result carries the predicate.
	q := s.SampleQuestions(1)[0]
	if ans, ok := ask(context.Background(), hybrid, q); !ok || ans.Predicate == "" {
		t.Errorf("hybrid lost the primary answer for %q", q)
	}
	// A question nobody answers.
	if _, err := hybrid.Query(context.Background(), "how do magnets work?"); !IsUnanswerable(err) {
		t.Errorf("hybrid on the unanswerable: err = %v, want a typed no-answer", err)
	}
}

// TestBaselineHonorsCancellation pins the regression kbqa-vet's
// ctxpropagate analyzer caught on the variant eval path: baselines used to
// evaluate under a fresh context.Background(); now the caller's context
// reaches the baseline answerer, which refuses to answer once it is
// cancelled.
func TestBaselineHonorsCancellation(t *testing.T) {
	s := testSystem(t)
	syn, err := s.Baseline("synonym")
	if err != nil {
		t.Fatal(err)
	}
	q := s.SampleQuestions(1)[0]
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := syn.Query(ctx, q); !errors.Is(err, context.Canceled) {
		t.Errorf("baseline under a cancelled context: err = %v", err)
	}
	if _, err := Chain(s, syn).Query(ctx, q); !errors.Is(err, context.Canceled) {
		t.Errorf("hybrid under a cancelled context: err = %v", err)
	}
}

func TestAskVariant(t *testing.T) {
	s := testSystem(t)
	variant := func(q string) *VariantAnswer {
		res, err := s.Query(context.Background(), q)
		if err != nil {
			return nil
		}
		return res.Variant
	}
	ans := variant("Which city has the largest population?")
	if ans == nil {
		t.Fatal("ranking variant not answered")
	}
	if ans.Kind != "ranking" || ans.Predicate != "population" || len(ans.Entities) != 1 {
		t.Fatalf("answer = %+v", ans)
	}
	list := variant("List cities ordered by population?")
	if list == nil || list.Kind != "listing" || len(list.Entities) < 2 {
		t.Fatalf("listing = %+v", list)
	}
	// The largest city heads the listing.
	if list.Entities[0] != ans.Entities[0] {
		t.Errorf("ranking and listing disagree: %q vs %q", ans.Entities[0], list.Entities[0])
	}
	if variant("what is love?") != nil {
		t.Error("non-variant answered")
	}
}

func TestLearnCustomCorpus(t *testing.T) {
	// Build a tiny fresh system (not the shared one: Learn mutates).
	s, err := Build(Options{Flavor: "dbpedia", Seed: 7, Scale: 12, PairsPerIntent: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Retrain on a subset of its own corpus: must stay functional.
	pairs := s.TrainingCorpus()
	if len(pairs) < 10 {
		t.Fatal("corpus too small")
	}
	s.Learn(pairs[:len(pairs)/2])
	if s.Stats().Templates == 0 {
		t.Fatal("Learn produced an empty model")
	}
	answered := false
	for _, q := range s.SampleQuestions(20) {
		if _, ok := ask(context.Background(), s, q); ok {
			answered = true
			break
		}
	}
	if !answered {
		t.Error("system answers nothing after retraining")
	}
}
