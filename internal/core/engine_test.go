package core

import (
	"context"
	"strings"
	"sync"
	"testing"

	"repro/internal/corpus"
	"repro/internal/decompose"
	"repro/internal/extract"
	"repro/internal/kbgen"
	"repro/internal/learn"
	"repro/internal/rdf"
	"repro/internal/text"
)

// fixture is a fully trained world, built once and shared by the tests.
type fixture struct {
	kb     *kbgen.KB
	pairs  []corpus.Pair
	model  *learn.Model
	engine *Engine
}

var (
	fixOnce sync.Once
	fix     *fixture
)

func world(t testing.TB) *fixture {
	t.Helper()
	fixOnce.Do(func() {
		kb := kbgen.Generate(kbgen.Config{Seed: 42, Flavor: kbgen.Freebase, Scale: 30})
		pairs := corpus.Generate(kb, corpus.Config{Seed: 7, PairsPerIntent: 40, NoiseRate: 0.15})
		symbols := CompileSymbols(kb.Store)
		learner := &learn.Learner{
			KB:       kb.Store,
			Taxonomy: kb.Taxonomy,
			Extractor: &extract.Extractor{
				KB:         kb.Store,
				Lexicon:    symbols.Lexicon,
				MaxPathLen: 3,
				EndFilter:  kb.EndFilter,
				PredClass:  kb.ClassOf,
			},
		}
		qa := make([]learn.QA, len(pairs))
		for i, p := range pairs {
			qa[i] = learn.QA{Q: p.Q, A: p.A}
		}
		model := learner.Learn(qa)
		stats := decompose.BuildStats(corpus.Questions(pairs), symbols.Lexicon.Has)
		engine := NewEngine(symbols, LocalIndex(kb.Store), kb.Taxonomy, model, stats)
		fix = &fixture{kb: kb, pairs: pairs, model: model, engine: engine}
	})
	return fix
}

// ask, askCtx, askBFQ and askVariant are the tests' shorthands over the
// engine's one entry point (askBFQ: over the BFQ routine under it): no
// ranking, no timings, and for the bool forms a background context with any
// failure folded into false.
func ask(e *Engine, q string) (Answer, bool) {
	ans, err := askCtx(context.Background(), e, q)
	return ans, err == nil
}

func askCtx(ctx context.Context, e *Engine, q string) (Answer, error) {
	ans, _, _, err := e.Answer(ctx, q, 0, false)
	return ans, err
}

func askBFQ(e *Engine, q string) (Answer, bool) {
	ans, _, err := e.bfq(context.Background(), &parsed{toks: text.Tokenize(q)}, nil, nil)
	return ans, err == nil
}

func askVariant(e *Engine, q string) (VariantAnswer, bool) {
	ans, _, _, err := e.Answer(context.Background(), q, 0, true)
	if err != nil || ans.Variant == nil {
		return VariantAnswer{}, false
	}
	return *ans.Variant, true
}

// TestAnswersCleanCorpusQuestions checks end-to-end accuracy on the clean
// training questions themselves: the engine must find the gold predicate
// for the overwhelming majority.
func TestAnswersCleanCorpusQuestions(t *testing.T) {
	f := world(t)
	total, rightPred, rightValue := 0, 0, 0
	for _, p := range f.pairs {
		if p.Noise {
			continue
		}
		total++
		ans, ok := askBFQ(f.engine, p.Q)
		if !ok {
			continue
		}
		if ans.Path == p.GoldPath {
			rightPred++
			goldLabel := text.Normalize(f.kb.Store.Label(p.GoldValue))
			for _, v := range ans.Values {
				if v == goldLabel {
					rightValue++
					break
				}
			}
		}
	}
	predAcc := float64(rightPred) / float64(total)
	valAcc := float64(rightValue) / float64(total)
	if predAcc < 0.85 {
		t.Errorf("gold-predicate accuracy = %.3f (%d/%d), want >= 0.85", predAcc, rightPred, total)
	}
	if valAcc < 0.75 {
		t.Errorf("gold-value accuracy = %.3f (%d/%d), want >= 0.75", valAcc, rightValue, total)
	}
}

// TestExample1 reproduces the paper's Example 1 flow on a synthetic city:
// a population question must resolve through the population predicate.
func TestExample1PopulationFlow(t *testing.T) {
	f := world(t)
	city := f.kb.ByCategory["city"][0]
	label := f.kb.Store.Label(city)
	q := "How many people are there in " + text.TitleCase(label) + "?"
	ans, ok := askBFQ(f.engine, q)
	if !ok {
		t.Fatalf("no answer for %q", q)
	}
	if ans.Path != "population" {
		t.Errorf("Path = %q, want population (template %q)", ans.Path, ans.Template)
	}
	if !strings.Contains(ans.Template, "$") {
		t.Errorf("template has no concept placeholder: %q", ans.Template)
	}
}

func TestExpandedPredicateAnswer(t *testing.T) {
	f := world(t)
	// Find a married person.
	path, _ := rdf.ParsePath(f.kb.Store, "marriage→person→name")
	var subject string
	var want string
	for _, p := range f.kb.ByCategory["person"] {
		objs := rdf.PathObjects(f.kb.Store, p, path)
		if len(objs) > 0 {
			subject = f.kb.Store.Label(p)
			want = text.Normalize(f.kb.Store.Label(objs[0]))
			break
		}
	}
	if subject == "" {
		t.Fatal("no married person in KB")
	}
	ans, ok := askBFQ(f.engine, "Who is the wife of "+text.TitleCase(subject)+"?")
	if !ok {
		t.Fatal("no answer")
	}
	if ans.Path != "marriage→person→name" {
		t.Errorf("Path = %q", ans.Path)
	}
	if ans.Value != want {
		t.Errorf("Value = %q, want %q", ans.Value, want)
	}
}

func TestNullAnswer(t *testing.T) {
	f := world(t)
	if _, ok := askBFQ(f.engine, "What is the meaning of life?"); ok {
		t.Error("expected null answer for out-of-KB question")
	}
	if _, ok := askBFQ(f.engine, ""); ok {
		t.Error("expected null answer for empty question")
	}
	// Known entity, unknown intent.
	city := f.kb.Store.Label(f.kb.ByCategory["city"][0])
	if _, ok := askBFQ(f.engine, "What is the favorite color of "+city+"?"); ok {
		t.Error("expected null for unlearnable intent")
	}
}

func TestComplexQuestions(t *testing.T) {
	f := world(t)
	cps := corpus.ComposeComplex(f.kb, 99, 30)
	if len(cps) < 10 {
		t.Fatalf("only %d complex questions composed", len(cps))
	}
	answered, right := 0, 0
	for _, cp := range cps {
		ans, ok := ask(f.engine, cp.Q)
		if !ok {
			continue
		}
		answered++
		gold := make(map[string]bool, len(cp.GoldAnswers))
		for _, g := range cp.GoldAnswers {
			gold[g] = true
		}
		hit := false
		for _, v := range ans.Values {
			if gold[v] {
				hit = true
				break
			}
		}
		if hit {
			right++
		}
	}
	if answered == 0 {
		t.Fatal("no complex questions answered")
	}
	acc := float64(right) / float64(answered)
	if acc < 0.6 {
		t.Errorf("complex-question precision = %.2f (%d/%d), want >= 0.6", acc, right, answered)
	}
	t.Logf("complex: answered %d/%d, right %d (precision %.2f)", answered, len(cps), right, acc)
}

func TestComplexAnswerHasSteps(t *testing.T) {
	f := world(t)
	// "When was X's wife born?" for a married person.
	path, _ := rdf.ParsePath(f.kb.Store, "marriage→person→name")
	var subject string
	for _, p := range f.kb.ByCategory["person"] {
		if len(rdf.PathObjects(f.kb.Store, p, path)) > 0 {
			subject = f.kb.Store.Label(p)
			break
		}
	}
	q := "When was " + text.TitleCase(subject) + "'s wife born?"
	ans, ok := ask(f.engine, q)
	if !ok {
		t.Fatalf("no answer for %q", q)
	}
	if len(ans.Steps) < 2 {
		t.Fatalf("expected a decomposed answer for %q (got path %q)", q, ans.Path)
	}
	if len(ans.Steps) != 2 {
		t.Fatalf("steps = %+v", ans.Steps)
	}
	if ans.Steps[0].Path != "marriage→person→name" || ans.Steps[1].Path != "dob" {
		t.Errorf("step paths = %q, %q", ans.Steps[0].Path, ans.Steps[1].Path)
	}
}

// TestChainTraceRecordsExecutedQuestions checks the executeChain trace: the
// recorded Step.Question must be a question the engine actually executed
// (the winning binding of the previous step's values), not a question
// fabricated from the previous step's single argmax value, and Questions
// must list the full fan-out.
func TestChainTraceRecordsExecutedQuestions(t *testing.T) {
	f := world(t)
	path, _ := rdf.ParsePath(f.kb.Store, "marriage→person→name")
	var subject string
	for _, p := range f.kb.ByCategory["person"] {
		if len(rdf.PathObjects(f.kb.Store, p, path)) > 0 {
			subject = f.kb.Store.Label(p)
			break
		}
	}
	q := "When was " + text.TitleCase(subject) + "'s wife born?"
	ans, ok := ask(f.engine, q)
	if !ok || len(ans.Steps) < 2 {
		t.Fatalf("no decomposed answer for %q", q)
	}
	for i, st := range ans.Steps {
		if len(st.Questions) == 0 {
			t.Fatalf("step %d records no executed questions", i)
		}
		found := false
		for _, exec := range st.Questions {
			if exec == st.Question {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("step %d: winning question %q not among executed %q", i, st.Question, st.Questions)
		}
	}
}

func TestAnswerFallsBackToBFQ(t *testing.T) {
	f := world(t)
	city := f.kb.Store.Label(f.kb.ByCategory["city"][0])
	ans, ok := ask(f.engine, "What is the population of "+text.TitleCase(city)+"?")
	if !ok {
		t.Fatal("no answer")
	}
	if len(ans.Steps) > 1 {
		t.Error("simple BFQ must not be decomposed into multiple steps")
	}
	if ans.Path != "population" {
		t.Errorf("Path = %q", ans.Path)
	}
}

func TestAmbiguousEntityResolution(t *testing.T) {
	f := world(t)
	// "paris" is a city and a person. A population question must pick the
	// city sense.
	ans, ok := askBFQ(f.engine, "How many people are there in Paris?")
	if !ok {
		t.Skip("ambiguous entity not answerable in this world")
	}
	if ans.Path != "population" {
		t.Errorf("Path = %q, want population", ans.Path)
	}
	cityIDs := map[string]bool{}
	for _, c := range f.kb.ByCategory["city"] {
		cityIDs[f.kb.Store.Label(c)] = true
	}
	if f.kb.Store.KindOf(ans.Entity) == 0 && !cityIDs["paris"] {
		t.Log("paris city not present") // defensive; generation injects it
	}
}

func TestScoreMonotonicity(t *testing.T) {
	f := world(t)
	city := f.kb.Store.Label(f.kb.ByCategory["city"][0])
	ans, ok := askBFQ(f.engine, "What is the population of "+city+"?")
	if !ok {
		t.Fatal("no answer")
	}
	if ans.Score <= 0 || ans.Score > 1+1e-9 {
		t.Errorf("score %v outside (0, 1]", ans.Score)
	}
}
