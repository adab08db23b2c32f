package learn

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/corpus"
	"repro/internal/extract"
	"repro/internal/kbgen"
	"repro/internal/qclass"
	"repro/internal/rdf"
)

// world builds a small KB + corpus + learner for tests.
func world(t testing.TB, scale, pairsPerIntent int) (*kbgen.KB, []QA, *Learner) {
	t.Helper()
	kb := kbgen.Generate(kbgen.Config{Seed: 42, Flavor: kbgen.Freebase, Scale: scale})
	pairs := corpus.Generate(kb, corpus.Config{Seed: 7, PairsPerIntent: pairsPerIntent, NoiseRate: 0.15})
	qa := make([]QA, len(pairs))
	for i, p := range pairs {
		qa[i] = QA{Q: p.Q, A: p.A}
	}
	l := &Learner{
		KB:       kb.Store,
		Taxonomy: kb.Taxonomy,
		Extractor: &extract.Extractor{
			KB:         kb.Store,
			Lexicon:    extract.NewLexicon(kb.Store),
			MaxPathLen: 3,
			EndFilter:  kb.EndFilter,
			PredClass:  kb.ClassOf,
		},
	}
	return kb, qa, l
}

func TestBuildObservations(t *testing.T) {
	_, qa, l := world(t, 20, 10)
	obs := l.BuildObservations(qa)
	if len(obs) == 0 {
		t.Fatal("no observations extracted")
	}
	for _, o := range obs {
		if len(o.Cands) == 0 {
			t.Fatal("observation without candidates")
		}
		for _, c := range o.Cands {
			if c.F <= 0 {
				t.Fatalf("non-positive f(x,z): %+v", c)
			}
			if c.Template == "" || c.Path == "" {
				t.Fatalf("empty candidate fields: %+v", c)
			}
		}
	}
}

func TestThetaIsDistribution(t *testing.T) {
	_, qa, l := world(t, 20, 15)
	m := l.Learn(qa)
	if m.NumTemplates() == 0 {
		t.Fatal("no templates learned")
	}
	for tpl, row := range m.Theta {
		var sum float64
		for _, v := range row {
			if v < -1e-12 || v > 1+1e-12 {
				t.Fatalf("P(p|%q) out of range: %v", tpl, v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("P(·|%q) sums to %v", tpl, sum)
		}
	}
}

// TestLearnsCorrectMappings is the headline correctness test: for the
// canonical templates the learned argmax predicate must be the gold one.
func TestLearnsCorrectMappings(t *testing.T) {
	_, qa, l := world(t, 30, 40)
	m := l.Learn(qa)

	cases := []struct {
		template string
		wantPred string
	}{
		{"how many people are there in $city", "population"},
		{"what is the population of $city", "population"},
		{"when was $person born", "dob"},
		{"who is the wife of $person", "marriage→person→name"},
		{"who is $person married to", "marriage→person→name"},
		{"what is the capital of $country", "capital"},
		{"who is the ceo of $company", "ceo"},
		{"who are the members of $band", "group_member→member→name"},
	}
	for _, c := range cases {
		dist := m.Theta[c.template]
		if dist == nil {
			t.Errorf("template %q not learned", c.template)
			continue
		}
		got, p := m.BestPred(c.template)
		if got != c.wantPred {
			t.Errorf("BestPred(%q) = %q (%.2f), want %q; dist=%v", c.template, got, p, c.wantPred, dist)
		}
	}
}

// TestEMOutvotesNoise: the corpus contains misleading answers quoting a
// different attribute of the entity. After EM, the correct predicate must
// dominate the noise predicate for a well-supported template.
func TestEMOutvotesNoise(t *testing.T) {
	_, qa, l := world(t, 30, 40)
	m := l.Learn(qa)
	dist := m.Theta["how many people are there in $city"]
	if dist == nil {
		t.Fatal("template missing")
	}
	for p, v := range dist {
		if p != "population" && v >= dist["population"] {
			t.Errorf("noise predicate %q (%.3f) not dominated by population (%.3f)", p, v, dist["population"])
		}
	}
}

func TestEMImprovesOverCounting(t *testing.T) {
	_, qa, l := world(t, 30, 30)
	obs := l.BuildObservations(qa)
	em := l.EM(obs)
	cnt := CountEstimate(obs)
	// EM's observed-data log-likelihood must be at least counting's.
	llEM := em.LogLikelihood
	llCnt := logLikelihood(obs, cnt.Theta)
	if llEM+1e-9 < llCnt {
		t.Errorf("EM log-likelihood %.4f below counting %.4f", llEM, llCnt)
	}
}

func TestEMMonotoneLikelihood(t *testing.T) {
	// EM's observed-data likelihood must be non-decreasing across sweeps.
	_, qa, l := world(t, 20, 15)
	obs := l.BuildObservations(qa)
	var prev float64 = math.Inf(-1)
	for iters := 1; iters <= 5; iters++ {
		l2 := *l
		l2.MaxIter = iters
		l2.Tol = 1e-300 // force exactly iters sweeps
		m := l2.EM(obs)
		if m.LogLikelihood+1e-9 < prev {
			t.Fatalf("likelihood decreased at iter %d: %.6f -> %.6f", iters, prev, m.LogLikelihood)
		}
		prev = m.LogLikelihood
	}
}

func TestEMDeterministic(t *testing.T) {
	_, qa, l := world(t, 20, 10)
	a := l.Learn(qa)
	b := l.Learn(qa)
	if a.NumTemplates() != b.NumTemplates() || a.Iterations != b.Iterations {
		t.Fatal("EM nondeterministic in shape")
	}
	for tpl, row := range a.Theta {
		for p, v := range row {
			if math.Abs(v-b.Theta[tpl][p]) > 1e-12 {
				t.Fatalf("EM nondeterministic at (%q, %q)", tpl, p)
			}
		}
	}
}

func TestTemplatesByFrequency(t *testing.T) {
	_, qa, l := world(t, 20, 20)
	m := l.Learn(qa)
	ranked := m.TemplatesByFrequency()
	if len(ranked) != m.NumTemplates() {
		t.Fatal("ranking size mismatch")
	}
	for i := 1; i < len(ranked); i++ {
		if m.TemplateFreq[ranked[i-1]] < m.TemplateFreq[ranked[i]] {
			t.Fatal("ranking not descending")
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	_, qa, l := world(t, 15, 8)
	m := l.Learn(qa)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if m2.NumTemplates() != m.NumTemplates() || m2.Iterations != m.Iterations {
		t.Fatal("round trip lost data")
	}
	for tpl, row := range m.Theta {
		for p, v := range row {
			if math.Abs(v-m2.Theta[tpl][p]) > 1e-15 {
				t.Fatal("round trip changed theta")
			}
		}
	}
}

func TestLoadModelGarbage(t *testing.T) {
	if _, err := LoadModel(bytes.NewReader([]byte("not a gob"))); err == nil {
		t.Fatal("expected error on garbage input")
	}
}

func TestEmptyCorpus(t *testing.T) {
	_, _, l := world(t, 10, 1)
	m := l.Learn(nil)
	if m.NumTemplates() != 0 || m.NumPredicates() != 0 {
		t.Fatal("empty corpus must give empty model")
	}
	if _, p := m.BestPred("anything"); p != 0 {
		t.Fatal("BestPred on empty model must be zero")
	}
}

// Property: the compiled Eq (23) rows are uniform distributions over
// feasible predicates, equal to the map-based initTheta, for arbitrary
// synthetic observation sets.
func TestInitThetaProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		var obs []Observation
		for i, b := range raw {
			obs = append(obs, Observation{
				Entity: rdf.ID(i),
				Cands: []Cand{
					{Template: "t" + string(rune('a'+b%3)), Path: "p" + string(rune('a'+b%5)), F: 0.5},
					{Template: "t" + string(rune('a'+b%3)), Path: "p" + string(rune('a'+(b+1)%5)), F: 0.5},
				},
			})
		}
		c, ref := compile(obs), initTheta(obs)
		flat := make([]float64, len(c.tmpl))
		c.uniform(flat)
		theta := make(map[string]map[string]float64)
		for k, v := range flat {
			tpl, path := c.templates[c.tmpl[k]], c.path[k]
			if ref[tpl][path] != v {
				return false
			}
			if theta[tpl] == nil {
				theta[tpl] = make(map[string]float64)
			}
			theta[tpl][path] = v
		}
		if len(theta) != len(ref) {
			return false
		}
		for _, row := range theta {
			var sum float64
			first := -1.0
			for _, v := range row {
				if first < 0 {
					first = v
				} else if math.Abs(v-first) > 1e-12 {
					return false // not uniform
				}
				sum += v
			}
			if math.Abs(sum-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestRefinementAblationChangesObservations(t *testing.T) {
	kb, qa, l := world(t, 20, 15)
	_ = kb
	with := len(l.BuildObservations(qa))
	l.Extractor.DisableRefinement = true
	without := len(l.BuildObservations(qa))
	if without <= with {
		t.Errorf("refinement off (%d) should admit more observations than on (%d)", without, with)
	}
}

var _ = qclass.Num // keep qclass import for documentation parity
