package learn

import (
	"math"
	"reflect"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/corpus"
	"repro/internal/extract"
	"repro/internal/kbgen"
)

// referenceEM is Algorithm 1 over string-keyed maps, as EM ran before it
// compiled the candidates into cells: the literal form EM must equal bit
// for bit.
func referenceEM(l *Learner, obs []Observation) *Model {
	theta := initTheta(obs) // Eq 23

	maxIter := l.maxIter()
	tol := l.tol()
	iters := 0
	for iter := 0; iter < maxIter; iter++ {
		iters = iter + 1
		next := make(map[string]map[string]float64, len(theta))
		sums := make(map[string]float64, len(theta))
		for i := range obs {
			o := &obs[i]
			var norm float64
			for _, c := range o.Cands {
				norm += c.F * theta[c.Template][c.Path]
			}
			if norm <= 0 {
				continue
			}
			for _, c := range o.Cands {
				post := c.F * theta[c.Template][c.Path] / norm
				row := next[c.Template]
				if row == nil {
					row = make(map[string]float64)
					next[c.Template] = row
				}
				row[c.Path] += post
				sums[c.Template] += post
			}
		}
		for t, row := range next {
			for p := range row {
				row[p] /= sums[t]
			}
		}
		delta := maxDelta(theta, next)
		theta = next
		if delta < tol {
			break
		}
	}

	m := &Model{Theta: theta, TemplateFreq: templateFreq(obs), Iterations: iters}
	m.LogLikelihood = logLikelihood(obs, theta)
	return m
}

// referenceCountEstimate is CountEstimate over string-keyed maps.
func referenceCountEstimate(obs []Observation) *Model {
	theta := make(map[string]map[string]float64)
	sums := make(map[string]float64)
	for i := range obs {
		for _, c := range obs[i].Cands {
			row := theta[c.Template]
			if row == nil {
				row = make(map[string]float64)
				theta[c.Template] = row
			}
			row[c.Path] += c.F
			sums[c.Template] += c.F
		}
	}
	for t, row := range theta {
		for p := range row {
			row[p] /= sums[t]
		}
	}
	return &Model{Theta: theta, TemplateFreq: templateFreq(obs)}
}

func templateFreq(obs []Observation) map[string]int {
	freq := make(map[string]int)
	for i := range obs {
		seen := make(map[string]bool)
		for _, c := range obs[i].Cands {
			if !seen[c.Template] {
				seen[c.Template] = true
				freq[c.Template]++
			}
		}
	}
	return freq
}

// initTheta implements Eq (23) over maps.
func initTheta(obs []Observation) map[string]map[string]float64 {
	feasible := make(map[string]map[string]bool)
	for i := range obs {
		for _, c := range obs[i].Cands {
			set := feasible[c.Template]
			if set == nil {
				set = make(map[string]bool)
				feasible[c.Template] = set
			}
			set[c.Path] = true
		}
	}
	theta := make(map[string]map[string]float64, len(feasible))
	for t, set := range feasible {
		row := make(map[string]float64, len(set))
		u := 1.0 / float64(len(set))
		for p := range set {
			row[p] = u
		}
		theta[t] = row
	}
	return theta
}

func maxDelta(old, new map[string]map[string]float64) float64 {
	var d float64
	for t, row := range new {
		oldRow := old[t]
		for p, v := range row {
			if dv := math.Abs(v - oldRow[p]); dv > d {
				d = dv
			}
		}
	}
	return d
}

// logLikelihood computes L(θ) of Eq (16) up to the additive constant from β.
func logLikelihood(obs []Observation, theta map[string]map[string]float64) float64 {
	var ll float64
	for i := range obs {
		var px float64
		for _, c := range obs[i].Cands {
			px += c.F * theta[c.Template][c.Path]
		}
		if px > 0 {
			ll += math.Log(px)
		}
	}
	return ll
}

// flavorWorld builds the corpus and learner of a server's default world of
// one flavor and seed.
func flavorWorld(t testing.TB, f kbgen.Flavor, seed int64) ([]QA, *Learner) {
	t.Helper()
	pairsPerIntent := map[kbgen.Flavor]int{kbgen.KBA: 80, kbgen.Freebase: 40, kbgen.DBpedia: 28}[f]
	kb := kbgen.Generate(kbgen.Config{Seed: seed, Flavor: f})
	pairs := corpus.Generate(kb, corpus.Config{Seed: seed + 1, PairsPerIntent: pairsPerIntent, NoiseRate: 0.15})
	qa := make([]QA, len(pairs))
	for i, p := range pairs {
		qa[i] = QA{Q: p.Q, A: p.A}
	}
	return qa, &Learner{
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
}

// sameModel fails unless a and b agree bit for bit on θ and exactly on
// everything else.
func sameModel(t *testing.T, a, b *Model) {
	t.Helper()
	if len(a.Theta) != len(b.Theta) {
		t.Fatalf("%d templates, reference %d", len(a.Theta), len(b.Theta))
	}
	for tpl, row := range b.Theta {
		got := a.Theta[tpl]
		if len(got) != len(row) {
			t.Fatalf("template %q: %d predicates, reference %d", tpl, len(got), len(row))
		}
		for p, v := range row {
			if w, ok := got[p]; !ok || math.Float64bits(w) != math.Float64bits(v) {
				t.Fatalf("θ(%q | %q) = %v (present %v), reference %v", p, tpl, w, ok, v)
			}
		}
	}
	if a.Iterations != b.Iterations {
		t.Errorf("Iterations = %d, reference %d", a.Iterations, b.Iterations)
	}
	if math.Float64bits(a.LogLikelihood) != math.Float64bits(b.LogLikelihood) {
		t.Errorf("LogLikelihood = %v, reference %v", a.LogLikelihood, b.LogLikelihood)
	}
	if !reflect.DeepEqual(a.TemplateFreq, b.TemplateFreq) {
		t.Error("TemplateFreq differs from the reference")
	}
}

// TestEMMatchesReference: the cell-table EM learns what the map-based
// Algorithm 1 learns, to the bit, on every flavor's default world, for a
// full run and for runs stopped after one and two sweeps; so does the
// counting baseline.
func TestEMMatchesReference(t *testing.T) {
	seeds := []int64{42, 7}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, f := range []kbgen.Flavor{kbgen.KBA, kbgen.Freebase, kbgen.DBpedia} {
		for _, seed := range seeds {
			t.Run(f.String()+"/"+strconv.FormatInt(seed, 10), func(t *testing.T) {
				qa, l := flavorWorld(t, f, seed)
				obs := l.BuildObservations(qa)
				if len(obs) == 0 {
					t.Fatal("no observations")
				}
				for _, maxIter := range []int{0, 1, 2} {
					l2 := *l
					l2.MaxIter = maxIter
					sameModel(t, l2.EM(obs), referenceEM(&l2, obs))
				}
				sameModel(t, CountEstimate(obs), referenceCountEstimate(obs))
			})
		}
	}
	var empty Learner
	sameModel(t, empty.EM(nil), referenceEM(&empty, nil))
}

// TestBuildObservationsIndependentOfWorkers: one worker and four build
// the same observations in the same order.
func TestBuildObservationsIndependentOfWorkers(t *testing.T) {
	qa, l := flavorWorld(t, kbgen.Freebase, 42)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	one := l.BuildObservations(qa)
	runtime.GOMAXPROCS(4)
	four := l.BuildObservations(qa)
	if len(one) == 0 {
		t.Fatal("no observations")
	}
	if !reflect.DeepEqual(one, four) {
		t.Fatal("observations depend on the worker count")
	}
}

// TestEMSweepAllocatesNothing: EM allocates its cell table, its θ and the
// returned Model, and no sweep allocates: thirty sweeps cost what one does.
func TestEMSweepAllocatesNothing(t *testing.T) {
	qa, l := flavorWorld(t, kbgen.DBpedia, 42)
	obs := l.BuildObservations(qa)
	allocs := func(maxIter int) float64 {
		l2 := *l
		l2.MaxIter, l2.Tol = maxIter, 1e-300 // no early stop
		if m := l2.EM(obs); m.Iterations != maxIter {
			t.Fatalf("ran %d sweeps, want %d", m.Iterations, maxIter)
		}
		return testing.AllocsPerRun(3, func() { l2.EM(obs) })
	}
	if one, thirty := allocs(1), allocs(30); one != thirty {
		t.Errorf("EM allocates %v times with one sweep and %v with thirty", one, thirty)
	}
}
