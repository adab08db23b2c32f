// Package learn implements the offline heart of KBQA: maximum-likelihood
// estimation of the template→predicate distribution P(p|t) from a QA corpus
// by Expectation-Maximization (Sec 4, Algorithm 1).
//
// The pipeline follows the paper exactly:
//
//  1. Each QA pair (q_i, a_i) is reduced to question–entity–value triples
//     X = {(q_i, e, v)} via joint entity–value extraction (Sec 4.1.1,
//     package extract); Eq (13) shows the corpus likelihood is proportional
//     to the likelihood of X.
//  2. For each observation x_i the latent variable z_i = (p, t) ranges over
//     the predicates connecting e to v and the templates derivable from
//     (q_i, e) by conceptualization; f(x_i, z_i) (Eq 19) collects the
//     EM-constant factors P(e|q)·P(t|e,q)·P(v|e,p).
//  3. θ_pt = P(p|t) is initialized uniformly over feasible pairs (Eq 23)
//     and iterated with the E-step (Eq 21) and M-step (Eq 22) until
//     convergence.
//
// The pruning observations of Sec 4.3 fall out of the representation: only
// candidates with f > 0 are ever materialized, so each EM sweep is O(m)
// in the number of observations.
package learn

import (
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/extract"
	"repro/internal/rdf"
	"repro/internal/template"
	"repro/internal/text"

	"repro/internal/concept"
)

// QA is one question–answer pair of the training corpus.
type QA struct {
	Q string
	A string
}

// Cand is one latent candidate z = (p, t) for an observation, with its
// constant factor f(x, z).
type Cand struct {
	Template string // canonical template text
	Path     string // arrow-notation predicate key
	F        float64
}

// Observation is one x_i = (q_i, e_i, v_i) with its candidate set.
type Observation struct {
	Q      string
	Entity rdf.ID
	Value  rdf.ID
	Cands  []Cand
}

// Model is the learned P(p|t) distribution plus bookkeeping used by the
// evaluation (template frequencies for Table 13 ranking, observation
// counts for Table 12/16 coverage).
type Model struct {
	// Theta maps template text -> predicate path key -> P(p|t).
	Theta map[string]map[string]float64
	// TemplateFreq counts the observations that support each template.
	TemplateFreq map[string]int
	// Iterations is the number of EM sweeps run.
	Iterations int
	// LogLikelihood is the final observed-data log-likelihood (up to the
	// constant β of Eq 13).
	LogLikelihood float64
}

// BestPred returns the argmax predicate for a template and its probability.
func (m *Model) BestPred(t string) (string, float64) {
	var best string
	var bp float64
	for p, v := range m.Theta[t] {
		if v > bp || (v == bp && p < best) {
			best, bp = p, v
		}
	}
	return best, bp
}

// NumTemplates returns the number of distinct templates learned.
func (m *Model) NumTemplates() int { return len(m.Theta) }

// NumPredicates returns the number of distinct predicates (direct or
// expanded) that appear in the model.
func (m *Model) NumPredicates() int {
	set := make(map[string]bool)
	for _, dist := range m.Theta {
		for p := range dist {
			set[p] = true
		}
	}
	return len(set)
}

// TemplatesByFrequency returns template texts ordered by descending
// support count (ties by text), as used to pick "top templates" in
// Table 13.
func (m *Model) TemplatesByFrequency() []string {
	out := make([]string, 0, len(m.TemplateFreq))
	for t := range m.TemplateFreq {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool {
		fi, fj := m.TemplateFreq[out[i]], m.TemplateFreq[out[j]]
		if fi != fj {
			return fi > fj
		}
		return out[i] < out[j]
	})
	return out
}

// Fingerprint returns a deterministic content hash of the model —
// iteration is sorted, so equal models hash equal regardless of map
// layout (gob serialization does not have this property), and θ values
// are quantized to 1e-6 so last-bit float differences (another
// platform's arithmetic, a changed summation order) don't make
// re-learned-identical models look different across processes. The
// serving layer uses the hash to bind persisted cache generations to the
// model that computed them.
func (m *Model) Fingerprint() uint64 {
	h := fnv.New64a()
	writeU64 := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	ts := make([]string, 0, len(m.Theta))
	for t := range m.Theta {
		ts = append(ts, t)
	}
	sort.Strings(ts)
	for _, t := range ts {
		io.WriteString(h, t)
		h.Write([]byte{0})
		dist := m.Theta[t]
		ps := make([]string, 0, len(dist))
		for p := range dist {
			ps = append(ps, p)
		}
		sort.Strings(ps)
		for _, p := range ps {
			io.WriteString(h, p)
			h.Write([]byte{0})
			writeU64(uint64(int64(math.Round(dist[p] * 1e6))))
		}
		writeU64(uint64(m.TemplateFreq[t]))
	}
	return h.Sum64()
}

// Save writes the model with encoding/gob.
func (m *Model) Save(w io.Writer) error {
	if err := gob.NewEncoder(w).Encode(m); err != nil {
		return fmt.Errorf("learn: encode model: %w", err)
	}
	return nil
}

// LoadModel reads a model written by Save.
func LoadModel(r io.Reader) (*Model, error) {
	var m Model
	if err := gob.NewDecoder(r).Decode(&m); err != nil {
		return nil, fmt.Errorf("learn: decode model: %w", err)
	}
	return &m, nil
}

// Learner wires the substrates needed to build observations and run EM.
type Learner struct {
	KB        *rdf.Store
	Taxonomy  *concept.Taxonomy
	Extractor *extract.Extractor
	// MaxIter bounds EM sweeps (default 30).
	MaxIter int
	// Tol is the convergence threshold on the max |Δθ| (default 1e-6).
	Tol float64
}

func (l *Learner) maxIter() int {
	if l.MaxIter <= 0 {
		return 30
	}
	return l.MaxIter
}

func (l *Learner) tol() float64 {
	if l.Tol <= 0 {
		return 1e-6
	}
	return l.Tol
}

// BuildObservations converts QA pairs into EM observations. Pairs from
// which no (entity, value) can be extracted contribute nothing, exactly as
// in the paper (they only scale the constant β of Eq 13). The pairs are
// read on GOMAXPROCS workers, each writing its pair's observations into
// that pair's own slot, and the slots are joined in pair order: the result
// does not depend on the worker count.
func (l *Learner) BuildObservations(pairs []QA) []Observation {
	slots := make([][]Observation, len(pairs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(pairs)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(pairs); i = int(next.Add(1)) - 1 {
				slots[i] = l.observe(pairs[i])
			}
		}()
	}
	wg.Wait()
	var out []Observation
	for _, s := range slots {
		out = append(out, s...)
	}
	return out
}

// observe returns one pair's observations.
func (l *Learner) observe(qa QA) []Observation {
	qToks := text.Tokenize(qa.Q)
	mentions := l.Extractor.Lexicon.Find(qToks)
	evs := l.Extractor.EntityValuesOf(qToks, mentions, qa.A)
	if len(evs) == 0 {
		return nil
	}
	prior := extract.EntityPrior(evs)
	var out []Observation
	for _, ev := range evs {
		cands := l.candidates(qToks, mentions, ev, prior[ev.Entity])
		if len(cands) == 0 {
			continue
		}
		out = append(out, Observation{
			Q:      qa.Q,
			Entity: ev.Entity,
			Value:  ev.Value,
			Cands:  cands,
		})
	}
	return out
}

// candidates enumerates z = (p, t) with f(x, z) > 0 for one observation:
// templates derived by conceptualizing the mention of the entity, crossed
// with the predicates connecting entity and value (Eq 24's pruning). Each
// path's value count and key are computed once, not once per template.
func (l *Learner) candidates(qToks []string, mentions []extract.Mention, ev extract.EVPair, entityPrior float64) []Cand {
	var span text.Span
	var surface string
	found := false
	for _, m := range mentions {
		for _, e := range m.Entities {
			if e == ev.Entity {
				span, surface, found = m.Span, m.Surface, true
				break
			}
		}
		if found {
			break
		}
	}
	if !found {
		return nil
	}
	tmpls := template.DeriveAll(l.Taxonomy, qToks, span, surface)
	if len(tmpls) == 0 {
		return nil
	}
	// P(v|e,p) = 1/|V(e,p)|; a path without values yields no candidate.
	keys := make([]string, len(ev.Paths))
	inv := make([]float64, len(ev.Paths))
	var vals []rdf.ID
	for i, path := range ev.Paths {
		vals = rdf.PathObjects(vals[:0], l.KB, ev.Entity, path)
		if len(vals) > 0 {
			keys[i] = rdf.Key(l.KB, path)
			inv[i] = 1.0 / float64(len(vals))
		}
	}
	var cands []Cand
	for _, tw := range tmpls {
		for i, key := range keys {
			if key == "" {
				continue
			}
			f := entityPrior * tw.P * inv[i]
			if f <= 0 {
				continue
			}
			cands = append(cands, Cand{Template: tw.Text, Path: key, F: f})
		}
	}
	return cands
}

// cells is a set of observations compiled for EM. Every distinct
// (template, path) pair is one cell, numbered in first-seen order, and
// every observation is a run of (cell, f) entries in candidate order, so
// that an EM sweep is arithmetic over flat slices: no map is read or
// written between the compile and the returned Model.
type cells struct {
	templates []string // by template index, first-seen order
	tmpl      []int32  // by cell: its template index
	path      []string // by cell: its path key
	width     []int32  // by template: its cells, the feasible predicates of Eq 23
	// Observation i's entries are [bounds[i], bounds[i+1]).
	bounds []int32
	cell   []int32   // by entry: its cell
	f      []float64 // by entry: f(x, z)
}

// compile numbers the templates and cells of obs and lays out its entries.
func compile(obs []Observation) *cells {
	c := &cells{bounds: make([]int32, 1, len(obs)+1)}
	tIdx := make(map[string]int32)
	cIdx := make(map[[2]string]int32)
	for i := range obs {
		for _, cd := range obs[i].Cands {
			t, ok := tIdx[cd.Template]
			if !ok {
				t = int32(len(c.templates))
				tIdx[cd.Template] = t
				c.templates = append(c.templates, cd.Template)
				c.width = append(c.width, 0)
			}
			k, ok := cIdx[[2]string{cd.Template, cd.Path}]
			if !ok {
				k = int32(len(c.tmpl))
				cIdx[[2]string{cd.Template, cd.Path}] = k
				c.tmpl = append(c.tmpl, t)
				c.path = append(c.path, cd.Path)
				c.width[t]++
			}
			c.cell = append(c.cell, k)
			c.f = append(c.f, cd.F)
		}
		c.bounds = append(c.bounds, int32(len(c.cell)))
	}
	return c
}

// numObs returns the number of observations compiled.
func (c *cells) numObs() int { return len(c.bounds) - 1 }

// entries returns observation i's cells and their f, in candidate order.
func (c *cells) entries(i int) ([]int32, []float64) {
	return c.cell[c.bounds[i]:c.bounds[i+1]], c.f[c.bounds[i]:c.bounds[i+1]]
}

// uniform writes Eq (23) into theta: for each template, uniform probability
// over the predicates feasible with it in at least one observation.
func (c *cells) uniform(theta []float64) {
	for k, t := range c.tmpl {
		theta[k] = 1.0 / float64(c.width[t])
	}
}

// model builds the returned Model from θ by cell, keeping the cells
// present, and counts each template's supporting observations.
func (c *cells) model(theta []float64, present []bool, iters int) *Model {
	m := &Model{
		Theta:        make(map[string]map[string]float64),
		TemplateFreq: make(map[string]int, len(c.templates)),
		Iterations:   iters,
	}
	for k, ok := range present {
		if !ok {
			continue
		}
		t := c.templates[c.tmpl[k]]
		row := m.Theta[t]
		if row == nil {
			row = make(map[string]float64, c.width[c.tmpl[k]])
			m.Theta[t] = row
		}
		row[c.path[k]] = theta[k]
	}
	last := make([]int, len(c.templates)) // 1 + the last observation counted
	for i := range c.numObs() {
		cell, _ := c.entries(i)
		for _, k := range cell {
			if t := c.tmpl[k]; last[t] != i+1 {
				last[t] = i + 1
				m.TemplateFreq[c.templates[t]]++
			}
		}
	}
	return m
}

// EM runs Algorithm 1 over the observations and returns the learned model.
// θ lives in a slice by cell; a cell absent from θ (no observation with a
// positive likelihood reached it in the last sweep) reads as 0 and is left
// out of the Model, as a missing map entry would be.
func (l *Learner) EM(obs []Observation) *Model {
	c := compile(obs)
	n := len(c.tmpl)
	theta, next := make([]float64, n), make([]float64, n)
	present, nextPresent := make([]bool, n), make([]bool, n)
	sums := make([]float64, len(c.templates))
	c.uniform(theta) // Eq 23

	maxIter := l.maxIter()
	tol := l.tol()
	iters := 0
	for iter := 0; iter < maxIter; iter++ {
		iters = iter + 1
		// E-step (Eq 21): posterior over z_i, normalized per observation.
		// M-step (Eq 22): accumulate posteriors into the next θ, and each
		// template's total beside them, in observation order.
		clear(next)
		clear(nextPresent)
		clear(sums)
		for i := range c.numObs() {
			cell, f := c.entries(i)
			var norm float64
			for j, k := range cell {
				norm += f[j] * theta[k]
			}
			if norm <= 0 {
				continue
			}
			for j, k := range cell {
				post := f[j] * theta[k] / norm
				next[k] += post
				nextPresent[k] = true
				sums[c.tmpl[k]] += post
			}
		}
		// Normalize each template's row (the Lagrange-multiplier solution
		// of Eq 22), and measure the largest move.
		var delta float64
		for k, ok := range nextPresent {
			if !ok {
				continue
			}
			next[k] /= sums[c.tmpl[k]]
			if dv := math.Abs(next[k] - theta[k]); dv > delta {
				delta = dv
			}
		}
		theta, next = next, theta
		present, nextPresent = nextPresent, present
		if delta < tol {
			break
		}
	}

	m := c.model(theta, present, iters)
	// L(θ) of Eq (16) up to the additive constant from β.
	for i := range c.numObs() {
		cell, f := c.entries(i)
		var px float64
		for j, k := range cell {
			px += f[j] * theta[k]
		}
		if px > 0 {
			m.LogLikelihood += math.Log(px)
		}
	}
	return m
}

// Learn is the end-to-end convenience: observations then EM.
func (l *Learner) Learn(pairs []QA) *Model {
	return l.EM(l.BuildObservations(pairs))
}

// CountEstimate is the non-EM ablation baseline: θ_pt estimated by a single
// pass of f-weighted co-occurrence counting (no latent-variable reweighting).
// DESIGN.md calls this out as the "EM vs counting" ablation.
func CountEstimate(obs []Observation) *Model {
	c := compile(obs)
	theta := make([]float64, len(c.tmpl))
	sums := make([]float64, len(c.templates)) // in observation order, as in EM
	for j, k := range c.cell {
		theta[k] += c.f[j]
		sums[c.tmpl[k]] += c.f[j]
	}
	present := make([]bool, len(theta))
	for k := range theta {
		theta[k] /= sums[c.tmpl[k]]
		present[k] = true
	}
	return c.model(theta, present, 0)
}
