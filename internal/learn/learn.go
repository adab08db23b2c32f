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
	"sort"

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
	KB        rdf.Graph
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
// in the paper (they only scale the constant β of Eq 13).
func (l *Learner) BuildObservations(pairs []QA) []Observation {
	var out []Observation
	for _, qa := range pairs {
		evs := l.Extractor.EntityValues(qa.Q, qa.A)
		if len(evs) == 0 {
			continue
		}
		prior := extract.EntityPrior(evs)
		qToks := text.Tokenize(qa.Q)
		mentions := l.Extractor.Lexicon.Find(qToks)
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
	}
	return out
}

// candidates enumerates z = (p, t) with f(x, z) > 0 for one observation:
// templates derived by conceptualizing the mention of the entity, crossed
// with the predicates connecting entity and value (Eq 24's pruning).
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
	var cands []Cand
	for _, tw := range tmpls {
		for _, path := range ev.Paths {
			nVals := len(rdf.PathObjects(l.KB, ev.Entity, path))
			if nVals == 0 {
				continue
			}
			f := entityPrior * tw.P * (1.0 / float64(nVals))
			if f <= 0 {
				continue
			}
			cands = append(cands, Cand{
				Template: tw.Text,
				Path:     rdf.Key(l.KB, path),
				F:        f,
			})
		}
	}
	return cands
}

// EM runs Algorithm 1 over the observations and returns the learned model.
func (l *Learner) EM(obs []Observation) *Model {
	theta := initTheta(obs) // Eq 23

	maxIter := l.maxIter()
	tol := l.tol()
	iters := 0
	for iter := 0; iter < maxIter; iter++ {
		iters = iter + 1
		// E-step (Eq 21): posterior over z_i, normalized per observation.
		// M-step (Eq 22): accumulate posteriors into the next θ, and each
		// template's total beside them, in observation order: a total
		// summed over the row map would take map order, and move θ in its
		// last bits from one process to the next.
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
		// Normalize each template's row (the Lagrange-multiplier solution
		// of Eq 22).
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

	m := &Model{
		Theta:        theta,
		TemplateFreq: make(map[string]int),
		Iterations:   iters,
	}
	for i := range obs {
		seen := make(map[string]bool)
		for _, c := range obs[i].Cands {
			if !seen[c.Template] {
				seen[c.Template] = true
				m.TemplateFreq[c.Template]++
			}
		}
	}
	m.LogLikelihood = logLikelihood(obs, theta)
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
	theta := make(map[string]map[string]float64)
	sums := make(map[string]float64) // in observation order, as in EM
	freq := make(map[string]int)
	for i := range obs {
		seen := make(map[string]bool)
		for _, c := range obs[i].Cands {
			row := theta[c.Template]
			if row == nil {
				row = make(map[string]float64)
				theta[c.Template] = row
			}
			row[c.Path] += c.F
			sums[c.Template] += c.F
			if !seen[c.Template] {
				seen[c.Template] = true
				freq[c.Template]++
			}
		}
	}
	for t, row := range theta {
		for p := range row {
			row[p] /= sums[t]
		}
	}
	return &Model{Theta: theta, TemplateFreq: freq, Iterations: 0}
}

// initTheta implements Eq (23): for each template, uniform probability over
// the predicates that are feasible with it in at least one observation.
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
