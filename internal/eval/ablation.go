package eval

import (
	"fmt"
	"strings"

	"repro/internal/expand"
	"repro/internal/kbgen"
	"repro/internal/learn"
	"repro/internal/rdf"
	"repro/internal/text"
)

// Ablation experiments for the design choices DESIGN.md calls out. Where
// the bench_test.go ablation benches measure cost, these measure quality.

// AblationRow reports one configuration's quality.
type AblationRow struct {
	Config       string
	Observations int
	Templates    int
	// JudgedRight/JudgedN score argmax predicates against the schema's
	// gold intent mapping over all judgeable templates.
	JudgedRight int
	JudgedN     int
}

// P is the gold-predicate precision of the configuration.
func (r AblationRow) P() float64 { return ratio(r.JudgedRight, r.JudgedN) }

// judgeModel scores a model's argmax predicates against the gold mapping.
func judgeModel(w *World, m *learn.Model) (right, n int) {
	gold := goldTemplates(w.KB)
	for tpl := range m.Theta {
		want, ok := gold[tpl]
		if !ok {
			continue
		}
		n++
		if got, _ := m.BestPred(tpl); got == want.path {
			right++
		}
	}
	return right, n
}

// AblationEMvsCount compares EM against single-pass counting estimation.
func (s *Suite) AblationEMvsCount() []AblationRow {
	w := s.World(kbgen.Freebase)
	em := w.Model
	cnt := learn.CountEstimate(w.Obs)
	emR, emN := judgeModel(w, em)
	cntR, cntN := judgeModel(w, cnt)
	return []AblationRow{
		{Config: "EM (paper)", Observations: len(w.Obs), Templates: em.NumTemplates(), JudgedRight: emR, JudgedN: emN},
		{Config: "counting", Observations: len(w.Obs), Templates: cnt.NumTemplates(), JudgedRight: cntR, JudgedN: cntN},
	}
}

// AblationRefinement compares learning with and without the answer-type
// refinement of Sec 4.1.1.
func (s *Suite) AblationRefinement() []AblationRow {
	w := s.World(kbgen.Freebase)
	qa := make([]learn.QA, len(w.Pairs))
	for i, p := range w.Pairs {
		qa[i] = learn.QA{Q: p.Q, A: p.A}
	}
	withR, withN := judgeModel(w, w.Model)

	l := w.Learner()
	l.Extractor.DisableRefinement = true
	obs := l.BuildObservations(qa)
	m := l.EM(obs)
	offR, offN := judgeModel(w, m)
	return []AblationRow{
		{Config: "refinement on (paper)", Observations: len(w.Obs), Templates: w.Model.NumTemplates(), JudgedRight: withR, JudgedN: withN},
		{Config: "refinement off", Observations: len(obs), Templates: m.NumTemplates(), JudgedRight: offR, JudgedN: offN},
	}
}

// AblationContextRow reports conceptualization disambiguation accuracy.
type AblationContextRow struct {
	Config string
	Right  int
	N      int
}

// AblationContext measures how often the ambiguous surface forms resolve
// to the intended category, with context-aware conceptualization versus
// the prior-only P(c|e).
func (s *Suite) AblationContext() []AblationContextRow {
	w := s.World(kbgen.Freebase)
	type trial struct {
		label   string
		context []string
		want    string
	}
	var trials []trial
	// For every intent and every ambiguous label whose entity supports the
	// intent, the intent's paraphrase context should select the intent's
	// category.
	for _, it := range w.KB.Intents {
		for _, e := range w.KB.SubjectsWithPath(it) {
			label := text.Normalize(w.KB.Store.Label(e))
			if len(w.KB.Store.EntitiesByLabel(label)) < 2 {
				continue // only ambiguous surface forms are interesting
			}
			for _, para := range it.Paraphrases {
				ctx := strings.Fields(strings.ReplaceAll(para, "$e", ""))
				trials = append(trials, trial{label: label, context: ctx, want: it.Category})
			}
		}
	}
	ctxRight, priorRight := 0, 0
	for _, tr := range trials {
		if w.KB.Taxonomy.Best(tr.label, tr.context) == tr.want {
			ctxRight++
		}
		cs := w.KB.Taxonomy.Concepts(tr.label)
		if len(cs) > 0 && cs[0].Concept == tr.want {
			priorRight++
		}
	}
	return []AblationContextRow{
		{Config: "context-aware (paper)", Right: ctxRight, N: len(trials)},
		{Config: "prior only", Right: priorRight, N: len(trials)},
	}
}

// AblationReductionRow reports expansion cost with and without the
// reduction-on-s optimization (Sec 6.2).
type AblationReductionRow struct {
	Config  string
	Sources int
	Triples int
	Scanned int
}

// AblationReductionOnS compares expansion from corpus entities only
// against expansion from every entity.
func (s *Suite) AblationReductionOnS() []AblationReductionRow {
	w := s.World(kbgen.Freebase)
	seen := make(map[rdf.ID]bool)
	var sources []rdf.ID
	for _, p := range w.Pairs {
		if !seen[p.GoldEntity] {
			seen[p.GoldEntity] = true
			sources = append(sources, p.GoldEntity)
		}
	}
	reduced := expand.Expand(w.KB.Store, expand.Config{
		KeepAllLengths: true,
		MaxLen:         3,
		Sources:        sources,
		EndFilter:      w.KB.EndFilter,
	})
	all := expand.Expand(w.KB.Store, expand.Config{MaxLen: 3, EndFilter: w.KB.EndFilter, KeepAllLengths: true})
	return []AblationReductionRow{
		{Config: "reduction on s (paper)", Sources: len(sources), Triples: len(reduced.Triples), Scanned: reduced.Scanned},
		{Config: "all entities", Sources: len(w.KB.Store.Entities()), Triples: len(all.Triples), Scanned: all.Scanned},
	}
}

// AblationText renders all quality ablations.
func (s *Suite) AblationText() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablations (DESIGN.md §5)\n")
	fmt.Fprintf(&b, "EM vs counting:\n")
	for _, r := range s.AblationEMvsCount() {
		fmt.Fprintf(&b, "  %-24s obs=%-5d templates=%-5d gold-P=%.3f (%d/%d)\n",
			r.Config, r.Observations, r.Templates, r.P(), r.JudgedRight, r.JudgedN)
	}
	fmt.Fprintf(&b, "entity-value refinement:\n")
	for _, r := range s.AblationRefinement() {
		fmt.Fprintf(&b, "  %-24s obs=%-5d templates=%-5d gold-P=%.3f (%d/%d)\n",
			r.Config, r.Observations, r.Templates, r.P(), r.JudgedRight, r.JudgedN)
	}
	fmt.Fprintf(&b, "conceptualization context:\n")
	for _, r := range s.AblationContext() {
		fmt.Fprintf(&b, "  %-24s disambiguation=%d/%d (%.2f)\n", r.Config, r.Right, r.N, ratio(r.Right, r.N))
	}
	fmt.Fprintf(&b, "expansion reduction-on-s:\n")
	for _, r := range s.AblationReductionOnS() {
		fmt.Fprintf(&b, "  %-24s sources=%-5d spo-triples=%-6d base-triples-scanned=%d\n",
			r.Config, r.Sources, r.Triples, r.Scanned)
	}
	return b.String()
}
