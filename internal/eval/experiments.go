package eval

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/baseline"
	"repro/internal/corpus"
	"repro/internal/expand"
	"repro/internal/extract"
	"repro/internal/kbgen"
	"repro/internal/learn"
	"repro/internal/qclass"
	"repro/internal/template"
	"repro/internal/text"
)

// Suite lazily builds one trained World per knowledge-base flavor and
// regenerates every table of the paper's evaluation section from them.
type Suite struct {
	worlds map[kbgen.Flavor]*World
	mkCfg  func(kbgen.Flavor) WorldConfig
}

// NewSuite returns a suite with the default world configuration.
func NewSuite() *Suite {
	return &Suite{
		worlds: make(map[kbgen.Flavor]*World),
		mkCfg:  DefaultWorldConfig,
	}
}

// World returns (building on first use) the world for a flavor.
func (s *Suite) World(f kbgen.Flavor) *World {
	if w, ok := s.worlds[f]; ok {
		return w
	}
	w := BuildWorld(s.mkCfg(f))
	s.worlds[f] = w
	return w
}

// ---------------------------------------------------------------------------
// Table 4 — valid(k)
// ---------------------------------------------------------------------------

// Table4Row holds valid(k) for one knowledge base.
type Table4Row struct {
	KB    string
	Valid [3]int // k = 1, 2, 3
}

// Table4 computes valid(k) for the KBA and DBpedia analogues (Sec 6.3).
func (s *Suite) Table4() []Table4Row {
	var rows []Table4Row
	for _, f := range []kbgen.Flavor{kbgen.KBA, kbgen.DBpedia} {
		w := s.World(f)
		top := expand.TopEntitiesByFrequency(w.KB.Store, 170)
		var row Table4Row
		row.KB = f.String()
		for k := 1; k <= 3; k++ {
			row.Valid[k-1] = expand.ValidK(w.KB.Store, top, k, w.KB.EndFilter, w.Infobox.Has)
		}
		rows = append(rows, row)
	}
	return rows
}

// Table4Text renders Table 4 with the paper's reference values.
func (s *Suite) Table4Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 4: valid(k)   (paper: KBA 14005/16028/2438, DBpedia 352811/496964/2364)\n")
	fmt.Fprintf(&b, "%-10s %8s %8s %8s\n", "k", "1", "2", "3")
	for _, r := range s.Table4() {
		fmt.Fprintf(&b, "%-10s %8d %8d %8d\n", r.KB, r.Valid[0], r.Valid[1], r.Valid[2])
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Table 5 — benchmark composition
// ---------------------------------------------------------------------------

// Table5Row describes one benchmark's composition.
type Table5Row struct {
	Name  string
	Total int
	BFQ   int
	Ratio float64
}

// Table5 reports the generated benchmarks' size and BFQ ratio.
func (s *Suite) Table5() []Table5Row {
	w := s.World(kbgen.DBpedia)
	var rows []Table5Row
	for _, spec := range StandardBenchmarks() {
		b := GenBenchmark(w.KB, spec)
		rows = append(rows, Table5Row{
			Name:  b.Name,
			Total: len(b.Items),
			BFQ:   b.NumBFQ(),
			Ratio: float64(b.NumBFQ()) / float64(len(b.Items)),
		})
	}
	return rows
}

// Table5Text renders Table 5.
func (s *Suite) Table5Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 5: benchmarks   (paper ratios: WebQ -, QALD-5 0.24, QALD-3 0.41, QALD-1 0.54)\n")
	fmt.Fprintf(&b, "%-14s %7s %6s %6s\n", "benchmark", "#total", "#BFQ", "ratio")
	for _, r := range s.Table5() {
		fmt.Fprintf(&b, "%-14s %7d %6d %6.2f\n", r.Name, r.Total, r.BFQ, r.Ratio)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Table 6 — average choices per random variable
// ---------------------------------------------------------------------------

// Table6Stats holds the averaged candidate counts of Table 6.
type Table6Stats struct {
	EntitiesPerQuestion   float64 // P(e|q)
	TemplatesPerEntityQ   float64 // P(t|e,q)
	PredicatesPerTemplate float64 // P(p|t)
	ValuesPerEntityPred   float64 // P(v|e,p)
}

// Table6 measures the uncertainty statistics over the KBA world.
func (s *Suite) Table6() Table6Stats {
	w := s.World(kbgen.KBA)
	var st Table6Stats

	// Entities per question and templates per (entity, question): sampled
	// over corpus questions.
	nq, entSum := 0, 0
	neq, tplSum := 0, 0
	for i, p := range w.Pairs {
		if i >= 800 {
			break
		}
		toks := text.Tokenize(p.Q)
		mentions := w.Symbols.Lexicon.Find(toks)
		nq++
		for _, m := range mentions {
			entSum += len(m.Entities)
			tmpls := template.DeriveAll(w.KB.Taxonomy, toks, m.Span, m.Surface)
			for range m.Entities {
				neq++
				tplSum += len(tmpls)
			}
		}
	}
	if nq > 0 {
		st.EntitiesPerQuestion = float64(entSum) / float64(nq)
	}
	if neq > 0 {
		st.TemplatesPerEntityQ = float64(tplSum) / float64(neq)
	}

	// Predicates per template: from the learned model.
	npred := 0
	for _, row := range w.Model.Theta {
		npred += len(row)
	}
	if n := len(w.Model.Theta); n > 0 {
		st.PredicatesPerTemplate = float64(npred) / float64(n)
	}

	// Values per (entity, predicate): over the knowledge base.
	nep, valSum := 0, 0
	for _, e := range w.KB.Store.Entities() {
		for _, p := range w.KB.Store.Predicates() {
			if vals := w.KB.Store.Objects(e, p); len(vals) > 0 {
				nep++
				valSum += len(vals)
			}
		}
	}
	if nep > 0 {
		st.ValuesPerEntityPred = float64(valSum) / float64(nep)
	}
	return st
}

// Table6Text renders Table 6.
func (s *Suite) Table6Text() string {
	st := s.Table6()
	var b strings.Builder
	fmt.Fprintf(&b, "Table 6: average choices per random variable   (paper: 18.7 / 2.3 / 119.0 / 3.69)\n")
	fmt.Fprintf(&b, "P(e|q)   #entities per question          %6.2f\n", st.EntitiesPerQuestion)
	fmt.Fprintf(&b, "P(t|e,q) #templates per entity-question  %6.2f\n", st.TemplatesPerEntityQ)
	fmt.Fprintf(&b, "P(p|t)   #predicates per template        %6.2f\n", st.PredicatesPerTemplate)
	fmt.Fprintf(&b, "P(v|e,p) #values per entity-predicate    %6.2f\n", st.ValuesPerEntityPred)
	return b.String()
}

// ---------------------------------------------------------------------------
// Tables 7, 8, 9 — QALD benchmarks
// ---------------------------------------------------------------------------

// qaldTable evaluates KBQA on all three KBs plus the baselines on the given
// benchmark spec.
func (s *Suite) qaldTable(spec BenchSpec) []Counts {
	var rows []Counts
	// Baselines run on the DBpedia world (QALD is designed for DBpedia).
	w := s.World(kbgen.DBpedia)
	bench := GenBenchmark(w.KB, spec)
	for _, name := range []string{"keyword", "synonym", "graph", "rule"} {
		rows = append(rows, Evaluate(w.Systems[name], w.KB, bench))
	}
	for _, f := range []kbgen.Flavor{kbgen.KBA, kbgen.Freebase, kbgen.DBpedia} {
		wf := s.World(f)
		benchF := GenBenchmark(wf.KB, spec)
		rows = append(rows, Evaluate(wf.Systems["kbqa"], wf.KB, benchF))
	}
	return rows
}

// Table7 evaluates on the QALD-5 analogue.
func (s *Suite) Table7() []Counts { return s.qaldTable(specByName("QALD-5")) }

// Table8 evaluates on the QALD-3 analogue.
func (s *Suite) Table8() []Counts { return s.qaldTable(specByName("QALD-3")) }

// Table9 compares KBQA with the synonym (DEANNA) baseline on the QALD-1
// analogue, BFQs being the focus.
func (s *Suite) Table9() []Counts {
	spec := specByName("QALD-1")
	var rows []Counts
	w := s.World(kbgen.DBpedia)
	bench := GenBenchmark(w.KB, spec)
	rows = append(rows, Evaluate(w.Systems["synonym"], w.KB, bench))
	for _, f := range []kbgen.Flavor{kbgen.KBA, kbgen.Freebase, kbgen.DBpedia} {
		wf := s.World(f)
		benchF := GenBenchmark(wf.KB, spec)
		rows = append(rows, Evaluate(wf.Systems["kbqa"], wf.KB, benchF))
	}
	return rows
}

func specByName(name string) BenchSpec {
	for _, s := range StandardBenchmarks() {
		if s.Name == name {
			return s
		}
	}
	panic("eval: unknown benchmark " + name)
}

func countsTable(title, paperNote string, rows []Counts) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	if paperNote != "" {
		fmt.Fprintf(&b, "  (%s)\n", paperNote)
	}
	for _, r := range rows {
		fmt.Fprintf(&b, "  %s\n", r.String())
	}
	return b.String()
}

// Table7Text renders Table 7.
func (s *Suite) Table7Text() string {
	return countsTable("Table 7: QALD-5 analogue",
		"paper KBQA+DBpedia: R=0.16 R_BFQ=0.67 P=1.00; best competitor Xser P=0.62", s.Table7())
}

// Table8Text renders Table 8.
func (s *Suite) Table8Text() string {
	return countsTable("Table 8: QALD-3 analogue",
		"paper KBQA+DBp: R=0.25 R_BFQ=0.61 P=0.96; gAnswer P=0.42; CASIA P=0.56", s.Table8())
}

// Table9Text renders Table 9.
func (s *Suite) Table9Text() string {
	return countsTable("Table 9: QALD-1 analogue (BFQ focus)",
		"paper: DEANNA P=0.50 R_BFQ=0.37; KBQA+DBpedia P=0.90 R_BFQ=0.67", s.Table9())
}

// ---------------------------------------------------------------------------
// Table 10 — WebQuestions
// ---------------------------------------------------------------------------

// Table10Row is a WebQuestions-style scoring row.
type Table10Row struct {
	System string
	P      float64
	PAt1   float64
	R      float64
	F1     float64
}

// Table10 evaluates KBQA and baselines on the WebQuestions analogue.
func (s *Suite) Table10() []Table10Row {
	w := s.World(kbgen.Freebase) // WebQuestions is a Freebase benchmark
	bench := GenBenchmark(w.KB, specByName("WebQuestions"))
	var rows []Table10Row
	for _, name := range []string{"synonym", "graph", "kbqa"} {
		sys := w.Systems[name]
		c := Evaluate(sys, w.KB, bench)
		rows = append(rows, Table10Row{
			System: sys.Name(),
			P:      c.P(),
			PAt1:   c.P(), // top-1 committed answer == precision here
			R:      c.R(),
			F1:     c.F1(),
		})
	}
	return rows
}

// Table10Text renders Table 10.
func (s *Suite) Table10Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 10: WebQuestions analogue   (paper KBQA: P=0.85 P@1=0.52 R=0.22 F1=0.34)\n")
	fmt.Fprintf(&b, "  %-24s %6s %6s %6s %6s\n", "system", "P", "P@1", "R", "F1")
	for _, r := range s.Table10() {
		fmt.Fprintf(&b, "  %-24s %6.2f %6.2f %6.2f %6.2f\n", r.System, r.P, r.PAt1, r.R, r.F1)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Table 11 — hybrid systems
// ---------------------------------------------------------------------------

// Table11Row pairs a baseline's solo counts with its KBQA-hybrid counts.
type Table11Row struct {
	Base   Counts
	Hybrid Counts
}

// Table11 evaluates each baseline alone and behind KBQA on the QALD-3
// analogue.
func (s *Suite) Table11() []Table11Row {
	w := s.World(kbgen.DBpedia)
	bench := GenBenchmark(w.KB, specByName("QALD-3"))
	kbqa := w.Systems["kbqa"]
	var rows []Table11Row
	for _, name := range []string{"keyword", "synonym", "graph", "rule"} {
		base := w.Systems[name]
		hybrid := &baseline.Hybrid{Primary: kbqa, Secondary: base}
		rows = append(rows, Table11Row{
			Base:   Evaluate(base, w.KB, bench),
			Hybrid: Evaluate(hybrid, w.KB, bench),
		})
	}
	return rows
}

// Table11Text renders Table 11.
func (s *Suite) Table11Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 11: hybrid systems on QALD-3 analogue   (paper: every hybrid improves R and P)\n")
	for _, r := range s.Table11() {
		fmt.Fprintf(&b, "  %s\n", r.Base.String())
		fmt.Fprintf(&b, "  %s   (ΔR=%+.2f ΔP=%+.2f)\n", r.Hybrid.String(),
			r.Hybrid.R()-r.Base.R(), r.Hybrid.P()-r.Base.P())
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Table 12 — coverage of predicate inference
// ---------------------------------------------------------------------------

// Table12Row is one system's coverage.
type Table12Row struct {
	System     string
	Corpus     string
	Templates  int
	Predicates int
}

// Table12 compares KBQA's learned coverage per KB against bootstrapping.
func (s *Suite) Table12() []Table12Row {
	var rows []Table12Row
	for _, f := range []kbgen.Flavor{kbgen.KBA, kbgen.Freebase, kbgen.DBpedia} {
		w := s.World(f)
		rows = append(rows, Table12Row{
			System:     "KBQA+" + f.String(),
			Corpus:     fmt.Sprintf("%d QA pairs", len(w.Pairs)),
			Templates:  w.Model.NumTemplates(),
			Predicates: w.Model.NumPredicates(),
		})
	}
	w := s.World(kbgen.KBA)
	pm := baseline.Bootstrap(w.KB.Store, w.Symbols.Lexicon, w.WebDocs)
	rows = append(rows, Table12Row{
		System:     "Bootstrapping",
		Corpus:     fmt.Sprintf("%d sentences", len(w.WebDocs)),
		Templates:  pm.NumPatterns(),
		Predicates: pm.NumPredicates(),
	})
	return rows
}

// Table12Text renders Table 12.
func (s *Suite) Table12Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 12: coverage of predicate inference   (paper: KBQA 27,126,355 templates / 2782 preds; bootstrapping 471,920 / 283)\n")
	fmt.Fprintf(&b, "  %-16s %-16s %10s %11s %14s\n", "system", "corpus", "templates", "predicates", "tpl/predicate")
	for _, r := range s.Table12() {
		ratio := 0.0
		if r.Predicates > 0 {
			ratio = float64(r.Templates) / float64(r.Predicates)
		}
		fmt.Fprintf(&b, "  %-16s %-16s %10d %11d %14.1f\n", r.System, r.Corpus, r.Templates, r.Predicates, ratio)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Table 13 — precision of predicate inference
// ---------------------------------------------------------------------------

// Table13Row is precision over one template sample.
type Table13Row struct {
	Sample  string
	N       int
	Right   int
	Partial int
}

// P returns #right/N.
func (r Table13Row) P() float64 { return ratio(r.Right, r.N) }

// PStar returns (#right+#partial)/N.
func (r Table13Row) PStar() float64 { return ratio(r.Right+r.Partial, r.N) }

// Table13 checks the argmax predicate of the top-100 and of 100 random
// (frequency > 1) templates against the schema's gold intent mapping,
// which plays the role of the paper's manual check.
func (s *Suite) Table13() []Table13Row {
	w := s.World(kbgen.KBA)
	gold := goldTemplates(w.KB)
	ranked := w.Model.TemplatesByFrequency()

	judge := func(tpls []string, label string) Table13Row {
		row := Table13Row{Sample: label, N: len(tpls)}
		for _, t := range tpls {
			want, ok := gold[t]
			if !ok {
				continue // unknown provenance; does not count either way
			}
			got, _ := w.Model.BestPred(t)
			if got == want.path {
				row.Right++
			} else if classOfPath(w.KB, got) == want.class {
				row.Partial++
			}
		}
		return row
	}

	top := ranked
	if len(top) > 100 {
		top = top[:100]
	}
	// "Random" 100 with frequency > 1: deterministic stride sample over the
	// ranked tail.
	var tail []string
	for _, t := range ranked {
		if w.Model.TemplateFreq[t] > 1 {
			tail = append(tail, t)
		}
	}
	var random []string
	if len(tail) > 0 {
		stride := len(tail)/100 + 1
		for i := 0; i < len(tail) && len(random) < 100; i += stride {
			random = append(random, tail[i])
		}
	}
	return []Table13Row{judge(random, "Random 100"), judge(top, "Top 100")}
}

type goldIntent struct {
	path  string
	class qclass.Class
}

// goldTemplates enumerates every template the corpus can have produced,
// mapped to its generating intent: paraphrases and noun phrases crossed
// with every concept of the intent's category.
func goldTemplates(kb *kbgen.KB) map[string]goldIntent {
	out := make(map[string]goldIntent)
	for _, it := range kb.Intents {
		patterns := append([]string{}, it.Paraphrases...)
		patterns = append(patterns, kbgen.NounPhrases[it.Category+"/"+it.PathKey]...)
		for _, para := range patterns {
			for _, c := range kbgen.ConceptsForCategory(it.Category) {
				tpl := text.Normalize(strings.Replace(para, "$e", "$"+c, 1))
				out[tpl] = goldIntent{path: it.PathKey, class: it.Class}
			}
		}
	}
	return out
}

// Table13Text renders Table 13.
func (s *Suite) Table13Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 13: precision of predicate inference   (paper: random 67%%/86%%, top 100%%/100%%)\n")
	for _, r := range s.Table13() {
		fmt.Fprintf(&b, "  %-12s n=%-4d #right=%-4d #partial=%-3d P=%.2f P*=%.2f\n",
			r.Sample, r.N, r.Right, r.Partial, r.P(), r.PStar())
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Table 14 — time cost
// ---------------------------------------------------------------------------

// Table14Row is one system's measured online latency.
type Table14Row struct {
	System     string
	AvgLatency time.Duration
	Complexity string
}

// Table14 measures per-question latency over the QALD-3 analogue.
func (s *Suite) Table14() []Table14Row {
	w := s.World(kbgen.DBpedia)
	bench := GenBenchmark(w.KB, specByName("QALD-3"))
	measure := func(sys baseline.System) time.Duration {
		start := time.Now()
		n := 0
		for _, item := range bench.Items {
			sys.Answer(item.Q)
			n++
		}
		return time.Since(start) / time.Duration(n)
	}
	return []Table14Row{
		{System: "synonym(DEANNA)", AvgLatency: measure(w.Systems["synonym"]),
			Complexity: "NP-hard joint disambiguation (simulated exhaustively)"},
		{System: "graph(gAnswer)", AvgLatency: measure(w.Systems["graph"]),
			Complexity: "O(|V|^3) graph matching (neighbourhood sweep)"},
		{System: "KBQA", AvgLatency: measure(w.Systems["kbqa"]),
			Complexity: "O(|q|^4) parsing + O(|P|) inference"},
	}
}

// Table14Text renders Table 14.
func (s *Suite) Table14Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 14: online time cost   (paper: DEANNA 7738ms, gAnswer 990ms, KBQA 79ms)\n")
	for _, r := range s.Table14() {
		fmt.Fprintf(&b, "  %-18s %10s   %s\n", r.System, r.AvgLatency.Round(time.Microsecond), r.Complexity)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Table 15 — complex questions
// ---------------------------------------------------------------------------

// Table15Row is one complex question with per-system verdicts.
type Table15Row struct {
	Q       string
	KBQA    bool
	Graph   bool
	Synonym bool
}

// Table15 asks a fixed set of generated two-hop questions to KBQA and the
// strongest baselines (standing in for Wolfram Alpha / gAnswer).
func (s *Suite) Table15() []Table15Row {
	w := s.World(kbgen.Freebase)
	cps := complexSample(w, 8)
	var rows []Table15Row
	for _, cp := range cps {
		gold := make(map[string]bool, len(cp.GoldAnswers))
		for _, g := range cp.GoldAnswers {
			gold[g] = true
		}
		check := func(sys baseline.System) bool {
			res, ok := sys.Answer(cp.Q)
			if !ok {
				return false
			}
			for _, v := range res.Values {
				if gold[v] {
					return true
				}
			}
			return gold[res.Value]
		}
		rows = append(rows, Table15Row{
			Q:       cp.Q,
			KBQA:    check(w.Systems["kbqa"]),
			Graph:   check(w.Systems["graph"]),
			Synonym: check(w.Systems["synonym"]),
		})
	}
	return rows
}

// Table15Text renders Table 15.
func (s *Suite) Table15Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 15: complex questions   (paper: KBQA 8/8, Wolfram Alpha 2/8, gAnswer 0/8)\n")
	fmt.Fprintf(&b, "  %-72s %-5s %-5s %-5s\n", "question", "KBQA", "graph", "syn")
	for _, r := range s.Table15() {
		fmt.Fprintf(&b, "  %-72s %-5s %-5s %-5s\n", truncate(r.Q, 72), yn(r.KBQA), yn(r.Graph), yn(r.Synonym))
	}
	return b.String()
}

func yn(b bool) string {
	if b {
		return "Y"
	}
	return "N"
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-3] + "..."
}

// ---------------------------------------------------------------------------
// Table 16 — effectiveness of predicate expansion
// ---------------------------------------------------------------------------

// Table16Stats partitions the learned model by predicate length and
// additionally reports the ablation: what the model learns when expansion
// is disabled (MaxPathLen = 1) during entity–value extraction.
type Table16Stats struct {
	TemplatesDirect   int // templates whose argmax predicate is direct
	TemplatesExpanded int
	PredsDirect       int
	PredsExpanded     int
	// NoExpansionTemplates / NoExpansionPreds are the coverage of the
	// ablation model trained with direct predicates only.
	NoExpansionTemplates int
	NoExpansionPreds     int
}

// TemplateRatio is the expansion multiplier on templates (paper: 57.0).
func (t Table16Stats) TemplateRatio() float64 {
	return ratio(t.TemplatesExpanded, t.TemplatesDirect)
}

// PredRatio is the expansion multiplier on predicates (paper: 10.3).
func (t Table16Stats) PredRatio() float64 { return ratio(t.PredsExpanded, t.PredsDirect) }

// Table16 partitions templates and predicates by the length of their
// (argmax) predicate.
func (s *Suite) Table16() Table16Stats {
	w := s.World(kbgen.KBA)
	var st Table16Stats
	predsDirect := make(map[string]bool)
	predsExpanded := make(map[string]bool)
	for tpl := range w.Model.Theta {
		best, _ := w.Model.BestPred(tpl)
		if strings.Contains(best, "→") {
			st.TemplatesExpanded++
		} else {
			st.TemplatesDirect++
		}
		for p := range w.Model.Theta[tpl] {
			if strings.Contains(p, "→") {
				predsExpanded[p] = true
			} else {
				predsDirect[p] = true
			}
		}
	}
	st.PredsDirect = len(predsDirect)
	st.PredsExpanded = len(predsExpanded)

	// Ablation: retrain with MaxPathLen = 1.
	learner := w.Learner()
	learner.Extractor.MaxPathLen = 1
	qa := make([]learn.QA, len(w.Pairs))
	for i, p := range w.Pairs {
		qa[i] = learn.QA{Q: p.Q, A: p.A}
	}
	ablated := learner.Learn(qa)
	st.NoExpansionTemplates = ablated.NumTemplates()
	st.NoExpansionPreds = ablated.NumPredicates()
	return st
}

// Table16Text renders Table 16.
func (s *Suite) Table16Text() string {
	st := s.Table16()
	var b strings.Builder
	fmt.Fprintf(&b, "Table 16: effectiveness of predicate expansion   (paper ratios: templates 57.0, predicates 10.3)\n")
	fmt.Fprintf(&b, "  %-8s %10s %11s\n", "length", "#template", "#predicate")
	fmt.Fprintf(&b, "  %-8s %10d %11d\n", "1", st.TemplatesDirect, st.PredsDirect)
	fmt.Fprintf(&b, "  %-8s %10d %11d\n", "2 to k", st.TemplatesExpanded, st.PredsExpanded)
	fmt.Fprintf(&b, "  %-8s %10.1f %11.1f\n", "ratio", st.TemplateRatio(), st.PredRatio())
	fmt.Fprintf(&b, "  ablation: training without expansion learns %d templates / %d predicates\n",
		st.NoExpansionTemplates, st.NoExpansionPreds)
	fmt.Fprintf(&b, "  (paper's KBA is ~98%% CVT-backed; our schema backs %d of %d intents with CVTs,\n",
		5, 40)
	fmt.Fprintf(&b, "   so the multiplier applies to that slice: those intents are unlearnable at k=1)\n")
	return b.String()
}

// ---------------------------------------------------------------------------
// Tables 17, 18 — case studies
// ---------------------------------------------------------------------------

// Table17 lists the top templates learned for marriage→person→name, ranked
// by P(p|t) weighted by template frequency.
func (s *Suite) Table17() []string {
	w := s.World(kbgen.KBA)
	const pred = "marriage→person→name"
	type scored struct {
		tpl string
		sc  float64
	}
	var xs []scored
	for tpl, row := range w.Model.Theta {
		if p, ok := row[pred]; ok && p > 0.5 {
			xs = append(xs, scored{tpl, p * float64(w.Model.TemplateFreq[tpl])})
		}
	}
	sort.Slice(xs, func(i, j int) bool {
		if xs[i].sc != xs[j].sc {
			return xs[i].sc > xs[j].sc
		}
		return xs[i].tpl < xs[j].tpl
	})
	var out []string
	for i := 0; i < len(xs) && i < 5; i++ {
		out = append(out, xs[i].tpl)
	}
	return out
}

// Table17Text renders Table 17.
func (s *Suite) Table17Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 17: top templates for marriage→person→name\n")
	for _, t := range s.Table17() {
		fmt.Fprintf(&b, "  %s\n", t)
	}
	return b.String()
}

// expandedSemantics mirrors Table 18's human glosses.
var expandedSemantics = map[string]string{
	"marriage→person→name":              "spouse",
	"organization_members→member→alias": "organization's member",
	"nutrition_fact→nutrient→alias":     "nutritional value",
	"group_member→member→name":          "group's member",
	"songs→musical_game_song→name":      "songs of a game",
}

// Table18 lists discovered expanded predicates with their semantics.
func (s *Suite) Table18() map[string]string {
	w := s.World(kbgen.Freebase)
	res := expand.Over(w.KB.Store, expand.Config{MaxLen: 3, EndFilter: w.KB.EndFilter, KeepAllLengths: true})
	out := make(map[string]string)
	for _, key := range res.DistinctPaths(w.KB.Store, 3) {
		if sem, ok := expandedSemantics[key]; ok {
			out[key] = sem
		}
	}
	return out
}

// Table18Text renders Table 18.
func (s *Suite) Table18Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 18: examples of expanded predicates\n")
	t18 := s.Table18()
	keys := make([]string, 0, len(t18))
	for k := range t18 {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "  %-36s %s\n", k, t18[k])
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Sec 7.5 — entity & value identification
// ---------------------------------------------------------------------------

// EVIDResult compares joint entity–value extraction with the noisy
// capitalization NER on sampled QA pairs (paper: 72% vs 30%).
type EVIDResult struct {
	N          int
	JointRight int
	NERRight   int
}

// EntityValueID runs the Sec 7.5 comparison over n sampled clean pairs.
func (s *Suite) EntityValueID(n int) EVIDResult {
	w := s.World(kbgen.KBA)
	x := &extract.Extractor{
		KB:         w.KB.Store,
		Lexicon:    w.Symbols.Lexicon,
		MaxPathLen: 3,
		EndFilter:  w.KB.EndFilter,
		PredClass:  w.KB.ClassOf,
	}
	res := EVIDResult{}
	for _, p := range w.Pairs {
		if res.N >= n {
			break
		}
		if p.Noise {
			continue
		}
		res.N++
		goldEntity := text.Normalize(w.KB.Store.Label(p.GoldEntity))
		for _, ev := range x.EntityValues(p.Q, p.A) {
			if text.Normalize(w.KB.Store.Label(ev.Entity)) == goldEntity &&
				ev.Value == p.GoldValue {
				res.JointRight++
				break
			}
		}
		for _, surface := range extract.NoisyCapNER(p.Q) {
			if surface == goldEntity {
				res.NERRight++
				break
			}
		}
	}
	return res
}

// EntityValueIDText renders the Sec 7.5 comparison.
func (s *Suite) EntityValueIDText() string {
	r := s.EntityValueID(50)
	return fmt.Sprintf("Sec 7.5: entity&value identification on %d pairs   (paper: joint 72%%, Stanford NER 30%%)\n"+
		"  joint extraction: %d/%d (%.0f%%)\n  capitalization NER: %d/%d (%.0f%%)\n",
		r.N, r.JointRight, r.N, 100*ratio(r.JointRight, r.N),
		r.NERRight, r.N, 100*ratio(r.NERRight, r.N))
}

// complexSample returns up to n complex pairs from the world.
func complexSample(w *World, n int) []corpus.ComplexPair {
	cps := corpus.ComposeComplex(w.KB, w.Cfg.Seed+9, n)
	if len(cps) > n {
		cps = cps[:n]
	}
	return cps
}

// All renders every experiment in table order.
func (s *Suite) All() string {
	sections := []string{
		s.Table4Text(), s.Table5Text(), s.Table6Text(), s.Table7Text(),
		s.Table8Text(), s.Table9Text(), s.Table10Text(), s.Table11Text(),
		s.Table12Text(), s.Table13Text(), s.Table14Text(), s.Table15Text(),
		s.Table16Text(), s.Table17Text(), s.Table18Text(), s.EntityValueIDText(),
	}
	return strings.Join(sections, "\n")
}

var _ = learn.QA{} // reserved for the ablation runners in ablation.go
