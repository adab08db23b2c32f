// Package eval implements the evaluation machinery of Sec 7: the
// #pro/#ri/#par counting metrics (P, P*, R, R*, R_BFQ, R*_BFQ), benchmark
// generators mirroring the published size and BFQ composition of QALD-1/3/5
// and WebQuestions (Table 5), and the experiment runners that regenerate
// every table of the paper.
package eval

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/kbgen"
	"repro/internal/qclass"
	"repro/internal/rdf"
	"repro/internal/text"
)

// Item is one benchmark question with gold annotations.
type Item struct {
	Q     string
	IsBFQ bool
	// GoldPath is the intended predicate path ("" for non-BFQs).
	GoldPath string
	// GoldClass is the answer class of the gold predicate.
	GoldClass qclass.Class
	// GoldValues are acceptable answer surface forms (normalized).
	GoldValues []string
	// Hard marks BFQs phrased so rarely that template matching is
	// expected to miss them (the Sec 7.3.1 recall analysis).
	Hard bool
}

// Benchmark is a named set of evaluation items.
type Benchmark struct {
	Name  string
	Items []Item
}

// NumBFQ returns the number of BFQ items.
func (b Benchmark) NumBFQ() int {
	n := 0
	for _, it := range b.Items {
		if it.IsBFQ {
			n++
		}
	}
	return n
}

// Counts aggregates a system's performance on a benchmark using the
// paper's raw quantities (Sec 7.3.1).
type Counts struct {
	System string
	Total  int // #total
	BFQ    int // #BFQ
	Pro    int // #pro: questions answered non-null
	Ri     int // #ri: answered with the right predicate/value
	Par    int // #par: answered partially right
}

// P is precision #ri/#pro.
func (c Counts) P() float64 { return ratio(c.Ri, c.Pro) }

// PStar is partial precision (#ri+#par)/#pro.
func (c Counts) PStar() float64 { return ratio(c.Ri+c.Par, c.Pro) }

// R is recall #ri/#total.
func (c Counts) R() float64 { return ratio(c.Ri, c.Total) }

// RStar is partial recall (#ri+#par)/#total.
func (c Counts) RStar() float64 { return ratio(c.Ri+c.Par, c.Total) }

// RBFQ is recall restricted to BFQs, #ri/#BFQ.
func (c Counts) RBFQ() float64 { return ratio(c.Ri, c.BFQ) }

// F1 combines P and R.
func (c Counts) F1() float64 {
	p, r := c.P(), c.R()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// String renders the counts like a row of Table 7/8.
func (c Counts) String() string {
	return fmt.Sprintf("%-24s #pro=%-4d #ri=%-4d #par=%-3d R=%.2f R*=%.2f R_BFQ=%.2f P=%.2f P*=%.2f",
		c.System, c.Pro, c.Ri, c.Par, c.R(), c.RStar(), c.RBFQ(), c.P(), c.PStar())
}

// KBQASystem adapts the core engine to the baseline.System interface.
type KBQASystem struct {
	Engine *core.Engine
	Label  string
}

// Name implements baseline.System.
func (k *KBQASystem) Name() string {
	if k.Label != "" {
		return k.Label
	}
	return "KBQA"
}

// Answer implements baseline.System, the offline, ctx-less contract of the
// experiment suite — which makes this the one place a root context is minted
// for the engine.
func (k *KBQASystem) Answer(q string) (baseline.Result, bool) {
	//kbqa:nolint ctxpropagate — baseline.System is the offline experiment contract; nothing upstream holds a context
	ans, _, _, err := k.Engine.Answer(context.Background(), q, 0, false)
	if err != nil {
		return baseline.Result{}, false
	}
	return baseline.Result{Value: ans.Value, Values: ans.Values, Path: ans.Path}, true
}

// Evaluate runs a system over a benchmark and scores it. Scoring follows
// Sec 7.3.1: a question counts as processed (#pro) when the system returns
// non-null; right (#ri) when the committed predicate equals the gold one or
// the top value is a gold value; partially right (#par) when the answer is
// not right but the predicate's answer class agrees with the gold class or
// the value set intersects the gold set.
func Evaluate(sys baseline.System, kb *kbgen.KB, b Benchmark) Counts {
	c := Counts{System: sys.Name(), Total: len(b.Items), BFQ: b.NumBFQ()}
	for _, item := range b.Items {
		res, ok := sys.Answer(item.Q)
		if !ok {
			continue
		}
		c.Pro++
		if item.GoldPath == "" {
			continue // answered a non-BFQ: wrong by construction here
		}
		if res.Path == item.GoldPath || containsStr(item.GoldValues, res.Value) {
			c.Ri++
			continue
		}
		if anyIntersect(res.Values, item.GoldValues) || classOfPath(kb, res.Path) == item.GoldClass {
			c.Par++
		}
	}
	return c
}

func containsStr(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}

func anyIntersect(a, b []string) bool {
	set := make(map[string]bool, len(a))
	for _, x := range a {
		set[x] = true
	}
	for _, y := range b {
		if set[y] {
			return true
		}
	}
	return false
}

// classOfPath returns the answer class of a predicate path's final edge.
func classOfPath(kb *kbgen.KB, pathKey string) qclass.Class {
	if pathKey == "" {
		return qclass.Unknown
	}
	parts := strings.Split(pathKey, "→")
	pid, ok := kb.Store.PredID(parts[len(parts)-1])
	if !ok {
		return qclass.Unknown
	}
	return kb.ClassOf(pid)
}

// BenchSpec configures benchmark generation. The published (total, BFQ)
// compositions of Table 5 are provided by StandardBenchmarks.
type BenchSpec struct {
	Name string
	// Total is the number of questions.
	Total int
	// BFQRatio is the fraction of BFQs among them.
	BFQRatio float64
	// HardRate is the fraction of BFQs phrased with rare templates the
	// training corpus never saw (drives R_BFQ below 1, as in the paper's
	// recall analysis).
	HardRate float64
	Seed     int64
}

// StandardBenchmarks mirrors Table 5: per-benchmark size and BFQ ratio.
func StandardBenchmarks() []BenchSpec {
	return []BenchSpec{
		{Name: "WebQuestions", Total: 2032, BFQRatio: 0.29, HardRate: 0.35, Seed: 101},
		{Name: "QALD-5", Total: 50, BFQRatio: 0.24, HardRate: 0.30, Seed: 105},
		{Name: "QALD-3", Total: 99, BFQRatio: 0.41, HardRate: 0.30, Seed: 103},
		{Name: "QALD-1", Total: 50, BFQRatio: 0.54, HardRate: 0.25, Seed: 102},
	}
}

// hardWraps are rare phrasings no training paraphrase uses; the intent
// keyword is spliced in so keyword/synonym systems retain a chance while
// template matching (correctly) refuses.
var hardWraps = []string{
	"regarding %e , any clue about the %k figure",
	"i have been wondering about the %k situation of %e lately",
	"%e — %k , anyone",
	"could someone enlighten me concerning the %k of %e",
	"do you happen to recall the %k associated with %e",
}

// nonBFQTemplates produce questions outside KBQA's scope: aggregations,
// comparisons, yes/no and why questions (Sec 1's ranking/comparison/listing
// variants plus DESC questions).
var nonBFQTemplates = []string{
	"list all %cs ordered by %k",
	"which %c has the 3rd largest %k",
	"is %e bigger than %f",
	"why is %e famous",
	"how do i get to %e",
	"does %e have more %k than %f",
	"what do you think about %e",
	"compare %e and %f",
}

// GenBenchmark synthesizes a benchmark over the knowledge base per spec.
func GenBenchmark(kb *kbgen.KB, spec BenchSpec) Benchmark {
	r := rand.New(rand.NewSource(spec.Seed))
	b := Benchmark{Name: spec.Name}
	nBFQ := int(float64(spec.Total)*spec.BFQRatio + 0.5)

	type askable struct {
		it   kbgen.Intent
		subs []rdf.ID
		path rdf.Path
	}
	var intents []askable
	for _, it := range kb.Intents {
		subs := kb.SubjectsWithPath(it)
		if len(subs) == 0 {
			continue
		}
		path, _ := rdf.ParsePath(kb.Store, it.PathKey)
		intents = append(intents, askable{it, subs, path})
	}

	for i := 0; i < nBFQ; i++ {
		a := intents[r.Intn(len(intents))]
		e := a.subs[r.Intn(len(a.subs))]
		label := kb.Store.Label(e)
		hard := r.Float64() < spec.HardRate
		var q string
		if hard {
			wrap := hardWraps[r.Intn(len(hardWraps))]
			q = strings.Replace(wrap, "%e", text.TitleCase(text.Normalize(label)), 1)
			q = strings.Replace(q, "%k", rareKeywordOf(a.it.PathKey), 1)
			q = strings.ToUpper(q[:1]) + q[1:] + "?"
		} else {
			para := a.it.Paraphrases[r.Intn(len(a.it.Paraphrases))]
			q = strings.Replace(para, "$e", text.TitleCase(text.Normalize(label)), 1)
			q = strings.ToUpper(q[:1]) + q[1:] + "?"
		}
		var golds []string
		for _, v := range rdf.PathObjects(nil, kb.Store, e, a.path) {
			golds = append(golds, text.Normalize(kb.Store.Label(v)))
		}
		b.Items = append(b.Items, Item{
			Q:          q,
			IsBFQ:      true,
			GoldPath:   a.it.PathKey,
			GoldClass:  a.it.Class,
			GoldValues: golds,
			Hard:       hard,
		})
	}

	for len(b.Items) < spec.Total {
		a := intents[r.Intn(len(intents))]
		e := a.subs[r.Intn(len(a.subs))]
		f := a.subs[r.Intn(len(a.subs))]
		tpl := nonBFQTemplates[r.Intn(len(nonBFQTemplates))]
		q := strings.Replace(tpl, "%c", a.it.Category, 1)
		q = strings.Replace(q, "%k", keywordOf(a.it.PathKey), 1)
		q = strings.Replace(q, "%e", text.TitleCase(kb.Store.Label(e)), 1)
		q = strings.Replace(q, "%f", text.TitleCase(kb.Store.Label(f)), 1)
		q = strings.ToUpper(q[:1]) + q[1:] + "?"
		b.Items = append(b.Items, Item{Q: q, IsBFQ: false})
	}
	return b
}

// rareKeywords map an intent to an obscure phrasing of it — the
// "military conflicts → battle" semantic gap of the paper's recall
// analysis. Hard questions use these, so neither template matching nor a
// synonym lexicon bridges them; that is precisely what caps every system's
// BFQ recall below 1.
var rareKeywords = map[string]string{
	"population":                        "headcount",
	"area":                              "expanse",
	"mayor":                             "city chief",
	"country":                           "homeland",
	"founded":                           "inception",
	"dob":                               "arrival into this world",
	"pob":                               "cradle town",
	"height":                            "stature",
	"nationality":                       "citizenship papers",
	"instrument":                        "musical tool",
	"marriage→person→name":              "better half",
	"capital":                           "seat of government",
	"currency":                          "legal tender",
	"president":                         "head honcho",
	"ceo":                               "top boss",
	"headquarter":                       "nerve center",
	"revenue":                           "takings",
	"formed":                            "inception",
	"genre":                             "musical flavor",
	"group_member→member→name":          "lineup",
	"author":                            "penman",
	"published":                         "print date",
	"length":                            "span",
	"elevation":                         "loftiness",
	"established":                       "inception",
	"students":                          "student body",
	"released":                          "debut",
	"director":                          "filmmaker",
	"developer":                         "studio behind",
	"songs→musical_game_song→name":      "tracklist",
	"organization_members→member→alias": "roster",
	"nutrition_fact→nutrient→alias":     "nutrient profile",
	"calories":                          "energy content",
	"books_written":                     "bibliography",
}

// rareKeywordOf returns the obscure phrasing for hard questions.
func rareKeywordOf(pathKey string) string {
	if k, ok := rareKeywords[pathKey]; ok {
		return k
	}
	return "particulars"
}

// keywordOf extracts a human keyword from a path key: the first edge's
// name with underscores opened up ("group_member" -> "group member").
func keywordOf(pathKey string) string {
	first := strings.Split(pathKey, "→")[0]
	return strings.ReplaceAll(first, "_", " ")
}
