// Package corpus synthesizes the QA corpus KBQA learns from, standing in
// for the 41M-pair Yahoo! Answers crawl of the paper (Sec 2, "QA corpora").
//
// Each generated pair renders one knowledge-base fact through a randomly
// chosen natural-language paraphrase of its intent, and wraps the answer
// value in a filler sentence — reproducing the property the paper's
// likelihood derivation leans on: "an answer is usually a complicated
// natural language sentence containing the exact value and many other
// tokens" (Sec 4.1). A configurable fraction of pairs is noise: useless
// replies, or replies quoting a different attribute of the same entity,
// which is exactly the kind of corruption the EM estimation and the
// answer-type refinement have to survive.
package corpus

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/kbgen"
	"repro/internal/rdf"
	"repro/internal/template"
	"repro/internal/text"
)

// Pair is one QA-corpus entry. The Gold* fields record how the pair was
// generated; they exist for evaluation only and must never be read by
// learning code.
type Pair struct {
	Q string
	A string

	// GoldEntity is the subject entity the question was generated about.
	GoldEntity rdf.ID
	// GoldPath is the arrow-notation predicate the question asks for
	// ("" for noise pairs with no intent).
	GoldPath string
	// GoldCategory is the subject category of the generating intent.
	GoldCategory string
	// GoldValue is the value node rendered into the answer (0 when Noise).
	GoldValue rdf.ID
	// Noise marks pairs whose answer does not contain the asked-for value.
	Noise bool
}

// Config controls corpus generation.
type Config struct {
	// Seed drives all randomness.
	Seed int64
	// PairsPerIntent is the number of QA pairs per intent (default 40).
	PairsPerIntent int
	// NoiseRate is the fraction of pairs replaced with noise (default 0.15).
	NoiseRate float64
	// IncludeNounPhrases adds noun-phrase "questions" ("the capital of X")
	// for nestable intents, which is what lets the decomposition DP learn
	// that such fragments are answerable (Sec 5.2). Default true via
	// Generate; set ExcludeNounPhrases to disable.
	ExcludeNounPhrases bool
}

func (c Config) withDefaults() Config {
	if c.PairsPerIntent <= 0 {
		c.PairsPerIntent = 40
	}
	if c.NoiseRate < 0 {
		c.NoiseRate = 0
	}
	return c
}

// answer wrap patterns; %v is replaced by the value surface form.
var valueWraps = []string{
	"it 's %v .",
	"the answer is %v .",
	"%v .",
	"i think it is %v .",
	"pretty sure it 's %v .",
	"if i remember correctly , %v .",
	"%v , according to my textbook .",
	"it should be %v .",
}

// categoryEchoWrap additionally quotes the subject's category word, which
// plants the Example-2 style noise value ("The politician was born in
// 1961.") that the refinement step must filter.
const categoryEchoWrap = "the %c was %v , i believe ."

var junkAnswers = []string{
	"i have no idea , sorry .",
	"why do you want to know that ?",
	"just google it .",
	"great question ! following .",
	"my cousin asked the same thing last week .",
}

// Generate synthesizes a QA corpus over the knowledge base.
func Generate(kb *kbgen.KB, cfg Config) []Pair {
	cfg = cfg.withDefaults()
	r := rand.New(rand.NewSource(cfg.Seed))
	var out []Pair

	for _, it := range kb.Intents {
		subjects := kb.SubjectsWithPath(it)
		if len(subjects) == 0 {
			continue
		}
		path, _ := rdf.ParsePath(kb.Store, it.PathKey)
		for i := 0; i < cfg.PairsPerIntent; i++ {
			e := subjects[r.Intn(len(subjects))]
			para := it.Paraphrases[r.Intn(len(it.Paraphrases))]
			q := renderQuestion(r, para, kb.Store.Label(e))

			if r.Float64() < cfg.NoiseRate {
				out = append(out, noisePair(r, kb, q, e, it))
				continue
			}
			values := rdf.PathObjects(kb.Store, e, path)
			v := values[r.Intn(len(values))]
			out = append(out, Pair{
				Q:            q,
				A:            wrapAnswer(r, kb, e, v),
				GoldEntity:   e,
				GoldPath:     it.PathKey,
				GoldCategory: it.Category,
				GoldValue:    v,
			})
		}
		if !cfg.ExcludeNounPhrases {
			out = append(out, nounPhrasePairs(r, kb, it, subjects, path, cfg)...)
		}
	}
	return out
}

// nounPhrasePairs emits fragment questions ("the capital of Aldovia") for
// nestable intents so their templates and fv/fo statistics are learnable.
func nounPhrasePairs(r *rand.Rand, kb *kbgen.KB, it kbgen.Intent, subjects []rdf.ID, path rdf.Path, cfg Config) []Pair {
	nps := kbgen.NounPhrases[it.Category+"/"+it.PathKey]
	if len(nps) == 0 {
		return nil
	}
	n := cfg.PairsPerIntent / 2
	if n < len(nps) {
		n = len(nps)
	}
	var out []Pair
	for i := 0; i < n; i++ {
		e := subjects[r.Intn(len(subjects))]
		np := nps[r.Intn(len(nps))]
		values := rdf.PathObjects(kb.Store, e, path)
		v := values[r.Intn(len(values))]
		out = append(out, Pair{
			Q:            renderQuestion(r, np, kb.Store.Label(e)),
			A:            wrapAnswer(r, kb, e, v),
			GoldEntity:   e,
			GoldPath:     it.PathKey,
			GoldCategory: it.Category,
			GoldValue:    v,
		})
	}
	return out
}

func noisePair(r *rand.Rand, kb *kbgen.KB, q string, e rdf.ID, it kbgen.Intent) Pair {
	base := Pair{Q: q, GoldEntity: e, GoldPath: it.PathKey, GoldCategory: it.Category, Noise: true}
	if r.Intn(2) == 0 {
		// Useless reply: no extractable value at all.
		base.A = junkAnswers[r.Intn(len(junkAnswers))]
		return base
	}
	// Misleading reply: quotes a different attribute of the same entity,
	// creating a wrongly-connected EV pair that EM has to out-vote. The
	// wrong attribute is chosen uniformly — real community noise is not
	// systematically biased toward one predicate.
	var wrongs []rdf.ID
	kb.Store.OutEdges(e, func(p rdf.PID, o rdf.ID) {
		if kb.Store.KindOf(o) == rdf.KindLiteral &&
			kb.Store.PredName(p) != "name" && kb.Store.PredName(p) != "category" {
			if key := rdf.Key(kb.Store, rdf.Path{p}); key != it.PathKey {
				wrongs = append(wrongs, o)
			}
		}
	})
	if len(wrongs) == 0 {
		base.A = junkAnswers[r.Intn(len(junkAnswers))]
		return base
	}
	base.A = fmt.Sprintf("it could be %s , not sure though .", kb.Store.Label(wrongs[r.Intn(len(wrongs))]))
	return base
}

// renderQuestion instantiates a paraphrase with the entity surface form and
// community-QA casing: users capitalize properly less than half the time.
// The sloppy casing matters for Sec 7.5 — a capitalization-based NER only
// works on well-cased questions, while KBQA's joint extraction normalizes
// case away.
func renderQuestion(r *rand.Rand, para, entityLabel string) string {
	q := template.Instantiate(para, entityLabel)
	switch roll := r.Float64(); {
	case roll < 0.45:
		// Well-cased: title-cased entity, capitalized sentence.
		q = strings.Replace(q, text.Normalize(entityLabel), text.TitleCase(text.Normalize(entityLabel)), 1)
		q = strings.ToUpper(q[:1]) + q[1:]
	case roll < 0.90:
		// All lower-case, the community-QA default.
	default:
		// Only the sentence start capitalized.
		q = strings.ToUpper(q[:1]) + q[1:]
	}
	return q + "?"
}

func wrapAnswer(r *rand.Rand, kb *kbgen.KB, e, v rdf.ID) string {
	vLabel := kb.Store.Label(v)
	if r.Intn(6) == 0 {
		// Category-echo wrap plants a second connected value (the category
		// literal) in the answer, as in the paper's Example 2.
		cat := subjectCategory(kb, e)
		if cat != "" {
			w := strings.Replace(categoryEchoWrap, "%c", cat, 1)
			return strings.Replace(w, "%v", vLabel, 1)
		}
	}
	wrap := valueWraps[r.Intn(len(valueWraps))]
	return strings.Replace(wrap, "%v", vLabel, 1)
}

func subjectCategory(kb *kbgen.KB, e rdf.ID) string {
	catPred, ok := kb.Store.PredID("category")
	if !ok {
		return ""
	}
	cats := kb.Store.Objects(e, catPred)
	if len(cats) == 0 {
		return ""
	}
	return kb.Store.Label(cats[len(cats)-1]) // persona when present
}

// Questions projects the corpus to its question strings, the input to the
// decomposition statistics (Sec 5.2).
func Questions(pairs []Pair) []string {
	out := make([]string, len(pairs))
	for i, p := range pairs {
		out[i] = p.Q
	}
	return out
}

// webDocPatterns are the declarative-sentence forms of the synthetic web
// document corpus consumed by the bootstrapping baseline (Table 12). They
// are deliberately fewer and more predicate-anchored than the QA
// paraphrases: BOA-style patterns are text between subject and object in
// declarative web text, which has far less interrogative variety.
var webDocPatterns = []string{
	"the %p of %e is %v .",
	"%e has a %p of %v .",
	"%e 's %p is %v .",
	"with a %p of %v , %e is well known .",
}

// GenerateWebDocs renders a declarative-sentence corpus over the KB's
// direct-predicate facts for the bootstrapping baseline. sentencesPerIntent
// controls volume.
func GenerateWebDocs(kb *kbgen.KB, seed int64, sentencesPerIntent int) []string {
	r := rand.New(rand.NewSource(seed))
	var out []string
	for _, it := range kb.Intents {
		if strings.Contains(it.PathKey, "→") {
			continue // bootstrapping only sees direct relations
		}
		subjects := kb.SubjectsWithPath(it)
		if len(subjects) == 0 {
			continue
		}
		path, _ := rdf.ParsePath(kb.Store, it.PathKey)
		for i := 0; i < sentencesPerIntent; i++ {
			e := subjects[r.Intn(len(subjects))]
			values := rdf.PathObjects(kb.Store, e, path)
			v := values[r.Intn(len(values))]
			pat := webDocPatterns[r.Intn(len(webDocPatterns))]
			s := strings.Replace(pat, "%p", strings.ReplaceAll(it.PathKey, "_", " "), 1)
			s = strings.Replace(s, "%e", text.TitleCase(kb.Store.Label(e)), 1)
			s = strings.Replace(s, "%v", kb.Store.Label(v), 1)
			out = append(out, s)
		}
	}
	return out
}
