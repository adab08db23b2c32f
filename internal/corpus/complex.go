package corpus

import (
	"math/rand"
	"strings"

	"repro/internal/kbgen"
	"repro/internal/rdf"
	"repro/internal/text"
)

// ComplexPair is a generated complex question: an outer BFQ applied to the
// answer of an inner BFQ ("when was [Barack Obama's wife] born?", Sec 5).
type ComplexPair struct {
	Q string
	// InnerPath / OuterPath are the gold predicates of the two hops.
	InnerPath string
	OuterPath string
	// GoldEntity is the root entity of the chain.
	GoldEntity rdf.ID
	// GoldAnswers are the acceptable final answer labels (normalized).
	GoldAnswers []string
}

// ComposeComplex generates n two-hop complex questions by nesting a
// noun-phrase form of an inner intent inside the $e slot of an outer
// intent's paraphrase. Only intent pairs whose types line up are used: the
// inner intent's values must be (or name) entities of the outer intent's
// subject category.
func ComposeComplex(kb *kbgen.KB, seed int64, n int) []ComplexPair {
	r := rand.New(rand.NewSource(seed))
	type inner struct {
		it       kbgen.Intent
		nps      []string
		subjects []rdf.ID
		path     rdf.Path
		outCat   string
	}
	var inners []inner
	for _, it := range kb.Intents {
		nps := kbgen.NounPhrases[it.Category+"/"+it.PathKey]
		if len(nps) == 0 {
			continue
		}
		subjects := kb.SubjectsWithPath(it)
		if len(subjects) == 0 {
			continue
		}
		path, _ := rdf.ParsePath(kb.Store, it.PathKey)
		cat := valueCategory(kb, subjects, path)
		if cat == "" {
			continue
		}
		inners = append(inners, inner{it, nps, subjects, path, cat})
	}
	// Outer intents indexed by subject category.
	outers := make(map[string][]kbgen.Intent)
	for _, it := range kb.Intents {
		outers[it.Category] = append(outers[it.Category], it)
	}

	var out []ComplexPair
	for guard := 0; len(out) < n && guard < n*50 && len(inners) > 0; guard++ {
		in := inners[r.Intn(len(inners))]
		cands := outers[in.outCat]
		if len(cands) == 0 {
			continue
		}
		outIt := cands[r.Intn(len(cands))]
		if outIt.PathKey == in.it.PathKey && outIt.Category == in.it.Category {
			continue // avoid degenerate self-nesting
		}
		outPath, _ := rdf.ParsePath(kb.Store, outIt.PathKey)
		e := in.subjects[r.Intn(len(in.subjects))]

		// Gold: resolve the chain.
		answers := chainAnswers(kb, e, in.path, outPath)
		if len(answers) == 0 {
			continue
		}
		np := in.nps[r.Intn(len(in.nps))]
		npText := strings.Replace(np, "$e", text.Normalize(kb.Store.Label(e)), 1)
		para := outIt.Paraphrases[r.Intn(len(outIt.Paraphrases))]
		q := strings.Replace(para, "$e", npText, 1)
		q = strings.ToUpper(q[:1]) + q[1:] + "?"
		out = append(out, ComplexPair{
			Q:           q,
			InnerPath:   in.it.PathKey,
			OuterPath:   outIt.PathKey,
			GoldEntity:  e,
			GoldAnswers: answers,
		})
	}
	return out
}

// valueCategory determines which entity category an intent's values belong
// to, by sampling subjects. Values that are literals are resolved through
// the entities carrying the same label (a spouse's name resolves to the
// spouse). Returns "" when values are not entity-like.
func valueCategory(kb *kbgen.KB, subjects []rdf.ID, path rdf.Path) string {
	catPred, ok := kb.Store.PredID("category")
	if !ok {
		return ""
	}
	for i := 0; i < len(subjects) && i < 5; i++ {
		for _, v := range rdf.PathObjects(nil, kb.Store, subjects[i], path) {
			for _, ent := range entityOf(kb, v) {
				cats := kb.Store.Objects(ent, catPred)
				if len(cats) > 0 {
					return kb.Store.Label(cats[0])
				}
			}
		}
	}
	return ""
}

// entityOf resolves a value node to entity nodes: itself when it is an
// entity, otherwise the entities whose label matches the literal.
func entityOf(kb *kbgen.KB, v rdf.ID) []rdf.ID {
	if kb.Store.KindOf(v) == rdf.KindEntity {
		return []rdf.ID{v}
	}
	return kb.Store.EntitiesByLabel(kb.Store.Label(v))
}

// chainAnswers resolves inner then outer, returning normalized labels.
func chainAnswers(kb *kbgen.KB, e rdf.ID, innerPath, outerPath rdf.Path) []string {
	var answers []string
	seen := make(map[string]bool)
	for _, mid := range rdf.PathObjects(nil, kb.Store, e, innerPath) {
		for _, ent := range entityOf(kb, mid) {
			for _, v := range rdf.PathObjects(nil, kb.Store, ent, outerPath) {
				label := text.Normalize(kb.Store.Label(v))
				if !seen[label] {
					seen[label] = true
					answers = append(answers, label)
				}
			}
		}
	}
	return answers
}
