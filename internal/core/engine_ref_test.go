package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/concept"
	"repro/internal/corpus"
	"repro/internal/decompose"
	"repro/internal/extract"
	"repro/internal/kbgen"
	"repro/internal/learn"
	"repro/internal/rdf"
	"repro/internal/text"
)

// bfqFunc answers one BFQ given by its tokens, with its top-k ranking: one
// question, one read.
type bfqFunc func(ctx context.Context, toks []string, k int) (Answer, []Ranked, error)

// idBFQ is the engine's own BFQ routine.
func idBFQ(e *Engine) bfqFunc {
	return func(ctx context.Context, toks []string, k int) (Answer, []Ranked, error) {
		q := e.parse(toks)
		ans, cands, err := e.bfq(ctx, &q)
		return ans, e.rankTopK(q.s, cands, k), err
	}
}

// serialAnswer is the reference for how Answer plans a complex question:
// it answers one sub-question at a time with bfq, each with its own read.
// The δ oracle is a closure the DP calls per span, running one bfq for each
// span that contains a mention, and every hop — the first included — runs
// one bfq per binding. Variants are not routed; no timings or spans are
// kept.
func serialAnswer(ctx context.Context, e *Engine, question string, k int, bfq bfqFunc) (Answer, []Ranked, error) {
	toks := text.Tokenize(question)
	ans, ranked, direct := bfq(ctx, toks, k)
	if direct == nil {
		return ans, ranked, nil
	}
	if !Unanswerable(direct) || e.Stats == nil {
		return Answer{}, nil, direct
	}
	whole := len(toks)
	toks = toks[:min(whole, maxDecomposeTokens)]
	mentions := e.KB.Lexicon.Find(toks)
	if len(mentions) == 0 {
		return Answer{}, nil, direct
	}
	var oracleErr error
	prims := make(map[text.Span][]string)
	primitive := func(sp text.Span) bool {
		if ctx.Err() != nil || oracleErr != nil || sp.Len() == whole {
			return false
		}
		for _, m := range mentions {
			if sp.Contains(m.Span) {
				sub := toks[sp.Start:sp.End]
				_, _, err := bfq(ctx, sub, 0)
				if err == nil {
					prims[sp] = sub
				} else if !Unanswerable(err) {
					oracleErr = err
				}
				return err == nil
			}
		}
		return false
	}
	// The oracle is asked about every span, in the DP's order.
	var accepted []text.Span
	for length := 1; length <= len(toks); length++ {
		for i := 0; i+length <= len(toks); i++ {
			if sp := (text.Span{Start: i, End: i + length}); primitive(sp) {
				accepted = append(accepted, sp)
			}
		}
	}
	d := &decompose.Decomposer{MaxQuestionTokens: maxDecomposeTokens, Stats: e.Stats}
	dec, ok := d.Decompose(toks, accepted)
	if err := ctx.Err(); err != nil {
		return Answer{}, nil, err
	}
	if oracleErr != nil {
		return Answer{}, nil, oracleErr
	}
	if ok && dec.IsComplex() {
		ans, ranked, err := serialChain(ctx, prims[dec.First], dec.Sequence[1:], k, bfq)
		if err == nil || !Unanswerable(err) {
			return ans, ranked, err
		}
	}
	return Answer{}, nil, direct
}

// serialChain executes a decomposition one bound question at a time.
func serialChain(ctx context.Context, first []string, patterns [][]string, k int, bfq bfqFunc) (Answer, []Ranked, error) {
	firstQ := text.Join(first)
	final, finalRanked, err := bfq(ctx, first, k)
	if err != nil {
		return Answer{}, nil, err
	}
	steps := []Step{{Question: firstQ, Questions: []string{firstQ}, Template: final.Template, Path: final.Path, Value: final.Value}}
	current := final.Values
	if len(current) > maxChainValues {
		current = current[:maxChainValues]
	}
	for _, pat := range patterns {
		valueSet := make(map[string]bool)
		var stepAnswer Answer
		var stepRanked []Ranked
		var stepQuestion string
		var executed []string
		hopAnswered := false
		for _, v := range current {
			if err := ctx.Err(); err != nil {
				return Answer{}, nil, err
			}
			toks := decompose.Bind(nil, pat, strings.Fields(v))
			qs := text.Join(toks)
			executed = append(executed, qs)
			ans, ranked, err := bfq(ctx, toks, k)
			if err != nil {
				if Unanswerable(err) {
					continue
				}
				return Answer{}, nil, err
			}
			hopAnswered = true
			if !ans.less(stepAnswer) {
				stepAnswer, stepRanked, stepQuestion = ans, ranked, qs
			}
			for _, nv := range ans.Values {
				valueSet[nv] = true
			}
		}
		if !hopAnswered {
			return Answer{}, nil, ErrNoAnswer
		}
		next := make([]string, 0, len(valueSet))
		for v := range valueSet {
			next = append(next, v)
		}
		sort.Strings(next)
		if len(next) > maxChainValues {
			next = next[:maxChainValues]
		}
		steps = append(steps, Step{Question: stepQuestion, Questions: executed, Template: stepAnswer.Template, Path: stepAnswer.Path, Value: stepAnswer.Value})
		current = next
		final, finalRanked = stepAnswer, stepRanked
		final.Values = next
	}
	final.Steps = steps
	if len(final.Values) > 0 {
		final.Value = final.Values[0]
		for _, v := range final.Values {
			if v == steps[len(steps)-1].Value {
				final.Value = v
				break
			}
		}
	}
	return final, finalRanked, nil
}

// The question path as it was before the vocabulary: every structure read
// by string. It is the reference the ID path is checked against; answers,
// scores and errors must not tell the two apart.

// stringTheta is θ by template text, and each template's content words as
// strings, built once per engine from its compiled templates.
type stringTheta struct {
	byText  map[string]*compiledTemplate
	content map[*compiledTemplate][]string
}

var (
	stringThetaMu sync.Mutex
	stringThetas  = map[*Engine]*stringTheta{}
)

func thetaByText(e *Engine) *stringTheta {
	stringThetaMu.Lock()
	defer stringThetaMu.Unlock()
	if st := stringThetas[e]; st != nil {
		return st
	}
	st := &stringTheta{byText: map[string]*compiledTemplate{}, content: map[*compiledTemplate][]string{}}
	for _, ct := range e.templates {
		st.byText[ct.text] = ct
		for _, tok := range strings.Fields(ct.text) {
			if !strings.HasPrefix(tok, "$") && !text.IsStopword(tok) {
				st.content[ct] = append(st.content[ct], tok)
			}
		}
	}
	stringThetas[e] = st
	return st
}

// stringInterp is interpretation with the template by its text.
type stringInterp struct {
	entity   rdf.ID
	template string
	path     *groundedPath
	weight   float64
	values   []rdf.ID
}

// stringBFQ is Eq (7) as the string path evaluated it: mentions by the
// lexicon's by-token adapter, each template key written as bytes
// (text.AppendHead, text.AppendPlaceholder) and looked up by text, P(c|q,e)
// by Taxonomy.Conceptualize, values summed by label, the ranking merged and
// ordered by string keys.
func stringBFQ(e *Engine) bfqFunc {
	st := thetaByText(e)
	return func(ctx context.Context, toks []string, k int) (Answer, []Ranked, error) {
		mentions := e.KB.Lexicon.Find(toks)
		if len(mentions) == 0 {
			return Answer{}, nil, ErrNoEntity
		}
		entities := 0
		for _, m := range mentions {
			entities += len(m.Entities)
		}
		pe := 1.0 / float64(entities)
		var cands []stringInterp
		sawMass := false
		for _, m := range mentions {
			context := append(append([]string{}, toks[:m.Span.Start]...), toks[m.Span.End:]...)
			prefix := text.AppendHead(nil, toks[:m.Span.Start])
			var learned []stringInterp
			for _, c := range e.Taxonomy.Conceptualize(m.Surface, context) {
				if c.P <= 0 {
					continue
				}
				key := text.AppendPlaceholder(append([]byte{}, prefix...), c.Concept, toks[m.Span.End:])
				ct := st.byText[string(key)]
				if ct == nil {
					continue
				}
				sawMass = true
				for _, p := range ct.paths {
					learned = append(learned, stringInterp{template: ct.text, path: p.groundedPath, weight: pe * c.P * p.p})
				}
			}
			for _, ent := range m.Entities {
				for _, c := range learned {
					c.entity = ent
					cands = append(cands, c)
				}
			}
		}
		probes := make([]rdf.Probe, len(cands))
		for i, c := range cands {
			probes[i] = rdf.Probe{Subj: c.entity, Path: c.path.path}
		}
		var values [][]rdf.ID
		if len(probes) > 0 {
			var err error
			if values, err = readAll(ctx, e.Index, probes); err != nil {
				return Answer{}, nil, err
			}
		}
		kept := cands[:0]
		for i, c := range cands {
			if c.values = values[i]; len(c.values) > 0 {
				kept = append(kept, c)
			}
		}
		if ans, ok := stringAggregate(e, kept); ok {
			return ans, stringRankTopK(e, kept, k), nil
		}
		if !sawMass {
			return Answer{}, nil, ErrNoTemplate
		}
		return Answer{}, nil, ErrNoAnswer
	}
}

// stringAggregate is aggregate keyed by label.
func stringAggregate(e *Engine, cands []stringInterp) (Answer, bool) {
	if len(cands) == 0 {
		return Answer{}, false
	}
	type acc struct {
		score float64
		best  stringInterp
		bestW float64
	}
	byValue := make(map[string]*acc)
	for _, c := range cands {
		perValue := c.weight / float64(len(c.values))
		for _, v := range c.values {
			label := text.Normalize(e.KB.Label(v))
			a := byValue[label]
			if a == nil {
				a = &acc{}
				byValue[label] = a
			}
			a.score += perValue
			if perValue > a.bestW || (perValue == a.bestW && a.bestW > 0 &&
				(c.path.key < a.best.path.key || (c.path == a.best.path && c.template < a.best.template))) {
				a.bestW = perValue
				a.best = c
			}
		}
	}
	var bestLabel string
	var best *acc
	for label, a := range byValue {
		if best == nil || a.score > best.score || (a.score == best.score && label < bestLabel) {
			bestLabel, best = label, a
		}
	}
	values := make([]string, 0, len(best.best.values))
	for _, v := range best.best.values {
		values = append(values, text.Normalize(e.KB.Label(v)))
	}
	sort.Strings(values)
	return Answer{Value: bestLabel, Values: values, Score: best.score, Entity: best.best.entity, Template: best.best.template, Path: best.best.path.key}, true
}

// stringRankTopK is rankTopK keyed by (entity, template text, path key).
func stringRankTopK(e *Engine, cands []stringInterp, k int) []Ranked {
	if k <= 0 || len(cands) == 0 {
		return nil
	}
	type tkey struct {
		ent       rdf.ID
		tpl, path string
	}
	type merged struct {
		score float64
		cand  int
	}
	byKey := make(map[tkey]*merged)
	var order []tkey
	for i, c := range cands {
		kk := tkey{c.entity, c.template, c.path.key}
		if m := byKey[kk]; m != nil {
			m.score += c.weight
			continue
		}
		byKey[kk] = &merged{score: c.weight, cand: i}
		order = append(order, kk)
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := byKey[order[i]], byKey[order[j]]
		if a.score != b.score {
			return a.score > b.score
		}
		if order[i].path != order[j].path {
			return order[i].path < order[j].path
		}
		if order[i].tpl != order[j].tpl {
			return order[i].tpl < order[j].tpl
		}
		return order[i].ent < order[j].ent
	})
	if len(order) > k {
		order = order[:k]
	}
	out := make([]Ranked, len(order))
	for i, kk := range order {
		m := byKey[kk]
		var values []string
		for _, v := range cands[m.cand].values {
			values = append(values, text.Normalize(e.KB.Label(v)))
		}
		sort.Strings(values)
		out[i] = Ranked{Entity: kk.ent, EntityLabel: text.Normalize(e.KB.Label(kk.ent)), Template: kk.tpl, Path: kk.path, Score: m.score, Values: values}
	}
	return out
}

// stringVariant is variant routing by string: the word tables as maps
// read per token, categories by Taxonomy.HasConcept over singularForms,
// comparatives through a map of their canonical words, and template
// overlap scored against a set of the question's content words.
func stringVariant(ctx context.Context, e *Engine, toks []string) (VariantAnswer, bool, error) {
	if len(toks) == 0 {
		return VariantAnswer{}, false, nil
	}
	// Comparison.
	if orIdx := slicesLastIndex(toks, "or"); orIdx > 0 {
		mentions := e.KB.Lexicon.Find(toks)
		var left, right *extract.Mention
		for i := range mentions {
			m := &mentions[i]
			if m.Span.End <= orIdx {
				left = m
			} else if m.Span.Start > orIdx && right == nil {
				right = m
			}
		}
		if len(mentions) >= 2 && left != nil && right != nil {
			words := make([]string, 0, left.Span.Start)
			for _, t := range toks[:left.Span.Start] {
				if c, ok := canon[t]; ok {
					t = c
				}
				words = append(words, t)
			}
			path, _, err := stringBestTemplateFor(ctx, e, words)
			if path == "" || err != nil {
				return VariantAnswer{}, false, err
			}
			lv, lok, err := e.numericValue(ctx, new(scratch), left.Entities, path)
			if !lok || err != nil {
				return VariantAnswer{}, false, err
			}
			rv, rok, err := e.numericValue(ctx, new(scratch), right.Entities, path)
			if !rok || err != nil {
				return VariantAnswer{}, false, err
			}
			winner, val := left, lv
			if rv > lv {
				winner, val = right, rv
			}
			return VariantAnswer{Kind: VariantComparison, Entities: []string{winner.Surface}, Values: []string{formatNumber(val)}, Path: path}, true, nil
		}
	}
	category := func() (string, string, error) {
		cat := ""
		for _, t := range toks {
			for _, cand := range singularForms(t) {
				if _, ok := e.concepts.ID(cand); ok {
					cat = cand
					break
				}
			}
			if cat != "" {
				break
			}
		}
		if cat == "" {
			return "", "", nil
		}
		path, _, err := stringBestTemplateFor(ctx, e, toks)
		return cat, path, err
	}
	// Ranking.
	rank, dirMax, hasSuper := 1, true, false
	for _, t := range toks {
		if r, ok := ordinals[t]; ok {
			rank = r
		}
		if d, ok := superlatives[t]; ok {
			hasSuper, dirMax = true, dirMax && d > 0
		}
	}
	if hasSuper {
		cat, path, err := category()
		if cat == "" || path == "" || err != nil {
			return VariantAnswer{}, false, err
		}
		ranked, err := e.rankCategory(ctx, new(scratch), cat, path, dirMax)
		if rank > len(ranked) || err != nil {
			return VariantAnswer{}, false, err
		}
		row := ranked[rank-1]
		return VariantAnswer{Kind: VariantRanking, Entities: []string{row.label}, Values: []string{formatNumber(row.value)}, Path: path, Category: cat}, true, nil
	}
	// Listing.
	if !listingLead(toks) || (slicesLastIndex(toks, "ordered") < 0 && slicesLastIndex(toks, "sorted") < 0 && slicesLastIndex(toks, "by") < 0) {
		return VariantAnswer{}, false, nil
	}
	cat, path, err := category()
	if cat == "" || path == "" || err != nil {
		return VariantAnswer{}, false, err
	}
	ranked, err := e.rankCategory(ctx, new(scratch), cat, path, true)
	if len(ranked) == 0 || err != nil {
		return VariantAnswer{}, false, err
	}
	ans := VariantAnswer{Kind: VariantListing, Path: path, Category: cat}
	for i, row := range ranked {
		if i == 10 {
			break
		}
		ans.Entities = append(ans.Entities, row.label)
		ans.Values = append(ans.Values, formatNumber(row.value))
	}
	return ans, true, nil
}

func slicesLastIndex(toks []string, w string) int {
	for i := len(toks) - 1; i >= 0; i-- {
		if toks[i] == w {
			return i
		}
	}
	return -1
}

// stringBestTemplateFor is bestTemplateFor over a map of content words.
func stringBestTemplateFor(ctx context.Context, e *Engine, words []string) (string, float64, error) {
	st := thetaByText(e)
	content := make(map[string]bool)
	for _, w := range words {
		if !text.IsStopword(w) && !strings.HasPrefix(w, "$") {
			content[w] = true
		}
	}
	bestScore, bestConf, bestPath := 0.0, 0.0, ""
	for _, tpl := range e.templates {
		overlap := 0
		for _, tok := range st.content[tpl] {
			if content[tok] {
				overlap++
			}
		}
		if overlap == 0 {
			continue
		}
		score := float64(overlap) * float64(overlap) / float64(len(st.content[tpl]))
		if score > bestScore || (score == bestScore && bestPath != "") {
			bp, bpv := tpl.best, tpl.bestP
			numeric, err := e.numericPredicate(ctx, new(scratch), bp)
			if err != nil {
				return "", 0, err
			}
			if !numeric {
				continue
			}
			if score > bestScore || bpv > bestConf || (bpv == bestConf && bp < bestPath) {
				bestScore, bestConf, bestPath = score, bpv, bp
			}
		}
	}
	return bestPath, bestScore, nil
}

// stringAnswer is Answer as the string path computed it.
func stringAnswer(ctx context.Context, e *Engine, question string, k int, variants bool) (Answer, []Ranked, error) {
	if variants {
		va, ok, err := stringVariant(ctx, e, text.Tokenize(question))
		if err != nil {
			return Answer{}, nil, err
		}
		if ok {
			return Answer{Variant: &va}, nil, nil
		}
	}
	return serialAnswer(ctx, e, question, k, stringBFQ(e))
}

// sameAnswer reports how got differs from want, "" when it does not: the
// same typed error, the same Answer with a bit-equal Score, the same
// ranking with bit-equal scores.
func sameAnswer(got Answer, gotTop []Ranked, gotErr error, want Answer, wantTop []Ranked, wantErr error) string {
	if !errors.Is(gotErr, wantErr) || !errors.Is(wantErr, gotErr) {
		return fmt.Sprintf("err = %v, the reference's %v", gotErr, wantErr)
	}
	if math.Float64bits(got.Score) != math.Float64bits(want.Score) || !reflect.DeepEqual(got, want) {
		return fmt.Sprintf("\nanswer    %+v\nreference %+v", got, want)
	}
	same := len(gotTop) == len(wantTop) && reflect.DeepEqual(gotTop, wantTop)
	for i := 0; same && i < len(gotTop); i++ {
		same = math.Float64bits(gotTop[i].Score) == math.Float64bits(wantTop[i].Score)
	}
	if !same {
		return fmt.Sprintf("\nranked    %+v\nreference %+v", gotTop, wantTop)
	}
	return ""
}

// TestWholeQuestionPlanMatchesSerial: planning a complex question per phase
// — one read for the δ oracle, the first hop taken from it, one read per
// later hop — answers exactly as the serial reference does, on the fixture
// world and on a DBpedia-flavored one: the same Answer with a bit-equal
// Score and the same Steps (Questions in order), the same top-3 Ranked,
// the same typed error.
func TestWholeQuestionPlanMatchesSerial(t *testing.T) {
	ctx := context.Background()
	for _, f := range []*fixture{world(t), trainedWorld(kbgen.DBpedia, 42)} {
		questions := corpus.Questions(f.pairs)
		for _, cp := range corpus.ComposeComplex(f.kb, 99, 300) {
			questions = append(questions, cp.Q)
		}
		decomposed := 0
		for _, q := range questions {
			got, gotTop, _, gotErr := f.engine.Answer(ctx, q, 3, false)
			want, wantTop, wantErr := serialAnswer(ctx, f.engine, q, 3, idBFQ(f.engine))
			if diff := sameAnswer(got, gotTop, gotErr, want, wantTop, wantErr); diff != "" {
				t.Fatalf("%v world, %q: serial reference differs: %s", f.kb.Flavor, q, diff)
			}
			if len(got.Steps) > 1 {
				decomposed++
			}
		}
		t.Logf("%v world: %d questions agree, %d of them decomposed", f.kb.Flavor, len(questions), decomposed)
		if decomposed == 0 {
			t.Fatalf("%v world decomposes none of its questions", f.kb.Flavor)
		}
	}
}

// oovWord is in no vocabulary an engine compiles.
const oovWord = "zqxv"

// variantQuestions are ranking, listing and comparison questions over f's
// categories and entities, in the shapes the benchmark pool asks.
func variantQuestions(f *fixture) []string {
	var qs []string
	for _, g := range []struct{ cat, plural, attr string }{
		{"city", "cities", "population"}, {"country", "countries", "area"}, {"company", "companies", "revenue"},
		{"person", "persons", "height"}, {"river", "rivers", "length"},
	} {
		qs = append(qs,
			"which "+g.cat+" has the largest "+g.attr+"?",
			"which "+g.cat+" has the third smallest "+g.attr+"?",
			"list "+g.plural+" ordered by "+g.attr,
			"give me "+g.plural+" by "+g.attr)
	}
	var labels []string
	for _, p := range f.pairs {
		if len(labels) == 6 {
			break
		}
		for _, m := range f.engine.KB.Lexicon.Find(text.Tokenize(p.Q)) {
			labels = append(labels, m.Surface)
		}
	}
	for i := 0; i+1 < len(labels); i += 2 {
		qs = append(qs, "which has more people, "+labels[i]+" or "+labels[i+1]+"?", "who is taller, "+labels[i]+" or "+labels[i+1]+"?")
	}
	return qs
}

// punctuationWorld is a city whose mayor is three entities, two of them
// labelled with punctuation only.
func punctuationWorld() *Engine {
	kb := rdf.NewStore()
	city, mayor := kb.Entity("Norhaven"), kb.Pred("mayor")
	for _, label := range []string{"?!", "--", "Bob"} {
		kb.Add(city, mayor, kb.Entity(label))
	}
	tax := concept.NewTaxonomy()
	tax.AddIsA("norhaven", "city", 1)
	model := &learn.Model{Theta: map[string]map[string]float64{"who is the mayor of $city": {"mayor": 1}}}
	return NewEngine(CompileSymbols(kb), LocalIndex(kb), tax, model, nil)
}

// TestIDPathMatchesStringPath: reading a question as vocabulary IDs
// answers exactly as the string path did, on 3 flavors × 2 seeds (one seed
// under -short): every corpus question, 300 composed ones, variant-shaped
// ones, and each of them with one token swapped for a word no vocabulary
// holds — the same Answer (variants routed and not), the same top-3
// Ranked with bit-equal scores, the same typed error.
func TestIDPathMatchesStringPath(t *testing.T) {
	ctx := context.Background()
	// Answer values whose labels normalize to "" are one value, though no
	// label index files the empty label.
	punct := punctuationWorld()
	for _, q := range []string{"who is the mayor of norhaven?", "who is the mayor of " + oovWord + "?"} {
		got, gotTop, _, gotErr := punct.Answer(ctx, q, 3, false)
		want, wantTop, wantErr := stringAnswer(ctx, punct, q, 3, false)
		if diff := sameAnswer(got, gotTop, gotErr, want, wantTop, wantErr); diff != "" {
			t.Fatalf("punctuation-labelled values, %q: the string path differs: %s", q, diff)
		}
	}
	if ans, _, _, err := punct.Answer(ctx, "who is the mayor of norhaven?", 0, false); err != nil || ans.Value != "" || math.Abs(ans.Score-2.0/3) > 1e-12 {
		t.Fatalf("punctuation-labelled values: %+v, %v; want the value \"\" with two thirds of the mass", ans, err)
	}
	seeds := []int64{42, 7}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, flavor := range []kbgen.Flavor{kbgen.KBA, kbgen.Freebase, kbgen.DBpedia} {
		for _, seed := range seeds {
			f := trainedWorld(flavor, seed)
			questions := corpus.Questions(f.pairs)
			for _, cp := range corpus.ComposeComplex(f.kb, 99, 300) {
				questions = append(questions, cp.Q)
			}
			questions = append(questions, variantQuestions(f)...)
			for i, q := range questions[:len(questions):len(questions)] {
				if toks := text.Tokenize(q); len(toks) > 0 {
					toks[i%len(toks)] = oovWord
					questions = append(questions, text.Join(toks))
				}
			}
			answered, variants := 0, 0
			for _, q := range questions {
				for _, routed := range []bool{false, true} {
					got, gotTop, _, gotErr := f.engine.Answer(ctx, q, 3, routed)
					want, wantTop, wantErr := stringAnswer(ctx, f.engine, q, 3, routed)
					if diff := sameAnswer(got, gotTop, gotErr, want, wantTop, wantErr); diff != "" {
						t.Fatalf("%v world, seed %d, variants %v, %q: the string path differs: %s", flavor, seed, routed, q, diff)
					}
					if gotErr == nil {
						answered++
					}
					if got.Variant != nil {
						variants++
					}
				}
			}
			t.Logf("%v world, seed %d: %d questions agree twice, %d answers, %d of them variants", flavor, seed, len(questions), answered, variants)
			if answered == 0 || variants == 0 {
				t.Fatalf("%v world, seed %d: the sweep answers %d questions, %d as variants", flavor, seed, answered, variants)
			}
		}
	}
}

// FuzzAnswerAnyText: whatever text arrives — control bytes, placeholders,
// clitics, numbers, the words of labels and templates in any order —
// Answer returns an answer or a typed error without panicking, and
// answers as the string path does.
func FuzzAnswerAnyText(f *testing.F) {
	fx := world(f)
	for _, q := range []string{
		"", " \t\n", "\x00\x01\x7f", "\xff\xfe", "$e", "$city", "what is the population of $city",
		"'s 's 's", "it's", "1923 1.5 12m 390k", "nan inf", "what is the population of the the of",
		"which city has the 3rd largest population?", "list cities ordered by population",
		"which has more people, a or b?", "or", "give me",
	} {
		f.Add(q, false)
		f.Add(q, true)
	}
	for i, p := range fx.pairs {
		if i%97 == 0 {
			f.Add(p.Q, i%2 == 0)
		}
	}
	for _, cp := range corpus.ComposeComplex(fx.kb, 3, 8) {
		f.Add(cp.Q, false)
	}
	for _, q := range variantQuestions(fx) {
		f.Add(q, true)
	}
	for i, ct := range fx.engine.templates {
		if i%50 == 0 {
			f.Add(ct.text, false)
		}
	}
	ctx := context.Background()
	f.Fuzz(func(t *testing.T, q string, variants bool) {
		got, gotTop, _, gotErr := fx.engine.Answer(ctx, q, 3, variants)
		if gotErr != nil && !Unanswerable(gotErr) {
			t.Fatalf("Answer(%q) = %v, not a typed no-answer error", q, gotErr)
		}
		want, wantTop, wantErr := stringAnswer(ctx, fx.engine, q, 3, variants)
		if diff := sameAnswer(got, gotTop, gotErr, want, wantTop, wantErr); diff != "" {
			t.Fatalf("%q (variants %v): the string path differs: %s", q, variants, diff)
		}
	})
}
