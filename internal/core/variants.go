package core

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/extract"
	"repro/internal/rdf"
	"repro/internal/text"
)

// This file implements the BFQ variants of Sec 1: ranking questions
// ("which city has the 3rd largest population?"), comparison questions
// ("which city has more people, Honolulu or New Jersey?") and listing
// questions ("list cities ordered by population"). The paper's claim is
// that answering BFQs suffices to answer these; the implementation bears
// that out — each variant reduces to the learned template→predicate
// mapping plus an aggregation over V(e, p).

// VariantKind classifies a recognized variant question.
type VariantKind uint8

// The supported variant kinds.
const (
	VariantNone VariantKind = iota
	VariantRanking
	VariantComparison
	VariantListing
)

func (k VariantKind) String() string {
	switch k {
	case VariantRanking:
		return "ranking"
	case VariantComparison:
		return "comparison"
	case VariantListing:
		return "listing"
	default:
		return "none"
	}
}

// VariantAnswer is the reply to a variant question.
type VariantAnswer struct {
	Kind VariantKind
	// Entities are the winning entities (one for ranking/comparison, the
	// ordered list for listing), by surface form.
	Entities []string
	// Values aligns with Entities: the predicate value that ranked them.
	Values []string
	// Path is the predicate the variant aggregated over.
	Path string
	// Category is the subject category ranked over.
	Category string
}

// ordinals maps ordinal words/numerals to ranks (1-based).
var ordinals = map[string]int{
	"first": 1, "1st": 1, "second": 2, "2nd": 2, "third": 3, "3rd": 3,
	"fourth": 4, "4th": 4, "fifth": 5, "5th": 5, "sixth": 6, "6th": 6,
	"seventh": 7, "7th": 7, "eighth": 8, "8th": 8, "ninth": 9, "9th": 9,
	"tenth": 10, "10th": 10,
}

// superlatives that select the maximum vs the minimum of a numeric
// predicate.
var superlativeMax = map[string]bool{
	"largest": true, "biggest": true, "highest": true, "longest": true,
	"tallest": true, "most": true, "greatest": true,
}
var superlativeMin = map[string]bool{
	"smallest": true, "lowest": true, "shortest": true, "least": true,
	"fewest": true, "youngest": true,
}

// answerVariant recognizes and answers ranking, comparison and listing
// questions over the question's shared parse (a comparison needs the
// mentions; whatever it finds the direct path reuses). ok is false when the
// question is not a recognizable variant or the aggregation cannot be
// grounded. err is ctx's or the Index's: a ranking over a category whose
// shard is unreachable is an error, never a shorter ranking.
func (e *Engine) answerVariant(ctx context.Context, q *parsed, tm *Timings) (VariantAnswer, bool, error) {
	if len(q.toks) == 0 {
		return VariantAnswer{}, false, nil
	}
	if ans, ok, err := e.tryComparison(ctx, q, tm); ok || err != nil {
		return ans, ok, err
	}
	if ans, ok, err := e.tryRanking(ctx, q.toks); ok || err != nil {
		return ans, ok, err
	}
	return e.tryListing(ctx, q.toks)
}

// tryComparison handles "which city has more people , Honolulu or New
// Jersey" and "who is taller , A or B": two entity mentions joined by
// "or", with the comparative phrase resolving to a numeric predicate
// through the learned templates.
func (e *Engine) tryComparison(ctx context.Context, q *parsed, tm *Timings) (VariantAnswer, bool, error) {
	toks := q.toks
	orIdx := -1
	for i, t := range toks {
		if t == "or" {
			orIdx = i
		}
	}
	if orIdx <= 0 {
		return VariantAnswer{}, false, nil
	}
	mentions := e.mentionsOf(q, tm)
	if len(mentions) < 2 {
		return VariantAnswer{}, false, nil
	}
	// The compared pair straddles the "or".
	var left, right *extract.Mention
	for i := range mentions {
		m := &mentions[i]
		if m.Span.End <= orIdx {
			left = m
		} else if m.Span.Start > orIdx && right == nil {
			right = m
		}
	}
	if left == nil || right == nil {
		return VariantAnswer{}, false, nil
	}
	// Resolve the predicate from the non-entity words; more is better.
	path, err := e.resolveComparativePredicate(ctx, toks[:left.Span.Start])
	if path == "" || err != nil {
		return VariantAnswer{}, false, err
	}
	lv, lok, err := e.numericValue(ctx, left.Entities, path)
	if !lok || err != nil {
		return VariantAnswer{}, false, err
	}
	rv, rok, err := e.numericValue(ctx, right.Entities, path)
	if !rok || err != nil {
		return VariantAnswer{}, false, err
	}
	winner, val := left, lv
	if rv > lv {
		winner, val = right, rv
	}
	return VariantAnswer{
		Kind:     VariantComparison,
		Entities: []string{winner.Surface},
		Values:   []string{formatNumber(val)},
		Path:     path,
	}, true, nil
}

// tryRanking handles "which city has the 3rd largest population".
func (e *Engine) tryRanking(ctx context.Context, toks []string) (VariantAnswer, bool, error) {
	rank := 1
	dirMax := true
	hasSuper := false
	for _, t := range toks {
		if r, ok := ordinals[t]; ok {
			rank = r
		}
		if superlativeMax[t] {
			hasSuper = true
		}
		if superlativeMin[t] {
			hasSuper = true
			dirMax = false
		}
	}
	if !hasSuper {
		return VariantAnswer{}, false, nil
	}
	category, path, err := e.resolveCategoryPredicate(ctx, toks)
	if category == "" || path == "" || err != nil {
		return VariantAnswer{}, false, err
	}
	ranked, err := e.rankCategory(ctx, category, path, dirMax)
	if rank > len(ranked) || err != nil {
		return VariantAnswer{}, false, err
	}
	row := ranked[rank-1]
	return VariantAnswer{
		Kind:     VariantRanking,
		Entities: []string{row.label},
		Values:   []string{formatNumber(row.value)},
		Path:     path,
		Category: category,
	}, true, nil
}

// listingLead reports whether the question opens like a listing request.
func listingLead(toks []string) bool {
	return toks[0] == "list" || toks[0] == "name" || (len(toks) > 1 && toks[0] == "give" && toks[1] == "me")
}

// tryListing handles "list cities ordered by population" and "list all
// cities by area".
func (e *Engine) tryListing(ctx context.Context, toks []string) (VariantAnswer, bool, error) {
	if !listingLead(toks) {
		return VariantAnswer{}, false, nil
	}
	hasOrder := false
	for _, t := range toks {
		if t == "ordered" || t == "sorted" || t == "by" {
			hasOrder = true
		}
	}
	if !hasOrder {
		return VariantAnswer{}, false, nil
	}
	category, path, err := e.resolveCategoryPredicate(ctx, toks)
	if category == "" || path == "" || err != nil {
		return VariantAnswer{}, false, err
	}
	ranked, err := e.rankCategory(ctx, category, path, true)
	if len(ranked) == 0 || err != nil {
		return VariantAnswer{}, false, err
	}
	const listCap = 10
	ans := VariantAnswer{Kind: VariantListing, Path: path, Category: category}
	for i, row := range ranked {
		if i == listCap {
			break
		}
		ans.Entities = append(ans.Entities, row.label)
		ans.Values = append(ans.Values, formatNumber(row.value))
	}
	return ans, true, nil
}

// resolveComparativePredicate grounds a comparative phrase ("has more
// people", "is taller") in a predicate by scoring the phrase's content
// words against the learned templates and taking the best template's
// argmax predicate.
func (e *Engine) resolveComparativePredicate(ctx context.Context, head []string) (string, error) {
	// Comparative → canonical content word that appears in templates.
	canon := map[string]string{
		"more": "many", "taller": "tall", "larger": "large", "bigger": "big",
		"higher": "high", "longer": "long", "older": "old", "smaller": "large",
	}
	words := make([]string, 0, len(head))
	for _, t := range head {
		if c, ok := canon[t]; ok {
			t = c
		}
		words = append(words, t)
	}
	path, _, err := e.bestTemplateFor(ctx, words)
	return path, err
}

// resolveCategoryPredicate finds the subject category word and the
// predicate of a ranking/listing question.
func (e *Engine) resolveCategoryPredicate(ctx context.Context, toks []string) (category, path string, err error) {
	for _, t := range toks {
		for _, cand := range singularForms(t) {
			if e.Taxonomy.HasConcept(cand) {
				category = cand
				break
			}
		}
		if category != "" {
			break
		}
	}
	if category == "" {
		return "", "", nil
	}
	path, _, err = e.bestTemplateFor(ctx, toks)
	return category, path, err
}

// singularForms proposes singular candidates for a possibly-plural token:
// the token itself, minus a trailing "s", and "-ies" → "-y".
func singularForms(t string) []string {
	out := []string{t}
	if strings.HasSuffix(t, "ies") {
		out = append(out, strings.TrimSuffix(t, "ies")+"y")
	}
	if strings.HasSuffix(t, "s") {
		out = append(out, strings.TrimSuffix(t, "s"))
	}
	return out
}

// bestTemplateFor scores the learned templates against the question's
// content words by token overlap and returns the argmax predicate of the
// best-matching template. This is how variants reuse the knowledge the EM
// phase learned instead of a hand-written keyword table.
func (e *Engine) bestTemplateFor(ctx context.Context, words []string) (string, float64, error) {
	content := make(map[string]bool)
	for _, w := range words {
		if !text.IsStopword(w) && !strings.HasPrefix(w, "$") {
			content[w] = true
		}
	}
	// Iterate templates in sorted order and break score ties on the
	// model's own confidence P(p|t): map-order iteration with a strict >
	// made the winning predicate nondeterministic whenever two templates
	// overlapped equally (e.g. a noise-trained template shadowing "how
	// tall is $person").
	bestScore := 0.0
	bestConf := 0.0
	bestPath := ""
	for _, tpl := range e.templates {
		overlap := 0
		for _, tok := range tpl.content {
			if content[tok] {
				overlap++
			}
		}
		if overlap == 0 {
			continue
		}
		score := float64(overlap) * float64(overlap) / float64(len(tpl.content))
		if score > bestScore || (score == bestScore && bestPath != "") {
			bp, bpv := tpl.best, tpl.bestP
			// Only numeric predicates can be ranked.
			numeric, err := e.numericPredicate(ctx, bp)
			if err != nil {
				return "", 0, err
			}
			if !numeric {
				continue
			}
			if score > bestScore || bpv > bestConf || (bpv == bestConf && bp < bestPath) {
				bestScore = score
				bestConf = bpv
				bestPath = bp
			}
		}
	}
	return bestPath, bestScore, nil
}

// numericPredicate reports whether the predicate's values parse as numbers
// for at least one subject (spot check). The verdict is a fact of (world,
// path) and the engine lives no longer than either, so it is worked out
// once per path key; a failed or cancelled scan decides nothing and is not
// kept.
func (e *Engine) numericPredicate(ctx context.Context, pathKey string) (bool, error) {
	if v, ok := e.numeric.Load(pathKey); ok {
		return v.(bool), nil
	}
	numeric, err := e.scanNumeric(ctx, pathKey)
	if err == nil {
		e.numeric.Store(pathKey, numeric)
	}
	return numeric, err
}

// numericScanBatch is how many entities one read of the spot check covers:
// wide enough that the cluster pays a frame per shard rather than per
// entity, narrow enough that the scan still stops near its first verdict
// instead of reading V(e, p) for the whole knowledge base.
const numericScanBatch = 64

// scanNumeric walks the entities in order until a value of the path parses
// as a number, or more than 50 values have not.
func (e *Engine) scanNumeric(ctx context.Context, pathKey string) (bool, error) {
	path, ok := rdf.ParsePath(e.KB, pathKey)
	if !ok {
		return false, nil
	}
	checked := 0
	ents := e.KB.Entities()
	for len(ents) > 0 {
		batch := ents[:min(len(ents), numericScanBatch)]
		ents = ents[len(batch):]
		values, err := e.valuesOf(ctx, batch, path)
		if err != nil {
			return false, err
		}
		for _, vals := range values {
			for _, v := range vals {
				if _, ok := parseNumber(e.KB.Label(v)); ok {
					return true, nil
				}
				checked++
				if checked > 50 {
					return false, nil
				}
			}
		}
	}
	return false, nil
}

// valuesOf reads V(ent, path) for every ent, in order, as one batch.
func (e *Engine) valuesOf(ctx context.Context, ents []rdf.ID, path rdf.Path) ([][]rdf.ID, error) {
	probes := make([]rdf.Probe, len(ents))
	for i, ent := range ents {
		probes[i] = rdf.Probe{Subj: ent, Path: path}
	}
	return e.Index.PathObjects(ctx, probes)
}

type rankedEntity struct {
	label string
	value float64
}

// rankCategory sorts the entities of a category by the numeric value of
// the predicate.
func (e *Engine) rankCategory(ctx context.Context, category, pathKey string, desc bool) ([]rankedEntity, error) {
	path, ok := rdf.ParsePath(e.KB, pathKey)
	if !ok {
		return nil, nil
	}
	catPred, ok := e.KB.PredID("category")
	if !ok {
		return nil, nil
	}
	var catLit rdf.ID = -1
	for _, n := range e.KB.NodesByLabel(category) {
		if e.KB.KindOf(n) == rdf.KindLiteral {
			catLit = n
			break
		}
	}
	if catLit < 0 {
		return nil, nil
	}
	members, err := e.Index.Subjects(ctx, catPred, catLit)
	if err != nil {
		return nil, err
	}
	values, err := e.valuesOf(ctx, members, path)
	if err != nil {
		return nil, err
	}
	var out []rankedEntity
	for i, ent := range members {
		if len(values[i]) == 0 {
			continue
		}
		if n, ok := parseNumber(e.KB.Label(values[i][0])); ok {
			out = append(out, rankedEntity{label: e.KB.normLabel(ent), value: n})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].value != out[j].value {
			if desc {
				return out[i].value > out[j].value
			}
			return out[i].value < out[j].value
		}
		return out[i].label < out[j].label
	})
	return out, nil
}

// numericValue resolves the numeric predicate value of the first candidate
// entity that has one.
func (e *Engine) numericValue(ctx context.Context, ents []rdf.ID, pathKey string) (float64, bool, error) {
	path, ok := rdf.ParsePath(e.KB, pathKey)
	if !ok {
		return 0, false, nil
	}
	values, err := e.valuesOf(ctx, ents, path)
	if err != nil {
		return 0, false, err
	}
	for _, vals := range values {
		for _, v := range vals {
			if n, ok := parseNumber(e.KB.Label(v)); ok {
				return n, true, nil
			}
		}
	}
	return 0, false, nil
}

// parseNumber parses the knowledge base's literal formats: "390k", "12m",
// "4300 sq km", "1.85 m", "42 billion", "1923", "250 kcal".
func parseNumber(label string) (float64, bool) {
	fields := strings.Fields(strings.ToLower(label))
	if len(fields) == 0 {
		return 0, false
	}
	head := fields[0]
	mult := 1.0
	if len(fields) > 1 {
		switch fields[1] {
		case "billion":
			mult = 1e9
		case "million":
			mult = 1e6
		case "thousand":
			mult = 1e3
		}
	}
	switch {
	case strings.HasSuffix(head, "k"):
		head, mult = head[:len(head)-1], 1e3
	case strings.HasSuffix(head, "m") && len(head) > 1 && head[len(head)-2] >= '0' && head[len(head)-2] <= '9':
		// "12m" (millions) — but "1.85 m" (meters) has the unit as its own
		// field and is handled by the plain parse below.
		head, mult = head[:len(head)-1], 1e6
	}
	n, err := strconv.ParseFloat(head, 64)
	if err != nil {
		return 0, false
	}
	return n * mult, true
}

// formatNumber renders a ranked value compactly.
func formatNumber(v float64) string {
	switch {
	case v >= 1e9 && v == float64(int64(v/1e9))*1e9:
		return fmt.Sprintf("%.0fb", v/1e9)
	case v >= 1e6 && v == float64(int64(v/1e6))*1e6:
		return fmt.Sprintf("%.0fm", v/1e6)
	case v >= 1e3 && v == float64(int64(v/1e3))*1e3:
		return fmt.Sprintf("%.0fk", v/1e3)
	default:
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
}
