package core

import (
	"cmp"
	"context"
	"math"
	"slices"
	"strconv"
	"strings"
	"unicode"

	"repro/internal/concept"
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

// superlatives select the maximum (1) or the minimum (-1) of a numeric
// predicate.
var superlatives = map[string]int8{
	"largest": 1, "biggest": 1, "highest": 1, "longest": 1, "tallest": 1, "most": 1, "greatest": 1,
	"smallest": -1, "lowest": -1, "shortest": -1, "least": -1, "fewest": -1, "youngest": -1,
}

// canon maps a comparative to the canonical content word that appears in
// templates.
var canon = map[string]string{
	"more": "many", "taller": "tall", "larger": "large", "bigger": "big",
	"higher": "high", "longer": "long", "older": "old", "smaller": "large",
}

// wordRole is what variant routing reads of one token, by the token's ID.
type wordRole struct {
	rank  uint8 // an ordinal's rank, 0 for any other word
	super int8  // superlatives
	// category is 1 + the ID of the concept the word names, itself or as a
	// plural (singularForms), and canon the ID of a comparative's canonical
	// word; 0 for none.
	category, canon uint32
}

// compileWords gives every word variant routing looks for an ID in vocab —
// the ordinals, the superlatives, the comparatives and their canonical
// words, and every token singularForms takes to a concept: the name, the
// name + "s", a name in "y" as "ies" — and returns the roles of all of
// vocab's IDs. A token without an ID has no role.
func compileWords(vocab *text.Vocab, concepts *concept.Compiled) []wordRole {
	roles := make(map[uint32]*wordRole)
	role := func(w string) *wordRole {
		id := vocab.Add(w)
		if roles[id] == nil {
			roles[id] = &wordRole{}
		}
		return roles[id]
	}
	for w, r := range ordinals {
		role(w).rank = uint8(r)
	}
	for w, d := range superlatives {
		role(w).super = d
	}
	for w, c := range canon {
		role(w).canon = vocab.Add(c)
	}
	for c := range concepts.Len() {
		name := concepts.Name(uint32(c))
		for _, w := range []string{name, name + "s", strings.TrimSuffix(name, "y") + "ies"} {
			for _, cand := range singularForms(w) {
				if id, ok := concepts.ID(cand); ok {
					role(w).category = id + 1
					break
				}
			}
		}
	}
	words := make([]wordRole, vocab.Len())
	for id, r := range roles {
		words[id] = *r
	}
	return words
}

// answerVariant recognizes and answers ranking, comparison and listing
// questions over the question's shared parse (a comparison needs the
// mentions; whatever it finds the direct path reuses). ok is false when the
// question is not a recognizable variant or the aggregation cannot be
// grounded. err is ctx's or the Index's: a ranking over a category whose
// index is unreachable is an error, never a shorter ranking.
func (e *Engine) answerVariant(ctx context.Context, q *parsed) (VariantAnswer, bool, error) {
	if len(q.toks) == 0 {
		return VariantAnswer{}, false, nil
	}
	if ans, ok, err := e.tryComparison(ctx, q); ok || err != nil {
		return ans, ok, err
	}
	if ans, ok, err := e.tryRanking(ctx, q); ok || err != nil {
		return ans, ok, err
	}
	return e.tryListing(ctx, q)
}

// tryComparison handles "which city has more people , Honolulu or New
// Jersey" and "who is taller , A or B": two entity mentions joined by
// "or", with the comparative phrase resolving to a numeric predicate
// through the learned templates.
func (e *Engine) tryComparison(ctx context.Context, q *parsed) (VariantAnswer, bool, error) {
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
	q.s.clock.start()
	mentions := e.mentionsOf(q)
	q.s.clock.lap(parseStage)
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
	path, err := e.resolveComparativePredicate(ctx, q.s, q.ids[:left.Span.Start])
	if path == "" || err != nil {
		return VariantAnswer{}, false, err
	}
	lv, lok, err := e.numericValue(ctx, q.s, left.Entities, path)
	if !lok || err != nil {
		return VariantAnswer{}, false, err
	}
	rv, rok, err := e.numericValue(ctx, q.s, right.Entities, path)
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
func (e *Engine) tryRanking(ctx context.Context, q *parsed) (VariantAnswer, bool, error) {
	rank := 1
	dirMax := true
	hasSuper := false
	for _, id := range q.ids {
		w := e.words[id]
		if w.rank > 0 {
			rank = int(w.rank)
		}
		if w.super != 0 {
			hasSuper = true
		}
		if w.super < 0 {
			dirMax = false
		}
	}
	if !hasSuper {
		return VariantAnswer{}, false, nil
	}
	category, path, err := e.resolveCategoryPredicate(ctx, q.s, q.ids)
	if category == "" || path == "" || err != nil {
		return VariantAnswer{}, false, err
	}
	ranked, err := e.rankCategory(ctx, q.s, category, path, dirMax)
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
func (e *Engine) tryListing(ctx context.Context, q *parsed) (VariantAnswer, bool, error) {
	toks := q.toks
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
	category, path, err := e.resolveCategoryPredicate(ctx, q.s, q.ids)
	if category == "" || path == "" || err != nil {
		return VariantAnswer{}, false, err
	}
	ranked, err := e.rankCategory(ctx, q.s, category, path, true)
	if len(ranked) == 0 || err != nil {
		return VariantAnswer{}, false, err
	}
	const listCap = 10
	ranked = ranked[:min(len(ranked), listCap)]
	ans := VariantAnswer{Kind: VariantListing, Path: path, Category: category,
		Entities: make([]string, len(ranked)), Values: make([]string, len(ranked))}
	for i, row := range ranked {
		ans.Entities[i], ans.Values[i] = row.label, formatNumber(row.value)
	}
	return ans, true, nil
}

// resolveComparativePredicate grounds a comparative phrase ("has more
// people", "is taller") in a predicate by scoring the phrase's content
// words, each comparative read as its canonical word, against the learned
// templates and taking the best template's argmax predicate.
func (e *Engine) resolveComparativePredicate(ctx context.Context, s *scratch, head []uint32) (string, error) {
	var buf [24]uint32
	words := buf[:0]
	for _, id := range head {
		if c := e.words[id].canon; c != 0 {
			id = c
		}
		words = append(words, id)
	}
	path, _, err := e.bestTemplateFor(ctx, s, words)
	return path, err
}

// resolveCategoryPredicate finds the subject category word and the
// predicate of a ranking/listing question.
func (e *Engine) resolveCategoryPredicate(ctx context.Context, s *scratch, ids []uint32) (category, path string, err error) {
	for _, id := range ids {
		if c := e.words[id].category; c != 0 {
			category = e.concepts.Name(c - 1)
			break
		}
	}
	if category == "" {
		return "", "", nil
	}
	path, _, err = e.bestTemplateFor(ctx, s, ids)
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
// phase learned instead of a hand-written keyword table. Every template's
// content IDs are looked up among the question's content IDs, a few words.
func (e *Engine) bestTemplateFor(ctx context.Context, s *scratch, words []uint32) (string, float64, error) {
	var buf [24]uint32
	content := buf[:0]
	for _, id := range words {
		// A placeholder-like word ("$x") is no template's content word, so
		// it needs no test here.
		if !text.IsStopID(id) {
			content = append(content, id)
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
		for _, id := range tpl.content {
			if slices.Contains(content, id) {
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
			numeric, err := e.numericPredicate(ctx, s, bp)
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
func (e *Engine) numericPredicate(ctx context.Context, s *scratch, pathKey string) (bool, error) {
	if v, ok := e.numeric.Load(pathKey); ok {
		return v.(bool), nil
	}
	numeric, err := e.scanNumeric(ctx, s, pathKey)
	if err == nil {
		e.numeric.Store(pathKey, numeric)
	}
	return numeric, err
}

// numericScanBatch is how many entities one read of the spot check covers:
// wide enough that the cluster pays a frame per batch rather than per
// entity, narrow enough that the scan still stops near its first verdict
// instead of reading V(e, p) for the whole knowledge base.
const numericScanBatch = 64

// scanNumeric walks the entities in order until a value of the path parses
// as a number, or more than 50 values have not.
func (e *Engine) scanNumeric(ctx context.Context, s *scratch, pathKey string) (bool, error) {
	path, ok := rdf.ParsePath(e.KB, pathKey)
	if !ok {
		return false, nil
	}
	checked := 0
	ents := e.KB.Entities()
	for len(ents) > 0 {
		batch := ents[:min(len(ents), numericScanBatch)]
		ents = ents[len(batch):]
		values, err := e.valuesOf(ctx, s, batch, path)
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

// valuesOf reads V(ent, path) for every ent, in order, as one batch, into
// the scratch.
func (e *Engine) valuesOf(ctx context.Context, s *scratch, ents []rdf.ID, path rdf.Path) ([][]rdf.ID, error) {
	probes := s.probes[:0]
	for _, ent := range ents {
		probes = append(probes, rdf.Probe{Subj: ent, Path: path})
	}
	s.probes = probes
	return s.read(ctx, e.Index, probes)
}

type rankedEntity struct {
	label string
	value float64
}

// rankCategory sorts the entities of a category by the numeric value of
// the predicate, into the scratch.
func (e *Engine) rankCategory(ctx context.Context, s *scratch, category, pathKey string, desc bool) ([]rankedEntity, error) {
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
	values, err := e.valuesOf(ctx, s, members, path)
	if err != nil {
		return nil, err
	}
	out := s.ranked[:0]
	for i, ent := range members {
		if len(values[i]) == 0 {
			continue
		}
		if n, ok := parseNumber(e.KB.Label(values[i][0])); ok {
			out = append(out, rankedEntity{label: e.KB.normLabel(ent), value: n})
		}
	}
	s.ranked = out
	slices.SortFunc(out, func(a, b rankedEntity) int {
		if a.value != b.value {
			if desc {
				return cmp.Compare(b.value, a.value)
			}
			return cmp.Compare(a.value, b.value)
		}
		return strings.Compare(a.label, b.label)
	})
	return out, nil
}

// numericValue resolves the numeric predicate value of the first candidate
// entity that has one.
func (e *Engine) numericValue(ctx context.Context, s *scratch, ents []rdf.ID, pathKey string) (float64, bool, error) {
	path, ok := rdf.ParsePath(e.KB, pathKey)
	if !ok {
		return 0, false, nil
	}
	values, err := e.valuesOf(ctx, s, ents, path)
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
// "4300 sq km", "1.85 m", "42 billion", "1923", "250 kcal". The number is
// an optional sign and decimal digits with at most one '.': what
// strconv.ParseFloat takes beyond that ("nan", "inf", "1_000", "0x1p4",
// "1e3") is a word, not a number.
func parseNumber(label string) (float64, bool) {
	head, rest := firstField(strings.ToLower(label))
	if head == "" {
		return 0, false
	}
	mult := 1.0
	if unit, _ := firstField(rest); unit != "" {
		switch unit {
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
	body := strings.TrimLeft(head, "+-")
	if len(head)-len(body) > 1 || strings.Trim(body, "0123456789.") != "" || strings.Count(body, ".") > 1 || strings.Trim(body, ".") == "" {
		return 0, false
	}
	// Too many digits overflow to ±Inf, which ParseFloat reports as an
	// error; a suffix can still multiply a finite head past the largest
	// float64.
	n, err := strconv.ParseFloat(head, 64)
	if err != nil || math.IsInf(n*mult, 0) {
		return 0, false
	}
	return n * mult, true
}

// firstField splits s as strings.Fields does, without allocating: its first
// field, "" when it has none, and what follows the field.
func firstField(s string) (field, rest string) {
	s = strings.TrimLeftFunc(s, unicode.IsSpace)
	if i := strings.IndexFunc(s, unicode.IsSpace); i >= 0 {
		return s[:i], s[i:]
	}
	return s, ""
}

// formatNumber renders a ranked value compactly.
func formatNumber(v float64) string {
	var buf [32]byte
	for _, u := range []struct {
		scale  float64
		suffix byte
	}{{1e9, 'b'}, {1e6, 'm'}, {1e3, 'k'}} {
		if v >= u.scale && v == float64(int64(v/u.scale))*u.scale {
			return string(append(strconv.AppendFloat(buf[:0], v/u.scale, 'f', 0, 64), u.suffix))
		}
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
