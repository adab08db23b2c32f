// Package core implements KBQA's online procedure (Sec 3): probabilistic
// inference of the answer value for a question,
//
//	argmax_v Σ_{e,t,p} P(v|e,p) · P(p|t) · P(t|e,q) · P(e|q)   (Eq 7)
//
// and the divide-and-conquer pipeline for complex questions (Sec 5):
// decompose into a BFQ sequence, answer each BFQ, binding every answer into
// the next question's entity variable.
//
// The engine holds the locally loaded world for symbols (labels, predicate
// names, the gazetteer) and reads the triple indexes through Index alone —
// in process or across shard servers, under the caller's context either
// way. Cancellation is checked at every index read and between chain hops,
// so a deadline stops work mid-inference instead of letting an abandoned
// request run to completion; failures are the typed errors ErrNoEntity,
// ErrNoTemplate and ErrNoAnswer so callers can tell the failure stages
// apart, and an Index failure (every replica of a shard down) aborts the
// answer rather than shrinking it.
package core

import (
	"context"
	"errors"
	"sort"
	"time"

	"repro/internal/concept"
	"repro/internal/decompose"
	"repro/internal/extract"
	"repro/internal/learn"
	"repro/internal/obs"
	"repro/internal/rdf"
	"repro/internal/template"
	"repro/internal/text"
)

// Typed failures of the online procedure, ordered by how far the pipeline
// got before giving up. Context errors (context.Canceled,
// context.DeadlineExceeded) pass through unwrapped.
var (
	// ErrNoEntity: no token span of the question matched an entity label,
	// so Eq (7)'s summation support is empty before any inference runs.
	ErrNoEntity = errors.New("kbqa: no entity mention recognized in the question")
	// ErrNoTemplate: entity mentions were found but no derived template
	// carries learned P(p|t) mass — the question shape was never observed
	// in the training corpus.
	ErrNoTemplate = errors.New("kbqa: no learned template matches the question")
	// ErrNoAnswer: interpretations existed but knowledge-base probing (or
	// complex-question decomposition) produced no value — the "null" reply
	// counted by the paper's #pro metric.
	ErrNoAnswer = errors.New("kbqa: no answer")
)

// Unanswerable reports whether err is one of the engine's typed no-answer
// errors, as opposed to a context or infrastructure failure. Fallback
// chains retry the next system only on unanswerable errors.
func Unanswerable(err error) bool {
	return errors.Is(err, ErrNoEntity) || errors.Is(err, ErrNoTemplate) || errors.Is(err, ErrNoAnswer)
}

// Step records one executed hop of a complex question.
type Step struct {
	// Question is the concrete bound BFQ whose answer won this step.
	Question string
	// Questions lists every bound BFQ actually executed for this step:
	// execution fans out over all values of the previous step, so a step
	// may have probed several bindings before one answered best.
	Questions []string
	Template  string
	Path      string
	Value     string
}

// Answer is the engine's response to a question.
type Answer struct {
	// Value is the argmax answer value (normalized surface form).
	Value string
	// Values is the full value set of the winning (entity, predicate)
	// pair, for set-valued answers such as band members.
	Values []string
	// Score is the accumulated probability mass of Value (unnormalized).
	Score float64
	// Entity, Template, Path identify the winning interpretation.
	Entity   rdf.ID
	Template string
	Path     string
	// Steps is non-empty when the question was answered by decomposition.
	Steps []Step
}

// Complex reports whether the answer came from a decomposed question.
func (a Answer) Complex() bool { return len(a.Steps) > 1 }

// Ranked is one scored candidate interpretation of a question: an
// (entity, template, predicate) triple with its joint Eq (7) weight
// P(e|q)·P(t|e,q)·P(p|t) and the values it would answer with. Answer
// surfaces the strongest k instead of discarding all but the argmax.
type Ranked struct {
	Entity      rdf.ID
	EntityLabel string
	Template    string
	Path        string
	// Score is the interpretation's joint weight. The slice Answer returns
	// is sorted by descending Score with deterministic tie-breaks.
	Score float64
	// Values are the normalized labels of V(e, p), sorted.
	Values []string
}

// Index is the engine's whole view of the knowledge base's triple indexes:
// V(e, p+) and the reverse lookup of the ranking variants. Reads take the
// caller's context and return an error, so one code path serves the
// in-process world (LocalIndex) and the shard servers (shardrpc.KB).
type Index interface {
	// PathObjects returns V(subj, path), ascending and deduplicated.
	PathObjects(ctx context.Context, subj rdf.ID, path rdf.Path) ([]rdf.ID, error)
	// Subjects returns all subjects with (s, pred, obj) in K, ascending.
	Subjects(ctx context.Context, pred rdf.PID, obj rdf.ID) ([]rdf.ID, error)
}

// LocalIndex serves Index from an in-process graph. The reads themselves
// cannot fail or block; the context is honoured before each one, so a
// cancelled request stops probing.
func LocalIndex(g rdf.Graph) Index { return localIndex{g} }

type localIndex struct{ g rdf.Graph }

func (l localIndex) PathObjects(ctx context.Context, subj rdf.ID, path rdf.Path) ([]rdf.ID, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return rdf.PathObjects(l.g, subj, path), nil
}

func (l localIndex) Subjects(ctx context.Context, pred rdf.PID, obj rdf.ID) ([]rdf.ID, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return l.g.Subjects(pred, obj), nil
}

// Engine is the online QA engine. All fields except Stats are required.
type Engine struct {
	// KB is the locally loaded world, read for symbols only.
	KB rdf.Sharded
	// Index serves every triple-index read.
	Index    Index
	Taxonomy *concept.Taxonomy
	Model    *learn.Model
	// Stats, when set, enables complex-question answering.
	Stats *decompose.Stats
	// MaxChainValues caps how many values of an intermediate step are
	// expanded during complex-question execution (default 8).
	MaxChainValues int

	// sortedTemplates caches the model's template keys in sorted order;
	// computed once at construction (the model is immutable while
	// serving) so the variant path doesn't re-sort per question.
	sortedTemplates []string
}

// NewEngine builds an engine over the local world kb whose index reads go
// through idx — LocalIndex(kb) in process, a shardrpc.KB for a cluster. A
// non-nil stats enables complex-question decomposition.
func NewEngine(kb rdf.Sharded, idx Index, tax *concept.Taxonomy, model *learn.Model, stats *decompose.Stats) *Engine {
	return &Engine{KB: kb, Index: idx, Taxonomy: tax, Model: model, Stats: stats,
		sortedTemplates: sortedTemplateKeys(model)}
}

// decomposerFor builds a decomposer whose primitive oracle uses the
// precomputed mentions of the question about to be decomposed as a fast
// rejection filter: a span without a fully-contained entity mention is
// rejected before paying for full interpretation, which keeps the DP's δ
// evaluations cheap. Engines are safe for concurrent Answer calls because
// each call gets its own oracle closure. The oracle observes ctx so a
// deadline also aborts the decomposition DP, not just the probe loops; an
// Index failure inside it is kept in *failed for the caller to surface.
func (e *Engine) decomposerFor(ctx context.Context, mentions []extract.Mention, failed *error) *decompose.Decomposer {
	d := &decompose.Decomposer{MaxQuestionTokens: maxDecomposeTokens, Stats: e.Stats}
	d.Primitive = func(toks []string, sp text.Span) bool {
		if ctx.Err() != nil || *failed != nil {
			return false
		}
		for _, m := range mentions {
			if sp.Contains(m.Span) {
				// The δ oracle of Algorithm 2: a token span is a primitive
				// BFQ iff the engine can actually answer it.
				cands, err := e.interpretations(ctx, toks[sp.Start:sp.End])
				if err != nil {
					*failed = err
				}
				return len(cands) > 0
			}
		}
		return false
	}
	return d
}

// maxDecomposeTokens bounds the decomposition DP input; the paper notes
// over 99% of corpus questions have |q| < 23 (Sec 5.3).
const maxDecomposeTokens = 23

// sortedTemplateKeys returns the model's template keys in sorted order.
func sortedTemplateKeys(model *learn.Model) []string {
	if model == nil {
		return nil
	}
	out := make([]string, 0, len(model.Theta))
	for tpl := range model.Theta {
		out = append(out, tpl)
	}
	sort.Strings(out)
	return out
}

// Timings splits an answer call across the online pipeline's stages for the
// serving layer's latency histograms. Attribution is coarse by design so the
// hot path stays cheap: Parse covers tokenization and entity-mention lookup,
// Match covers template derivation and the decomposition DP, Probe covers
// the per-interpretation model lookups and knowledge-base V(e,p+) probing.
type Timings struct {
	Parse time.Duration
	Match time.Duration
	Probe time.Duration
	Total time.Duration
}

// stampIf returns a start time only when stage timing is requested; the
// untimed path pays no clock reads.
func stampIf(tm *Timings) time.Time {
	if tm == nil {
		return time.Time{}
	}
	return time.Now()
}

// lapParse, lapMatch and lapProbe accumulate elapsed time into their stage;
// all are no-ops on a nil receiver (the untimed path).
func (tm *Timings) lapParse(start time.Time) {
	if tm != nil {
		tm.Parse += time.Since(start)
	}
}

func (tm *Timings) lapMatch(start time.Time) {
	if tm != nil {
		tm.Match += time.Since(start)
	}
}

func (tm *Timings) lapProbe(start time.Time) {
	if tm != nil {
		tm.Probe += time.Since(start)
	}
}

// Answer answers a question. Primitive BFQs take the O(|P|) inference path
// directly; only questions the direct path cannot answer pay for the
// O(|q|^4) decomposition DP (Sec 5). Alongside the answer it returns the
// top-k ranked interpretations — the scored (entity, template, predicate)
// triples of Eq (7)'s summation that the argmax otherwise discards; for a
// complex question the ranking covers the final hop's winning BFQ, and
// k <= 0 asks for none — and the per-stage latency attribution.
//
// The error is ErrNoEntity, ErrNoTemplate or ErrNoAnswer for unanswerable
// questions (see Unanswerable), ctx.Err() when the context expires, or the
// Index's error when a read fails.
func (e *Engine) Answer(ctx context.Context, question string, k int) (Answer, []Ranked, Timings, error) {
	var tm Timings
	start := time.Now()
	ans, ranked, err := e.answer(ctx, question, &tm, k)
	tm.Total = time.Since(start)
	return ans, ranked, tm, err
}

// answer tokenizes and locates entity mentions exactly once (the direct BFQ
// attempt and the decomposition fallback share both), tries the direct
// Eq (7) path, then falls back to decomposition.
//
// When the context carries a trace, the call runs under an "engine.answer"
// span whose parse/match/probe stage children mirror the Timings laps
// exactly — a captured trace's stage durations equal the Result's reported
// Timings because both read the same accumulator.
func (e *Engine) answer(ctx context.Context, question string, tm *Timings, k int) (Answer, []Ranked, error) {
	if err := ctx.Err(); err != nil {
		return Answer{}, nil, err
	}
	ctx, sp := obs.StartSpan(ctx, "engine.answer")
	if sp != nil {
		sp.SetAttr("question", question)
		defer func() {
			sp.Stage("parse", tm.Parse)
			sp.Stage("match", tm.Match)
			sp.Stage("probe", tm.Probe)
			sp.End()
		}()
	}
	parseStart := stampIf(tm)
	qToks := text.Tokenize(question)
	mentions := extract.FindMentions(e.KB, qToks)
	tm.lapParse(parseStart)
	hadMention := len(mentions) > 0

	cands, sawMass, err := e.interpretationsFrom(ctx, qToks, mentions, tm)
	if err != nil {
		return Answer{}, nil, err
	}
	if ans, ok := e.aggregate(cands); ok {
		return ans, e.rankTopK(cands, k), nil
	}

	// The direct path failed; classify how far it got for the typed error
	// should decomposition not rescue the question.
	fail := func() error {
		if !hadMention {
			return ErrNoEntity
		}
		if !sawMass {
			return ErrNoTemplate
		}
		return ErrNoAnswer
	}

	if e.Stats == nil {
		return Answer{}, nil, fail()
	}
	dToks := qToks
	if len(dToks) > maxDecomposeTokens {
		// The DP is bounded to the truncated window, so the mention set
		// handed to its oracle must cover exactly the same tokens.
		dToks = dToks[:maxDecomposeTokens]
		parseStart = stampIf(tm)
		mentions = extract.FindMentions(e.KB, dToks)
		tm.lapParse(parseStart)
	}
	if len(mentions) == 0 {
		return Answer{}, nil, fail()
	}
	var oracleErr error
	d := e.decomposerFor(ctx, mentions, &oracleErr)
	matchStart := stampIf(tm)
	dec, ok := d.DecomposeTokens(dToks)
	tm.lapMatch(matchStart)
	if err := ctx.Err(); err != nil {
		return Answer{}, nil, err
	}
	if oracleErr != nil {
		return Answer{}, nil, oracleErr
	}
	if ok && dec.IsComplex() {
		ans, ranked, answered, err := e.executeChain(ctx, dec, tm, k)
		if err != nil {
			return Answer{}, nil, err
		}
		if answered {
			return ans, ranked, nil
		}
	}
	return Answer{}, nil, fail()
}

// answerBFQ runs the direct inference path, returning the candidate
// interpretations alongside the answer so chain execution can rank the
// winning hop without re-probing.
func (e *Engine) answerBFQ(ctx context.Context, question string, tm *Timings) (Answer, []interpretation, error) {
	ctx, sp := obs.StartSpan(ctx, "engine.bfq")
	if sp != nil {
		sp.SetAttr("question", question)
		defer sp.End()
	}
	parseStart := stampIf(tm)
	qToks := text.Tokenize(question)
	mentions := extract.FindMentions(e.KB, qToks)
	tm.lapParse(parseStart)
	cands, sawMass, err := e.interpretationsFrom(ctx, qToks, mentions, tm)
	if err != nil {
		return Answer{}, nil, err
	}
	ans, ok := e.aggregate(cands)
	if !ok {
		switch {
		case len(mentions) == 0:
			return Answer{}, nil, ErrNoEntity
		case !sawMass:
			return Answer{}, nil, ErrNoTemplate
		default:
			return Answer{}, nil, ErrNoAnswer
		}
	}
	return ans, cands, nil
}

// aggregate accumulates P(v|q) over interpretations and picks the argmax
// value, remembering the strongest interpretation per value for the trace.
func (e *Engine) aggregate(cands []interpretation) (Answer, bool) {
	if len(cands) == 0 {
		return Answer{}, false
	}

	type acc struct {
		score float64
		best  interpretation
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
			// Deterministic winner among equal-weight interpretations:
			// the model's P(p|t) map iterates in random order, so a plain
			// first-seen maximum would make the reported (template, path)
			// flap between runs and between store layouts.
			if perValue > a.bestW || (perValue == a.bestW && a.bestW > 0 &&
				(c.path < a.best.path || (c.path == a.best.path && c.template < a.best.template))) {
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

	return Answer{
		Value:    bestLabel,
		Values:   values,
		Score:    best.score,
		Entity:   best.best.entity,
		Template: best.best.template,
		Path:     best.best.path,
	}, true
}

// rankTopK merges the candidate interpretations by (entity, template,
// path) — summing the Eq (7) mass of duplicates surfaced through distinct
// mentions — and returns the strongest k, sorted by descending score with
// deterministic tie-breaks.
func (e *Engine) rankTopK(cands []interpretation, k int) []Ranked {
	if k <= 0 || len(cands) == 0 {
		return nil
	}
	type tkey struct {
		ent       rdf.ID
		tpl, path string
	}
	type merged struct {
		score float64
		cand  int // first candidate with this key; duplicates share V(e,p)
	}
	byKey := make(map[tkey]*merged, len(cands))
	order := make([]tkey, 0, len(cands))
	for i, c := range cands {
		kk := tkey{c.entity, c.template, c.path}
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
	// Label resolution and per-value normalization are deferred to the k
	// winners; losers cost only their score accumulation above.
	out := make([]Ranked, len(order))
	for i, kk := range order {
		m := byKey[kk]
		c := cands[m.cand]
		values := make([]string, 0, len(c.values))
		for _, v := range c.values {
			values = append(values, text.Normalize(e.KB.Label(v)))
		}
		sort.Strings(values)
		out[i] = Ranked{
			Entity:      kk.ent,
			EntityLabel: text.Normalize(e.KB.Label(kk.ent)),
			Template:    kk.tpl,
			Path:        kk.path,
			Score:       m.score,
			Values:      values,
		}
	}
	return out
}

// interpretation is one (e, t, p) triple with its joint weight
// P(e|q)·P(t|e,q)·P(p|t) and the value set V(e, p).
type interpretation struct {
	entity   rdf.ID
	template string
	path     string
	weight   float64
	values   []rdf.ID
}

// interpretations enumerates Eq (7)'s summation support: entities from the
// question's mentions, templates from conceptualization, predicates from
// the learned model.
func (e *Engine) interpretations(ctx context.Context, qToks []string) ([]interpretation, error) {
	cands, _, err := e.interpretationsFrom(ctx, qToks, extract.FindMentions(e.KB, qToks), nil)
	return cands, err
}

// interpretationsFrom is interpretations with the mention lookup hoisted
// out, for callers that already hold the mentions of qToks. tm, when
// non-nil, accumulates stage latencies. sawMass reports whether any derived
// template carried learned P(p|t) mass (the ErrNoTemplate / ErrNoAnswer
// discriminator); err is the Index's — ctx expiry, which every read checks,
// so cancellation aborts the scan mid-flight, or infrastructure failure
// (all replicas down), which aborts the answer rather than shrinking it.
func (e *Engine) interpretationsFrom(ctx context.Context, qToks []string, mentions []extract.Mention, tm *Timings) (out []interpretation, sawMass bool, err error) {
	if len(mentions) == 0 {
		return nil, false, nil
	}
	// P(e|q): uniform over all candidate entities across mentions.
	var totalEntities int
	for _, m := range mentions {
		totalEntities += len(m.Entities)
	}
	pe := 1.0 / float64(totalEntities)

	for _, m := range mentions {
		matchStart := stampIf(tm)
		tmpls := template.DeriveAll(e.Taxonomy, qToks, m.Span, m.Surface)
		tm.lapMatch(matchStart)
		_, psp := obs.StartSpan(ctx, "engine.probe")
		before := len(out)
		if psp != nil {
			psp.SetAttr("mention", m.Surface)
			psp.SetInt("entities", int64(len(m.Entities)))
			psp.SetInt("templates", int64(len(tmpls)))
			e.annotateShards(psp, m.Entities)
		}
		probeStart := stampIf(tm)
		for _, ent := range m.Entities {
			for _, tw := range tmpls {
				dist := e.Model.PredDist(tw.Text)
				if len(dist) == 0 {
					continue
				}
				sawMass = true
				// Iterate the distribution in sorted-key order: cands
				// order feeds float accumulation in aggregate, and map
				// order would make near-tied answers flap across runs.
				pathKeys := make([]string, 0, len(dist))
				for pathKey := range dist {
					pathKeys = append(pathKeys, pathKey)
				}
				sort.Strings(pathKeys)
				for _, pathKey := range pathKeys {
					ppt := dist[pathKey]
					if ppt <= 0 {
						continue
					}
					path, ok := rdf.ParsePath(e.KB, pathKey)
					if !ok {
						continue
					}
					values, err := e.Index.PathObjects(ctx, ent, path)
					if err != nil {
						tm.lapProbe(probeStart)
						psp.End()
						return nil, sawMass, err
					}
					if len(values) == 0 {
						continue
					}
					out = append(out, interpretation{
						entity:   ent,
						template: tw.Text,
						path:     pathKey,
						weight:   pe * tw.P * ppt,
						values:   values,
					})
				}
			}
		}
		tm.lapProbe(probeStart)
		if psp != nil {
			psp.SetInt("candidates", int64(len(out)-before))
			psp.End()
		}
	}
	return out, sawMass, nil
}

// annotateShards attributes a probe span to the knowledge-base shards that
// own the candidate entities. Each distinct shard becomes a "probe.shard"
// child span so a trace shows exactly which partitions one mention's probes
// touched.
func (e *Engine) annotateShards(psp *obs.Span, entities []rdf.ID) {
	n := e.KB.NumShards()
	perShard := map[int]int64{}
	order := make([]int, 0, 4)
	for _, ent := range entities {
		s := rdf.ShardIndex(ent, n)
		if _, seen := perShard[s]; !seen {
			order = append(order, s)
		}
		perShard[s]++
	}
	sort.Ints(order)
	for _, s := range order {
		c := psp.Child("probe.shard")
		c.SetInt("shard", int64(s))
		c.SetInt("entities", perShard[s])
		c.End()
	}
}

// executeChain runs a decomposition sequence: answer the innermost BFQ,
// then repeatedly bind the answer(s) into the next pattern (Sec 5.1).
// Cancellation is checked between hops and between bindings, so a deadline
// stops a multi-hop question instead of fanning out more work; answered is
// false when some hop has no answer (err stays nil), and err is non-nil
// only for context expiry or an Index failure.
func (e *Engine) executeChain(ctx context.Context, dec decompose.Decomposition, tm *Timings, k int) (_ Answer, _ []Ranked, answered bool, err error) {
	maxVals := e.MaxChainValues
	if maxVals <= 0 {
		maxVals = 8
	}
	hctx, hsp := obs.StartSpan(ctx, "engine.hop")
	if hsp != nil {
		hsp.SetInt("hop", 0)
		hsp.SetAttr("question", dec.Sequence[0])
	}
	first, firstCands, err := e.answerBFQ(hctx, dec.Sequence[0], tm)
	hsp.End()
	if err != nil {
		if Unanswerable(err) {
			return Answer{}, nil, false, nil
		}
		return Answer{}, nil, false, err
	}
	hsp.SetAttr("value", first.Value)
	steps := []Step{{
		Question:  dec.Sequence[0],
		Questions: []string{dec.Sequence[0]},
		Template:  first.Template,
		Path:      first.Path,
		Value:     first.Value,
	}}
	current := first.Values
	if len(current) > maxVals {
		current = current[:maxVals]
	}
	final := first
	finalCands := firstCands

	for hop, pat := range dec.Sequence[1:] {
		if err := ctx.Err(); err != nil {
			return Answer{}, nil, false, err
		}
		hctx, hsp := obs.StartSpan(ctx, "engine.hop")
		if hsp != nil {
			hsp.SetInt("hop", int64(hop+1))
			hsp.SetAttr("pattern", pat)
		}
		valueSet := make(map[string]bool)
		var stepAnswer Answer
		var stepCands []interpretation
		var stepQuestion string
		executed := make([]string, 0, len(current))
		hopAnswered := false
		for _, v := range current {
			if err := ctx.Err(); err != nil {
				hsp.End()
				return Answer{}, nil, false, err
			}
			q := decompose.Bind(pat, v)
			executed = append(executed, q)
			ans, cands, err := e.answerBFQ(hctx, q, tm)
			if err != nil {
				if Unanswerable(err) {
					continue
				}
				hsp.End()
				return Answer{}, nil, false, err
			}
			hopAnswered = true
			if !ans.less(stepAnswer) {
				stepAnswer = ans
				stepCands = cands
				stepQuestion = q
			}
			for _, nv := range ans.Values {
				valueSet[nv] = true
			}
		}
		hsp.SetInt("bindings", int64(len(executed)))
		hsp.End()
		if !hopAnswered {
			return Answer{}, nil, false, nil
		}
		hsp.SetAttr("value", stepAnswer.Value)
		next := make([]string, 0, len(valueSet))
		for v := range valueSet {
			next = append(next, v)
		}
		sort.Strings(next)
		if len(next) > maxVals {
			next = next[:maxVals]
		}
		steps = append(steps, Step{
			Question:  stepQuestion,
			Questions: executed,
			Template:  stepAnswer.Template,
			Path:      stepAnswer.Path,
			Value:     stepAnswer.Value,
		})
		current = next
		final = stepAnswer
		finalCands = stepCands
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
	return final, e.rankTopK(finalCands, k), true, nil
}

// less orders answers by score for picking the strongest step answer; the
// trailing tie-breaks keep chain execution deterministic when two bindings
// answer with exactly the same mass.
func (a Answer) less(b Answer) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	if a.Value != b.Value {
		return a.Value > b.Value
	}
	if a.Path != b.Path {
		return a.Path > b.Path
	}
	return a.Template > b.Template
}
