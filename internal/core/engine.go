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
// names, the mention lexicon) and reads the triple indexes through Index
// alone — in process or across shard servers, under the caller's context
// either way. What a question needs of the world and the model is compiled
// before the first one arrives (compile.go): a token trie finds mentions,
// θ = P(p|t) is a sorted slice of parsed paths per template. A BFQ
// enumerates Eq (7)'s support into a probe plan — every (e, p) the model
// gives mass to, each once — and reads it in one Index call, so the cost of
// the summation on a cluster is a frame per shard per path depth, not a
// round trip per term. Cancellation is checked at every probe of a local
// read, every frame of a remote one and between chain hops, so a deadline
// stops work mid-inference instead of letting an abandoned request run to
// completion; failures are the typed errors ErrNoEntity, ErrNoTemplate and
// ErrNoAnswer so callers can tell the failure stages apart, and an Index
// failure (every replica of a shard down) aborts the answer rather than
// shrinking it.
package core

import (
	"context"
	"errors"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/concept"
	"repro/internal/decompose"
	"repro/internal/extract"
	"repro/internal/learn"
	"repro/internal/obs"
	"repro/internal/rdf"
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
	// Variant, when non-nil, is the whole reply: the question was routed to
	// the ranking / comparison / listing aggregation and every other field
	// is zero.
	Variant *VariantAnswer
}

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
// in-process world (LocalIndex) and the shard servers (shardrpc.KB). V(e, p+)
// is read a question's whole probe set at a time, which is what lets the
// cluster send one frame per shard per path depth instead of one RPC per
// term of Eq (7).
type Index interface {
	// PathObjects returns V(p.Subj, p.Path) for every probe, in probe order,
	// each ascending and deduplicated. It is all or nothing: an error means
	// no result is usable, never that some came back shorter.
	PathObjects(ctx context.Context, probes []rdf.Probe) ([][]rdf.ID, error)
	// Subjects returns all subjects with (s, pred, obj) in K, ascending.
	Subjects(ctx context.Context, pred rdf.PID, obj rdf.ID) ([]rdf.ID, error)
}

// LocalIndex serves Index from an in-process graph. The reads themselves
// cannot fail or block; the context is honoured before each one, so a
// cancelled request stops probing mid-batch.
func LocalIndex(g rdf.Graph) Index { return localIndex{g} }

type localIndex struct{ g rdf.Graph }

func (l localIndex) PathObjects(ctx context.Context, probes []rdf.Probe) ([][]rdf.ID, error) {
	out := make([][]rdf.ID, len(probes))
	for i, p := range probes {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		out[i] = rdf.PathObjects(l.g, p.Subj, p.Path)
	}
	return out, nil
}

func (l localIndex) Subjects(ctx context.Context, pred rdf.PID, obj rdf.ID) ([]rdf.ID, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return l.g.Subjects(pred, obj), nil
}

// Engine is the online QA engine; NewEngine builds one.
type Engine struct {
	// KB is the locally loaded world, read for symbols only.
	KB *Symbols
	// Index serves every triple-index read.
	Index    Index
	Taxonomy *concept.Taxonomy
	// Stats, when set, enables complex-question answering.
	Stats *decompose.Stats

	// find is KB.Lexicon.Find, a field so that a test can count the calls.
	find func(toks []string) []extract.Mention
	// theta is the model compiled (compileModel), by template text, and
	// templates the same in ascending text order; a retrain builds a new engine.
	theta     map[string]*compiledTemplate
	templates []*compiledTemplate
	// numeric memoises numericPredicate: path key → bool.
	numeric sync.Map
}

// NewEngine builds an engine over the local world kb whose index reads go
// through idx — LocalIndex(kb) in process, a shardrpc.KB for a cluster —
// and compiles model for it. kb is compiled too unless it is a *Symbols
// already, which is how the engines of successive retrains share one. A
// non-nil stats enables complex-question decomposition.
func NewEngine(kb rdf.Sharded, idx Index, tax *concept.Taxonomy, model *learn.Model, stats *decompose.Stats) *Engine {
	e := &Engine{KB: CompileSymbols(kb), Index: idx, Taxonomy: tax, Stats: stats}
	e.find = e.KB.Lexicon.Find
	e.theta, e.templates = compileModel(kb, model)
	return e
}

// maxDecomposeTokens bounds the decomposition DP input; the paper notes
// over 99% of corpus questions have |q| < 23 (Sec 5.3).
const maxDecomposeTokens = 23

// maxChainValues caps how many values of an intermediate step are expanded
// during complex-question execution.
const maxChainValues = 8

// Timings splits an answer call across the online pipeline's stages for the
// serving layer's latency histograms. Attribution is coarse by design so the
// hot path stays cheap: Parse covers the question's one tokenization and
// every entity-mention lookup outside the decomposition DP (the question's
// own — shared by variant routing and the direct path — and each bound
// hop's), Match covers template derivation and the decomposition DP, Probe
// covers the per-interpretation model lookups and knowledge-base V(e,p+)
// probing. The aggregation scans of an answered variant are in Total only.
type Timings struct {
	Parse time.Duration
	Match time.Duration
	Probe time.Duration
	Total time.Duration
}

// stampIf returns a start time only when stage timing is requested; the
// untimed path (the δ oracle, whose whole DP is one Match lap) pays no
// clock reads.
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

// parsed is a question after its one parse: the token sequence and, looked
// up on first use and kept, the entity mentions in it. Every stage of an
// Answer call — variant routing, the direct path, the δ oracle, each chain
// hop — works on a parsed value, so no stage tokenizes or finds mentions
// for a token sequence an earlier stage already handled.
type parsed struct {
	toks     []string
	mentions []extract.Mention
	found    bool // mentions holds the lexicon's Find(toks)
}

// mentionsOf returns q's entity mentions, finding them on the first call.
func (e *Engine) mentionsOf(q *parsed, tm *Timings) []extract.Mention {
	if !q.found {
		start := stampIf(tm)
		q.mentions, q.found = e.find(q.toks), true
		tm.lapParse(start)
	}
	return q.mentions
}

// Answer is the engine's one entry point: it answers a question of any
// supported shape. The question is parsed once; with variants set, the
// ranking / comparison / listing route is tried first over that parse (the
// reply is then Answer.Variant alone). Otherwise primitive BFQs take the
// O(|P|) inference path directly, and only questions the direct path cannot
// answer pay for the O(|q|^4) decomposition DP (Sec 5). Alongside the
// answer it returns the top-k ranked interpretations — the scored (entity,
// template, predicate) triples of Eq (7)'s summation that the argmax
// otherwise discards; for a complex question the ranking covers the final
// hop's winning BFQ, and k <= 0 asks for none — and the per-stage latency
// attribution, which is filled in for failed calls too.
//
// The error is ErrNoEntity, ErrNoTemplate or ErrNoAnswer for unanswerable
// questions (see Unanswerable), ctx.Err() when the context expires, or the
// Index's error when a read fails.
func (e *Engine) Answer(ctx context.Context, question string, k int, variants bool) (Answer, []Ranked, Timings, error) {
	var tm Timings
	start := time.Now()
	ans, ranked, err := e.answer(ctx, question, k, variants, &tm)
	tm.Total = time.Since(start)
	return ans, ranked, tm, err
}

// answer routes one question: variant → direct Eq (7) → decomposition →
// chain, all over the same parse.
//
// When the context carries a trace, the BFQ / complex pipeline runs under an
// "engine.answer" span whose parse/match/probe stage children mirror the
// Timings laps exactly — a captured trace's stage durations equal the
// Result's reported Timings because both read the same accumulator.
func (e *Engine) answer(ctx context.Context, question string, k int, variants bool, tm *Timings) (Answer, []Ranked, error) {
	if err := ctx.Err(); err != nil {
		return Answer{}, nil, err
	}
	parseStart := stampIf(tm)
	q := &parsed{toks: text.Tokenize(question)}
	tm.lapParse(parseStart)
	if variants {
		va, ok, err := e.answerVariant(ctx, q, tm)
		if err != nil {
			return Answer{}, nil, err
		}
		if ok {
			return Answer{Variant: &va}, nil, nil
		}
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

	ans, cands, direct := e.bfq(ctx, q, tm, nil)
	if direct == nil {
		return ans, e.rankTopK(cands, k), nil
	}
	// The direct path's typed failure says how far the pipeline got; it is
	// the reply unless decomposition rescues the question.
	if !Unanswerable(direct) || e.Stats == nil {
		return Answer{}, nil, direct
	}
	whole := len(q.toks)
	if whole > maxDecomposeTokens {
		// The DP is bounded to the truncated window, so the mention set
		// handed to its oracle must cover exactly the same tokens.
		q = &parsed{toks: q.toks[:maxDecomposeTokens]}
	}
	mentions := e.mentionsOf(q, tm)
	if len(mentions) == 0 {
		return Answer{}, nil, direct
	}

	// The δ oracle of Algorithm 2: a token span is a primitive BFQ iff the
	// engine can actually answer it. The question's mentions are a fast
	// rejection filter — a span without a fully-contained mention is
	// rejected before paying for a BFQ — which keeps the DP's δ evaluations
	// cheap. The oracle observes ctx, so a deadline also aborts the DP, not
	// just the probe loops, and keeps an Index failure for this call to
	// surface. The span that is the whole question needs no second look —
	// the direct path just failed on exactly those tokens — and accepted
	// spans keep their parse: one of them is the chain's first hop. The DP
	// and its oracle run under one "engine.oracle" span, so the oracle's
	// BFQs trace no span of their own and, on a cluster, their rpc.call
	// frames nest under it.
	var oracleErr error
	var tally oracleTally
	prims := make(map[text.Span]*parsed)
	octx, osp := obs.StartSpan(ctx, "engine.oracle")
	d := &decompose.Decomposer{MaxQuestionTokens: maxDecomposeTokens, Stats: e.Stats}
	d.Primitive = func(toks []string, sp text.Span) bool {
		if octx.Err() != nil || oracleErr != nil || sp.Len() == whole {
			return false
		}
		for _, m := range mentions {
			if sp.Contains(m.Span) {
				sub := &parsed{toks: toks[sp.Start:sp.End]}
				tally.tried++
				_, _, err := e.bfq(octx, sub, nil, &tally)
				if err == nil {
					prims[sp] = sub
					tally.accepted++
				} else if !Unanswerable(err) {
					oracleErr = err
				}
				return err == nil
			}
		}
		return false
	}
	matchStart := stampIf(tm)
	dec, ok := d.Decompose(q.toks)
	tm.lapMatch(matchStart)
	if osp != nil {
		osp.SetInt("spans_tried", int64(tally.tried))
		osp.SetInt("spans_accepted", int64(tally.accepted))
		osp.SetInt("probes", int64(tally.probes))
		osp.End()
	}
	if err := ctx.Err(); err != nil {
		return Answer{}, nil, err
	}
	if oracleErr != nil {
		return Answer{}, nil, oracleErr
	}
	if ok && dec.IsComplex() {
		ans, ranked, err := e.executeChain(ctx, prims[dec.First], dec.Sequence[1:], tm, k)
		if err == nil || !Unanswerable(err) {
			return ans, ranked, err
		}
	}
	return Answer{}, nil, direct
}

// bfq is Eq (7) over one parsed question, the routine behind the direct
// path, the δ oracle and every chain hop, in three steps. Enumerate the
// summation's support — entities from the question's mentions, templates
// from conceptualization, predicates from the learned model — into a probe
// plan; read the plan's V(e, p) sets in one Index call; assemble the
// candidates and aggregate the argmax value. No template is built as a
// string: each is written into a reused key buffer to look θ up. The
// candidates come back with the answer so callers can rank the winner
// without re-probing. tm, when non-nil, accumulates stage latencies. tally
// is nil except for the δ oracle's calls: without one the read is traced as
// an "engine.probe" span, with one it is counted there instead.
//
// The error says how far the pipeline got: ErrNoEntity without a mention,
// ErrNoTemplate when no derived template carried learned P(p|t) mass,
// ErrNoAnswer when probing produced no value — or it is the Index's: ctx
// expiry, which the read checks, so cancellation aborts the scan
// mid-flight, or infrastructure failure (all replicas down), which aborts
// the answer rather than shrinking it.
func (e *Engine) bfq(ctx context.Context, q *parsed, tm *Timings, tally *oracleTally) (Answer, []interpretation, error) {
	mentions := e.mentionsOf(q, tm)
	if len(mentions) == 0 {
		return Answer{}, nil, ErrNoEntity
	}
	// P(e|q): uniform over all candidate entities across mentions.
	var totalEntities int
	for _, m := range mentions {
		totalEntities += len(m.Entities)
	}
	pe := 1.0 / float64(totalEntities)

	// Enumerate. cands is filled in the order aggregate needs — mention,
	// entity, template, ascending path key (the compiled order): it feeds
	// float accumulation, and map order would make near-tied answers flap
	// across runs — each naming the probe whose values it is waiting for.
	var plan probePlan
	var cands []interpretation
	// Scratch for one mention's model lookups — its interpretations but for
	// the entity — its concepts and its template keys, on the stack at the
	// usual handful of templates, paths and bytes.
	var learnedBuf [8]interpretation
	var conceptBuf [8]concept.Scored
	var keyBuf [128]byte
	learned := learnedBuf[:0]
	templates := 0
	sawMass := false
	for _, m := range mentions {
		matchStart := stampIf(tm)
		prefix, concepts := e.mentionTemplates(keyBuf[:0], conceptBuf[:0], q.toks, m)
		tm.lapMatch(matchStart)
		probeStart := stampIf(tm)
		// What the model knows of the mention's templates is the same for
		// each of its entities: look it up once.
		learned = learned[:0]
		for _, c := range concepts {
			if c.P <= 0 {
				continue
			}
			templates++
			ct := e.theta[string(text.AppendPlaceholder(prefix, c.Concept, q.toks[m.Span.End:]))]
			if ct == nil {
				continue
			}
			sawMass = true
			for _, p := range ct.paths {
				learned = append(learned, interpretation{template: ct.text, path: p.groundedPath, weight: pe * c.P * p.p})
			}
		}
		cands = slices.Grow(cands, len(m.Entities)*len(learned))
		for _, ent := range m.Entities {
			for _, c := range learned {
				c.entity, c.probe = ent, plan.add(ent, c.path)
				cands = append(cands, c)
			}
		}
		tm.lapProbe(probeStart)
	}

	// Probe: the whole set in one read, traced on its own unless the caller
	// is the δ oracle, whose span covers all its reads.
	var psp *obs.Span
	if tally == nil {
		ctx, psp = obs.StartSpan(ctx, "engine.probe")
	} else {
		tally.probes += len(plan.probes)
	}
	if psp != nil {
		psp.SetInt("mentions", int64(len(mentions)))
		psp.SetInt("entities", int64(totalEntities))
		psp.SetInt("templates", int64(templates))
		psp.SetInt("probes", int64(len(plan.probes)))
		e.annotateShards(psp, mentions)
		defer psp.End()
	}
	probeStart := stampIf(tm)
	var values [][]rdf.ID
	if len(plan.probes) > 0 {
		var err error
		if values, err = e.Index.PathObjects(ctx, plan.probes); err != nil {
			tm.lapProbe(probeStart)
			return Answer{}, nil, err
		}
	}
	// Assemble: interpretations whose probe found values, order kept;
	// duplicates across templates share one read-only value slice.
	kept := cands[:0]
	for _, c := range cands {
		if c.values = values[c.probe]; len(c.values) > 0 {
			kept = append(kept, c)
		}
	}
	cands = kept
	tm.lapProbe(probeStart)
	psp.SetInt("candidates", int64(len(cands)))

	if ans, ok := e.aggregate(cands); ok {
		return ans, cands, nil
	}
	if !sawMass {
		return Answer{}, nil, ErrNoTemplate
	}
	return Answer{}, nil, ErrNoAnswer
}

// oracleTally counts the δ oracle's work for its span: the spans it ran a
// BFQ on, those it accepted, and the probes their reads held.
type oracleTally struct{ tried, accepted, probes int }

// mentionTemplates prepares the templates t(q, e, c) of mention m of toks
// (Sec 2, "Templates"): it appends the text before the mention to key, and
// P(c|q,e) — a template's weight P(t|q,e) (Eq 5) — to concepts. Concept c's
// template text is then text.AppendPlaceholder(prefix, c.Concept,
// toks[m.Span.End:]).
func (e *Engine) mentionTemplates(key []byte, concepts []concept.Scored, toks []string, m extract.Mention) (prefix []byte, _ []concept.Scored) {
	var buf [24]string // the mention's context: the question without it
	ctx := append(append(buf[:0], toks[:m.Span.Start]...), toks[m.Span.End:]...)
	return text.AppendHead(key, toks[:m.Span.Start]), e.Taxonomy.ConceptualizeInto(concepts, m.Surface, ctx)
}

// probePlan is one question's probe set: every (entity, path) Eq (7) gives
// mass to, each pair once however many templates and mentions lead to it.
type probePlan struct {
	slot   map[probeKey]int // index into probes
	probes []rdf.Probe
}

type probeKey struct {
	ent  rdf.ID
	path *groundedPath
}

// add returns the plan's index for V(ent, path), adding the probe if it is
// new.
func (pl *probePlan) add(ent rdf.ID, path *groundedPath) int {
	i, ok := pl.slot[probeKey{ent, path}]
	if !ok {
		if pl.slot == nil {
			pl.slot = make(map[probeKey]int)
		}
		i = len(pl.probes)
		pl.slot[probeKey{ent, path}] = i
		pl.probes = append(pl.probes, rdf.Probe{Subj: ent, Path: path.path})
	}
	return i
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
			label := e.KB.normLabel(v)
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
		values = append(values, e.KB.normLabel(v))
	}
	sort.Strings(values)

	return Answer{
		Value:    bestLabel,
		Values:   values,
		Score:    best.score,
		Entity:   best.best.entity,
		Template: best.best.template,
		Path:     best.best.path.key,
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
	// Label resolution and per-value normalization are deferred to the k
	// winners; losers cost only their score accumulation above.
	out := make([]Ranked, len(order))
	for i, kk := range order {
		m := byKey[kk]
		c := cands[m.cand]
		values := make([]string, 0, len(c.values))
		for _, v := range c.values {
			values = append(values, e.KB.normLabel(v))
		}
		sort.Strings(values)
		out[i] = Ranked{
			Entity:      kk.ent,
			EntityLabel: e.KB.normLabel(kk.ent),
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
	path     *groundedPath
	weight   float64
	probe    int // the read of the question's probe plan that values came from
	values   []rdf.ID
}

// annotateShards attributes a probe span to the knowledge-base shards that
// own the candidate entities. Each distinct shard becomes a "probe.shard"
// child span so a trace shows exactly which partitions the question's
// probes start from.
func (e *Engine) annotateShards(psp *obs.Span, mentions []extract.Mention) {
	n := e.KB.NumShards()
	perShard := make([]int64, n)
	for _, m := range mentions {
		for _, ent := range m.Entities {
			perShard[rdf.ShardIndex(ent, n)]++
		}
	}
	for s, ents := range perShard {
		if ents == 0 {
			continue
		}
		c := psp.Child("probe.shard")
		c.SetInt("shard", int64(s))
		c.SetInt("entities", ents)
		c.End()
	}
}

// executeChain runs a decomposition sequence: answer the innermost BFQ
// (first, already parsed by the δ oracle), then repeatedly bind the
// answer(s) into the next pattern's $e token (Sec 5.1) — tokens in, tokens
// out; questions are rendered to text for Steps and span attributes only.
// Cancellation is checked between hops and between bindings, so a deadline
// stops a multi-hop question instead of fanning out more work. The error is
// a typed unanswerable one when some hop has no answer (the caller then
// keeps the direct path's classification), else ctx's or the Index's.
func (e *Engine) executeChain(ctx context.Context, first *parsed, patterns [][]string, tm *Timings, k int) (Answer, []Ranked, error) {
	firstQ := text.Join(first.toks)
	hctx, hsp := obs.StartSpan(ctx, "engine.hop")
	if hsp != nil {
		hsp.SetInt("hop", 0)
		hsp.SetAttr("question", firstQ)
	}
	final, finalCands, err := e.hopBFQ(hctx, first, firstQ, tm)
	hsp.End()
	if err != nil {
		return Answer{}, nil, err
	}
	hsp.SetAttr("value", final.Value)
	steps := []Step{{
		Question:  firstQ,
		Questions: []string{firstQ},
		Template:  final.Template,
		Path:      final.Path,
		Value:     final.Value,
	}}
	current := final.Values
	if len(current) > maxChainValues {
		current = current[:maxChainValues]
	}

	for hop, pat := range patterns {
		if err := ctx.Err(); err != nil {
			return Answer{}, nil, err
		}
		hctx, hsp := obs.StartSpan(ctx, "engine.hop")
		if hsp != nil {
			hsp.SetInt("hop", int64(hop+1))
			hsp.SetAttr("pattern", text.Join(pat))
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
				return Answer{}, nil, err
			}
			// v is a normalized label — its tokens joined by single spaces
			// — so splitting on them is Join's exact inverse.
			q := &parsed{toks: decompose.Bind(pat, strings.Fields(v))}
			qs := text.Join(q.toks)
			executed = append(executed, qs)
			ans, cands, err := e.hopBFQ(hctx, q, qs, tm)
			if err != nil {
				if Unanswerable(err) {
					continue
				}
				hsp.End()
				return Answer{}, nil, err
			}
			hopAnswered = true
			if !ans.less(stepAnswer) {
				stepAnswer = ans
				stepCands = cands
				stepQuestion = qs
			}
			for _, nv := range ans.Values {
				valueSet[nv] = true
			}
		}
		hsp.SetInt("bindings", int64(len(executed)))
		hsp.End()
		if !hopAnswered {
			return Answer{}, nil, ErrNoAnswer
		}
		hsp.SetAttr("value", stepAnswer.Value)
		next := make([]string, 0, len(valueSet))
		for v := range valueSet {
			next = append(next, v)
		}
		sort.Strings(next)
		if len(next) > maxChainValues {
			next = next[:maxChainValues]
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
	return final, e.rankTopK(finalCands, k), nil
}

// hopBFQ answers one concrete BFQ of a chain under an "engine.bfq" span;
// question is q rendered for the trace.
func (e *Engine) hopBFQ(ctx context.Context, q *parsed, question string, tm *Timings) (Answer, []interpretation, error) {
	ctx, sp := obs.StartSpan(ctx, "engine.bfq")
	if sp != nil {
		sp.SetAttr("question", question)
		defer sp.End()
	}
	return e.bfq(ctx, q, tm, nil)
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
