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
// before the first one arrives (compile.go), keyed by the IDs of one token
// vocabulary: a question is mapped to IDs in the pass that tokenizes it,
// and after that a trie over label token IDs finds mentions, the taxonomy
// weighs concepts by label index and word ID, θ = P(p|t) is a trie over
// template token IDs to a sorted slice of parsed paths per template, and
// variant routing reads a table by ID — no string is hashed again. A BFQ
// enumerates Eq (7)'s support into a probe plan — every (e, p) the model
// gives mass to, each once — and reads it in one Index call, so the cost of
// the summation on a cluster is one frame, not a round trip per term. A complex question is read per phase, not per
// sub-question: the δ oracle enumerates every span it examines into one
// plan read once, the chain's first hop takes the oracle's answer, and each
// later hop reads all of its bindings at once. Cancellation is checked at
// every probe of a local read, every frame of a remote one and between
// chain hops, so a deadline stops work mid-inference instead of letting an
// abandoned request run to completion; failures are the typed errors
// ErrNoEntity, ErrNoTemplate and ErrNoAnswer so callers can tell the failure
// stages apart, and an Index failure (every index server down) aborts the
// answer rather than shrinking it.
//
// Everything a question builds and throws away lives in one scratch
// (scratch.go): taken from the engine's pool when Answer starts, reached
// from the question's parse by every stage, put back when Answer returns,
// and never pointed into by what Answer returns. Index reads write into its
// storage and the decomposition DP keeps its flat table of backpointers
// there, so a question allocates a small, fixed number of times: for what
// it returns, and for each token it lower-cases.
package core

import (
	"cmp"
	"context"
	"errors"
	"slices"
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
// in-process world (LocalIndex) and the cluster (shardrpc.KB), a frontend
// over replicated index servers that each hold the whole world. V(e, p+) is
// read a question's whole probe set at a time, which is what lets the
// cluster send one frame per read phase to one server instead of one RPC
// per term of Eq (7).
type Index interface {
	// PathObjects sets out[i] to V(p.Subj, p.Path) of probes[i] for every
	// probe (len(out) == len(probes)), each ascending and deduplicated. The
	// sets are written into storage the caller owns: appended to vals, whose
	// extended form is returned for the caller to reuse, and out[i] is a
	// window of it — or of storage of the index's own that the index never
	// reuses, such as a reply it decoded. probes, out and vals are valid only
	// for the duration of the call: the index keeps none of them. It is all
	// or nothing: an error means no result is usable, never that some came
	// back shorter.
	PathObjects(ctx context.Context, probes []rdf.Probe, out [][]rdf.ID, vals []rdf.ID) ([]rdf.ID, error)
	// Subjects returns all subjects with (s, pred, obj) in K, ascending.
	Subjects(ctx context.Context, pred rdf.PID, obj rdf.ID) ([]rdf.ID, error)
}

// LocalIndex serves Index from an in-process graph. The reads themselves
// cannot fail or block; the context is honoured before each one, so a
// cancelled request stops probing mid-batch.
func LocalIndex(g rdf.Graph) Index { return localIndex{g} }

type localIndex struct{ g rdf.Graph }

func (l localIndex) PathObjects(ctx context.Context, probes []rdf.Probe, out [][]rdf.ID, vals []rdf.ID) ([]rdf.ID, error) {
	for i, p := range probes {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		start := len(vals)
		if vals = rdf.PathObjects(vals, l.g, p.Subj, p.Path); len(vals) > start {
			out[i] = vals[start:len(vals):len(vals)]
		} else {
			out[i] = nil
		}
	}
	return vals, nil
}

func (l localIndex) Subjects(ctx context.Context, pred rdf.PID, obj rdf.ID) ([]rdf.ID, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return rdf.Subjects(l.g, pred, obj), nil
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

	// find is KB.Lexicon.FindIDs, a field so that a test can count the
	// calls.
	find func(dst []extract.Mention, ids []uint32) []extract.Mention
	// vocab maps a question's tokens to the IDs everything below is keyed
	// by: the lexicon's vocabulary grown by the context words, θ's words
	// and the variant words.
	vocab *text.Vocab
	// concepts is Taxonomy compiled over vocab, and priors its isA weights
	// by Mention.Label.
	concepts *concept.Compiled
	priors   [][]concept.ScoredID
	// theta is the model compiled (compileModel) as a trie, and templates
	// the same in ascending text order; a retrain builds a new engine.
	theta     theta
	templates []*compiledTemplate
	// words is what variant routing reads of a token, by ID.
	words []wordRole
	// numeric memoises numericPredicate: path key → bool.
	numeric sync.Map
	// scratches holds the idle per-question scratches (scratch.go).
	scratches sync.Pool
}

// NewEngine builds an engine over the local world kb whose index reads go
// through idx — LocalIndex(kb) in process, a shardrpc.KB for a cluster —
// and compiles model for it. kb is compiled too unless it is a *Symbols
// already, which is how the engines of successive retrains share one. A
// non-nil stats enables complex-question decomposition.
func NewEngine(kb rdf.Graph, idx Index, tax *concept.Taxonomy, model *learn.Model, stats *decompose.Stats) *Engine {
	e := &Engine{KB: CompileSymbols(kb), Index: idx, Taxonomy: tax, Stats: stats}
	e.find = e.KB.Lexicon.FindIDs
	e.vocab = e.KB.Lexicon.Vocab().Clone()
	e.concepts = tax.Compile(e.vocab)
	labels := e.KB.Lexicon.Labels()
	e.priors = make([][]concept.ScoredID, len(labels))
	for i, surface := range labels {
		e.priors[i] = e.concepts.Priors(surface)
	}
	e.theta, e.templates = compileModel(kb, model, e.vocab, e.concepts)
	e.words = compileWords(e.vocab, e.concepts)
	e.scratches.New = func() any { return new(scratch) }
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
// The stages are kept by the question's scratch clock, which reads the time
// once per stage boundary: a read phase — the direct path's or a hop's —
// finds every mention, then conceptualizes every mention, then looks every
// template up and reads, and costs four clock readings however many
// questions and mentions it holds.
type Timings struct {
	Parse time.Duration
	Match time.Duration
	Probe time.Duration
	Total time.Duration
}

// parsed is a question after its one parse: the token sequence, each
// token's vocabulary ID and, looked up on first use and kept, the entity
// mentions in it. Every stage of an Answer call — variant routing, the
// direct path, the δ oracle, each chain hop — works on a parsed value, so
// no stage tokenizes, maps a token to its ID or finds mentions for a token
// sequence an earlier stage already handled. After the parse only ids is
// read to match; toks is kept for the text of Steps and spans, the
// decomposition patterns and a comparison's or a listing's cue words. toks,
// ids and mentions live in s, the scratch of the Answer call the question
// belongs to, which every stage reaches through it.
type parsed struct {
	toks     []string
	ids      []uint32 // ids[i] is toks[i]'s, text.NoWord outside the vocabulary
	mentions []extract.Mention
	found    bool // mentions holds the lexicon's FindIDs(ids)
	s        *scratch
}

// parseInto sets *p to toks, a question's tokens, with their IDs looked up
// into s.
func (e *Engine) parseInto(s *scratch, p *parsed, toks []string) {
	start := len(s.ids)
	s.ids = e.vocab.AppendIDs(s.ids, toks)
	*p = parsed{toks: toks, ids: s.ids[start:len(s.ids):len(s.ids)], s: s}
}

// span is q's tokens sp, parsed.
func (q *parsed) span(sp text.Span) parsed {
	return parsed{toks: q.toks[sp.Start:sp.End], ids: q.ids[sp.Start:sp.End], s: q.s}
}

// mentionsOf returns q's entity mentions, finding them, into the scratch,
// on the first call.
func (e *Engine) mentionsOf(q *parsed) []extract.Mention {
	if !q.found {
		s := q.s
		start := len(s.mentions)
		s.mentions = e.find(s.mentions, q.ids)
		q.mentions, q.found = s.mentions[start:len(s.mentions):len(s.mentions)], true
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
// attribution, which is filled in for failed calls too. Everything the call
// builds and throws away lives in one pooled scratch, returned to the pool
// before Answer returns; nothing Answer returns points into it.
//
// The error is ErrNoEntity, ErrNoTemplate or ErrNoAnswer for unanswerable
// questions (see Unanswerable), ctx.Err() when the context expires, or the
// Index's error when a read fails.
func (e *Engine) Answer(ctx context.Context, question string, k int, variants bool) (Answer, []Ranked, Timings, error) {
	start := time.Since(epoch)
	s := e.scratches.Get().(*scratch)
	ans, ranked, err := e.answer(ctx, s, question, k, variants)
	tm := s.clock.tm
	s.reset()
	e.scratches.Put(s)
	tm.Total = time.Since(epoch) - start
	return ans, ranked, tm, err
}

// answer routes one question: variant → direct Eq (7) → decomposition →
// chain, all over the same parse, in the scratch s.
//
// When the context carries a trace, the BFQ / complex pipeline runs under an
// "engine.answer" span whose parse/match/probe stage children mirror the
// Timings laps exactly — a captured trace's stage durations equal the
// Result's reported Timings because both read the same accumulator.
func (e *Engine) answer(ctx context.Context, s *scratch, question string, k int, variants bool) (Answer, []Ranked, error) {
	if err := ctx.Err(); err != nil {
		return Answer{}, nil, err
	}
	c := &s.clock
	c.start()
	q := &s.parses.take(1)[0]
	toks, ids := e.vocab.Tokenize(question, s.toks, s.ids)
	*q = parsed{toks: toks[:len(toks):len(toks)], ids: ids[:len(ids):len(ids)], s: s}
	s.toks, s.ids = toks, ids
	c.lap(parseStage)
	if variants {
		va, ok, err := e.answerVariant(ctx, q)
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
			sp.Stage("parse", c.tm.Parse)
			sp.Stage("match", c.tm.Match)
			sp.Stage("probe", c.tm.Probe)
			sp.End()
		}()
	}

	ans, cands, direct := e.bfq(ctx, q)
	if direct == nil {
		ranked := e.rankTopK(s, cands, k)
		ans.Values = slices.Clone(ans.Values)
		return ans, ranked, nil
	}
	// The direct path's typed failure says how far the pipeline got; it is
	// the reply unless decomposition rescues the question.
	if !Unanswerable(direct) || e.Stats == nil {
		return Answer{}, nil, direct
	}
	whole := len(q.toks)
	c.start()
	if whole > maxDecomposeTokens {
		// The DP is bounded to the truncated window, so the mention set
		// handed to its oracle must cover exactly the same tokens.
		w := &s.parses.take(1)[0]
		*w = q.span(text.Span{End: maxDecomposeTokens})
		q = w
	}
	mentions := e.mentionsOf(q)
	c.lap(parseStage)
	if len(mentions) == 0 {
		return Answer{}, nil, direct
	}

	// The DP and its δ oracle run under one "engine.oracle" span, so on a
	// cluster the oracle's rpc.call frames nest under it; both are one Match
	// lap. The oracle settles every span before the DP starts, which then
	// only reads the spans it accepted; a failed read leaves the DP nothing
	// to do.
	octx, osp := obs.StartSpan(ctx, "engine.oracle")
	accepted, err := e.oracle(octx, osp, q, whole, mentions)
	dec, ok := decompose.Decomposition{}, false
	if err == nil {
		s.dec.Stats, s.dec.MaxQuestionTokens = e.Stats, maxDecomposeTokens
		dec, ok = s.dec.Decompose(q.toks, accepted)
	}
	c.lap(matchStage)
	osp.End()
	if cerr := ctx.Err(); cerr != nil {
		return Answer{}, nil, cerr
	}
	if err != nil {
		return Answer{}, nil, err
	}
	if ok && dec.IsComplex() {
		first := &s.spans[s.prim[primIndex(dec.First)]-1]
		ans, ranked, err := e.executeChain(ctx, s, first, dec.Sequence[1:], k)
		if err == nil || !Unanswerable(err) {
			return ans, ranked, err
		}
	}
	return Answer{}, nil, direct
}

// bfq is Eq (7) over one parsed question — the direct path: readPhase's
// one-question case, then settle. The δ oracle and the chain hops run the
// same two halves, enumerate and settle, around one read per phase instead
// of one per question.
//
// The error is settle's, or the Index's: ctx expiry, which the read checks,
// so cancellation aborts the scan mid-flight, or infrastructure failure (all
// replicas down), which aborts the answer rather than shrinking it.
func (e *Engine) bfq(ctx context.Context, q *parsed) (Answer, []interpretation, error) {
	s := q.s
	works := s.works.take(1)
	s.qs = append(s.qs[:0], q)
	values, psp, err := e.readPhase(ctx, s.qs, works)
	if err != nil {
		return Answer{}, nil, err
	}
	ans, cands, err := e.settle(s, &works[0], values)
	psp.SetInt("candidates", int64(len(cands)))
	return ans, cands, err
}

// readPhase is one read of the online procedure: it enumerates every
// question of qs into one shared probe plan, works[i] receiving qs[i]'s
// support, and reads the plan in one Index call. The read is traced as an
// "engine.probe" span — what the questions ask of the knowledge base — that
// comes back ended, for the caller to count the candidates it settles. With no
// mention in any question there is neither span nor read, and settle
// reports ErrNoEntity. The questions share one scratch, whose clock the
// phase's stages are timed on.
func (e *Engine) readPhase(ctx context.Context, qs []*parsed, works []bfqWork) ([][]rdf.ID, *obs.Span, error) {
	s := qs[0].s
	plan := s.newPlan()
	e.enumerate(qs, works, &s.clock, plan)
	var mentions, entities, templates int
	for _, w := range works {
		mentions += len(w.mentions)
		entities += w.entities
		templates += w.templates
	}
	if mentions == 0 {
		return nil, nil, nil
	}
	ctx, sp := obs.StartSpan(ctx, "engine.probe")
	if sp != nil {
		sp.SetInt("mentions", int64(mentions))
		sp.SetInt("entities", int64(entities))
		sp.SetInt("templates", int64(templates))
		sp.SetInt("probes", int64(len(plan.probes)))
	}
	values, err := s.read(ctx, e.Index, plan.probes)
	s.clock.lap(probeStage)
	sp.End()
	return values, sp, err
}

// bfqWork is one question's Eq (7) support, enumerated into a probe plan
// and waiting for the plan's values.
type bfqWork struct {
	mentions  []extract.Mention
	entities  int  // candidate entities across mentions
	templates int  // derived templates with P(t|e,q) > 0
	sawMass   bool // some template carried learned P(p|t) mass
	// cands is in the order aggregate needs — mention, entity, template,
	// ascending path key (the compiled order): it feeds float accumulation,
	// and map order would make near-tied answers flap across runs — each
	// naming the plan's probe whose values it is waiting for. It is a window
	// of the scratch's candidates.
	cands []interpretation
}

// mentionTerm is what conceptualization found for one mention, waiting for
// θ: the trie node after the words before the mention (ok is false when no
// template starts with them) and P(c|q,e) per concept.
type mentionTerm struct {
	prefix   uint32
	ok       bool
	concepts []concept.ScoredID
}

// enumerate adds the summation support of every question of qs — entities
// from its mentions, templates from conceptualization, predicates from the
// learned model — to plan, works[i] receiving qs[i]'s; a probe is shared by
// every question that needs it. It runs as three passes over all of the
// questions, each one stage of c: find every mention (Parse), conceptualize
// every mention (Match), then walk θ's trie along each question's IDs and
// add the probes (Probe, which the read that follows completes). No
// template is built. A nil c times nothing: the δ oracle's whole phase is
// one Match lap of its caller's.
func (e *Engine) enumerate(qs []*parsed, works []bfqWork, c *clock, plan *probePlan) {
	if len(qs) == 0 {
		return
	}
	s := qs[0].s
	c.start()
	for i, q := range qs {
		w := &works[i]
		*w = bfqWork{mentions: e.mentionsOf(q)}
		// P(e|q): uniform over all candidate entities across mentions.
		for _, m := range w.mentions {
			w.entities += len(m.Entities)
		}
	}
	c.lap(parseStage)
	terms := s.terms[:0]
	s.concepts = s.concepts[:0]
	for i, q := range qs {
		for _, m := range works[i].mentions {
			start := len(s.concepts)
			var t mentionTerm
			t.prefix, t.ok, s.concepts = e.mentionTemplates(s.concepts, q.ids, m)
			t.concepts = s.concepts[start:len(s.concepts):len(s.concepts)]
			terms = append(terms, t)
		}
	}
	s.terms = terms
	c.lap(matchStage)
	for i, q := range qs {
		w := &works[i]
		start := len(s.cands)
		for _, m := range w.mentions {
			t := terms[0]
			terms = terms[1:]
			pe := 1.0 / float64(w.entities)
			// What the model knows of the mention's templates is the same
			// for each of its entities: look it up once.
			learned := s.learned[:0]
			for _, cp := range t.concepts {
				if cp.P <= 0 {
					continue
				}
				w.templates++
				if !t.ok {
					continue
				}
				ct := e.theta.lookup(t.prefix, cp.Concept, q.ids[m.Span.End:])
				if ct == nil {
					continue
				}
				w.sawMass = true
				for _, p := range ct.paths {
					learned = append(learned, interpretation{tpl: ct, path: p.groundedPath, weight: pe * cp.P * p.p})
				}
			}
			s.learned = learned
			for _, ent := range m.Entities {
				for _, ip := range learned {
					ip.entity, ip.probe = ent, plan.add(ent, ip.path)
					s.cands = append(s.cands, ip)
				}
			}
		}
		w.cands = s.cands[start:len(s.cands):len(s.cands)]
	}
}

// settle assembles w's candidates from the values of its plan — those whose
// probe found values, order kept; duplicates across templates share one
// read-only value slice — and aggregates the argmax answer. The candidates
// come back with the answer so callers can rank the winner without
// re-probing. The error says how far the pipeline got: ErrNoEntity without
// a mention, ErrNoTemplate when no derived template carried learned P(p|t)
// mass, ErrNoAnswer when probing produced no value. The answer's Values are
// the scratch's.
func (e *Engine) settle(s *scratch, w *bfqWork, values [][]rdf.ID) (Answer, []interpretation, error) {
	if len(w.mentions) == 0 {
		return Answer{}, nil, ErrNoEntity
	}
	cands := w.cands[:0]
	for _, c := range w.cands {
		if c.values = values[c.probe]; len(c.values) > 0 {
			cands = append(cands, c)
		}
	}
	if ans, ok := e.aggregate(s, cands); ok {
		return ans, cands, nil
	}
	if !w.sawMass {
		return Answer{}, nil, ErrNoTemplate
	}
	return Answer{}, nil, ErrNoAnswer
}

// oracleSpan is a token span the δ oracle accepted: its tokens and its
// BFQ's answer and candidates — the chain's first hop if the DP picks it.
type oracleSpan struct {
	toks  []string
	ans   Answer
	cands []interpretation
}

// primIndex is span sp's index in the scratch's table of accepted spans.
func primIndex(sp text.Span) int { return sp.Start*(maxDecomposeTokens+1) + sp.End }

// oracle is the δ oracle of Algorithm 2, evaluated for every span of q
// before the DP asks: a span is a primitive BFQ iff the engine can answer
// it. The candidate spans are those that contain one of the question's
// mentions — a span without one is rejected before paying for a BFQ — and
// are not the whole question, which the direct path just failed on. They
// are enumerated in the DP's order (length ascending, then start) into one
// probe plan, read in one Index call and settled. The accepted spans come
// back in that order, for the DP; each is filed in the scratch's table by
// span (prim, spans). An Index failure fails the oracle, and with it the
// question. sp, the "engine.oracle" span, counts the work.
func (e *Engine) oracle(ctx context.Context, sp *obs.Span, q *parsed, whole int, mentions []extract.Mention) ([]text.Span, error) {
	s := q.s
	tried := s.tried[:0]
	n := len(q.toks)
	for length := 1; length <= n && length < whole; length++ {
		for i := 0; i+length <= n; i++ {
			span := text.Span{Start: i, End: i + length}
			for _, m := range mentions {
				if span.Contains(m.Span) {
					tried = append(tried, span)
					break
				}
			}
		}
	}
	s.tried = tried
	parses, works := s.parses.take(len(tried)), s.works.take(len(tried))
	qs := s.qs[:0]
	for i, span := range tried {
		parses[i] = q.span(span)
		qs = append(qs, &parses[i])
	}
	s.qs = qs
	plan := s.newPlan()
	e.enumerate(qs, works, nil, plan)
	sp.SetInt("spans_tried", int64(len(tried)))
	sp.SetInt("probes", int64(len(plan.probes)))
	values, err := s.read(ctx, e.Index, plan.probes)
	if err != nil {
		return nil, err
	}
	clear(s.prim[:])
	accepted := s.accepted[:0]
	for i, span := range tried {
		if ans, cands, err := e.settle(s, &works[i], values); err == nil {
			s.spans = append(s.spans, oracleSpan{toks: parses[i].toks, ans: ans, cands: cands})
			s.prim[primIndex(span)] = int32(len(s.spans))
			accepted = append(accepted, span)
		}
	}
	s.accepted = accepted
	sp.SetInt("spans_accepted", int64(len(accepted)))
	return accepted, nil
}

// mentionTemplates prepares the templates t(q, e, c) of mention m of the
// question ids (Sec 2, "Templates"): it walks θ's trie along the words
// before the mention, and appends P(c|q,e) — a template's weight P(t|q,e)
// (Eq 5) — to concepts. Concept c's template is then
// e.theta.lookup(prefix, c, ids[m.Span.End:]); ok is false when no
// template starts with those words.
func (e *Engine) mentionTemplates(concepts []concept.ScoredID, ids []uint32, m extract.Mention) (prefix uint32, ok bool, _ []concept.ScoredID) {
	var buf [24]uint32 // the mention's context: the question without it
	ctx := append(append(buf[:0], ids[:m.Span.Start]...), ids[m.Span.End:]...)
	prefix, ok = e.theta.walk(0, ids[:m.Span.Start])
	return prefix, ok, e.concepts.ConceptualizeInto(concepts, e.priors[m.Label], ctx)
}

// probePlan is one read phase's probe set: every (entity, path) Eq (7)
// gives mass to, each pair once however many templates and mentions lead to
// it.
type probePlan struct {
	slot   map[uint64]int // by the entity and the path's rank; index into probes
	probes []rdf.Probe
}

// add returns the plan's index for V(ent, path), adding the probe if it is
// new.
func (pl *probePlan) add(ent rdf.ID, path *groundedPath) int {
	key := uint64(uint32(ent))<<32 | uint64(path.rank)
	i, ok := pl.slot[key]
	if !ok {
		if pl.slot == nil {
			pl.slot = make(map[uint64]int)
		}
		i = len(pl.probes)
		pl.slot[key] = i
		pl.probes = append(pl.probes, rdf.Probe{Subj: ent, Path: path.path})
	}
	return i
}

// valueAcc is what aggregate accumulates for one value: its label, its
// P(v|q) so far and its strongest interpretation.
type valueAcc struct {
	label *valueLabel
	score float64
	best  interpretation
	bestW float64
}

// aggregate accumulates P(v|q) over interpretations and picks the argmax
// value, remembering the strongest interpretation per value for the trace.
// A value is a normalized label; the nodes carrying one are found by the
// first of them (valueLabel), so no label is hashed. The accumulators and
// the answer's Values are the scratch's.
func (e *Engine) aggregate(s *scratch, cands []interpretation) (Answer, bool) {
	if len(cands) == 0 {
		return Answer{}, false
	}
	accs := s.accs[:0]
	if s.byValue == nil {
		s.byValue = make(map[rdf.ID]int)
	}
	byValue := s.byValue // by the label's first node; index into accs
	clear(byValue)
	for _, c := range cands {
		perValue := c.weight / float64(len(c.values))
		for _, v := range c.values {
			label := e.KB.value(v)
			i, ok := byValue[label.first]
			if !ok {
				i = len(accs)
				byValue[label.first] = i
				accs = append(accs, valueAcc{label: label})
			}
			a := &accs[i]
			a.score += perValue
			// Deterministic winner among equal-weight interpretations:
			// the model's P(p|t) map iterates in random order, so a plain
			// first-seen maximum would make the reported (template, path)
			// flap between runs and between store layouts.
			if perValue > a.bestW || (perValue == a.bestW && a.bestW > 0 &&
				(c.path.rank < a.best.path.rank || (c.path == a.best.path && c.tpl.rank < a.best.tpl.rank))) {
				a.bestW = perValue
				a.best = c
			}
		}
	}
	s.accs = accs

	best := &accs[0]
	for i := range accs[1:] {
		a := &accs[i+1]
		if a.score > best.score || (a.score == best.score && a.label.text < best.label.text) {
			best = a
		}
	}

	start := len(s.labels)
	for _, v := range best.best.values {
		s.labels = append(s.labels, e.KB.normLabel(v))
	}
	values := s.labels[start:len(s.labels):len(s.labels)]
	slices.Sort(values)

	return Answer{
		Value:    best.label.text,
		Values:   values,
		Score:    best.score,
		Entity:   best.best.entity,
		Template: best.best.tpl.text,
		Path:     best.best.path.key,
	}, true
}

// rankRow is one (entity, template, path) key of rankTopK's merge.
type rankRow struct {
	ent   rdf.ID
	tpl   *compiledTemplate
	path  *groundedPath
	score float64
	cand  int // first candidate with this key; duplicates share V(e,p)
}

// byRankKey orders rows by path key, template text and entity, by rank and
// ID.
func byRankKey(a, b rankRow) int {
	if a.path != b.path {
		return cmp.Compare(a.path.rank, b.path.rank)
	}
	if a.tpl != b.tpl {
		return cmp.Compare(a.tpl.rank, b.tpl.rank)
	}
	return cmp.Compare(a.ent, b.ent)
}

// rankTopK merges the candidate interpretations by (entity, template,
// path) — summing the Eq (7) mass of duplicates surfaced through distinct
// mentions, in candidate order — and returns the strongest k, sorted by
// descending score, ties by path key, template text and entity. The merge
// and the tie-breaks compare IDs and ranks, never strings; its rows are the
// scratch's.
func (e *Engine) rankTopK(s *scratch, cands []interpretation, k int) []Ranked {
	if k <= 0 || len(cands) == 0 {
		return nil
	}
	rows := s.rows[:0]
	for i, c := range cands {
		rows = append(rows, rankRow{c.entity, c.tpl, c.path, c.weight, i})
	}
	s.rows = rows
	// Sorted stably by key, a key's duplicates are adjacent and in candidate
	// order; merged, the rows stay in key order, so a stable sort by score
	// leaves ties in the order of the tie-breaks.
	slices.SortStableFunc(rows, byRankKey)
	merged := rows[:1]
	for _, r := range rows[1:] {
		if last := &merged[len(merged)-1]; byRankKey(*last, r) == 0 {
			last.score += r.score
			continue
		}
		merged = append(merged, r)
	}
	slices.SortStableFunc(merged, func(a, b rankRow) int { return cmp.Compare(b.score, a.score) })
	if len(merged) > k {
		merged = merged[:k]
	}
	// Label resolution and per-value normalization are deferred to the k
	// winners; losers cost only their score accumulation above.
	out := make([]Ranked, len(merged))
	for i, r := range merged {
		c := cands[r.cand]
		values := make([]string, 0, len(c.values))
		for _, v := range c.values {
			values = append(values, e.KB.normLabel(v))
		}
		slices.Sort(values)
		out[i] = Ranked{
			Entity:      r.ent,
			EntityLabel: e.KB.normLabel(r.ent),
			Template:    r.tpl.text,
			Path:        r.path.key,
			Score:       r.score,
			Values:      values,
		}
	}
	return out
}

// interpretation is one (e, t, p) triple with its joint weight
// P(e|q)·P(t|e,q)·P(p|t) and the value set V(e, p).
type interpretation struct {
	entity rdf.ID
	tpl    *compiledTemplate
	path   *groundedPath
	weight float64
	probe  int // the read of the question's probe plan that values came from
	values []rdf.ID
}

// executeChain runs a decomposition sequence: take the innermost BFQ's
// answer (first, which the δ oracle already answered), then repeatedly bind
// the answer(s) into the next pattern's $e token (Sec 5.1) — tokens in,
// tokens out, in the scratch s; questions are rendered to text for Steps
// and span attributes only. A hop enumerates all of its bindings into one
// probe plan, reads it once and settles the bindings in order.
// Cancellation is checked between hops and by every read, so a deadline
// stops a multi-hop question instead of fanning out more work. The error is
// a typed unanswerable one when some hop has no answer (the caller then
// keeps the direct path's classification), else ctx's or the Index's.
func (e *Engine) executeChain(ctx context.Context, s *scratch, first *oracleSpan, patterns [][]string, k int) (Answer, []Ranked, error) {
	firstQ := text.Join(first.toks)
	final, finalCands := first.ans, first.cands
	if _, hsp := obs.StartSpan(ctx, "engine.hop"); hsp != nil {
		hsp.SetInt("hop", 0)
		hsp.SetAttr("question", firstQ)
		hsp.SetAttr("value", final.Value)
		hsp.End()
	}
	steps := make([]Step, 1, 1+len(patterns))
	steps[0] = Step{
		Question:  firstQ,
		Questions: []string{firstQ},
		Template:  final.Template,
		Path:      final.Path,
		Value:     final.Value,
	}
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
		parses, works := s.parses.take(len(current)), s.works.take(len(current))
		qs := s.qs[:0]
		executed := make([]string, len(current))
		for i, v := range current {
			// v is a normalized label — its tokens joined by single spaces
			// — so splitting on them is Join's exact inverse.
			fields := s.fields[:0]
			for v != "" {
				var f string
				f, v, _ = strings.Cut(v, " ")
				fields = append(fields, f)
			}
			s.fields = fields
			start := len(s.toks)
			s.toks = decompose.Bind(s.toks, pat, fields)
			e.parseInto(s, &parses[i], s.toks[start:len(s.toks):len(s.toks)])
			qs = append(qs, &parses[i])
			executed[i] = text.Join(parses[i].toks)
		}
		s.qs = qs
		values, psp, err := e.readPhase(hctx, qs, works)
		psp.SetInt("bindings", int64(len(works)))
		if err != nil {
			hsp.End()
			return Answer{}, nil, err
		}
		if s.valueSet == nil {
			s.valueSet = make(map[string]bool)
		}
		valueSet := s.valueSet
		clear(valueSet)
		var stepAnswer Answer
		var stepCands []interpretation
		var stepQuestion string
		hopAnswered := false
		candidates := 0
		for i := range works {
			_, bsp := obs.StartSpan(hctx, "engine.bfq")
			bsp.SetAttr("question", executed[i])
			ans, cands, err := e.settle(s, &works[i], values)
			bsp.End()
			candidates += len(cands)
			if err != nil {
				continue // settle's errors are all unanswerable
			}
			hopAnswered = true
			if !ans.less(stepAnswer) {
				stepAnswer = ans
				stepCands = cands
				stepQuestion = executed[i]
			}
			for _, nv := range ans.Values {
				valueSet[nv] = true
			}
		}
		psp.SetInt("candidates", int64(candidates))
		hsp.End()
		if !hopAnswered {
			return Answer{}, nil, ErrNoAnswer
		}
		hsp.SetAttr("value", stepAnswer.Value)
		start := len(s.labels)
		for v := range valueSet {
			s.labels = append(s.labels, v)
		}
		next := s.labels[start:len(s.labels):len(s.labels)]
		slices.Sort(next)
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
	final.Values = slices.Clone(final.Values)
	if len(final.Values) > 0 {
		final.Value = final.Values[0]
		for _, v := range final.Values {
			if v == steps[len(steps)-1].Value {
				final.Value = v
				break
			}
		}
	}
	return final, e.rankTopK(s, finalCands, k), nil
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
