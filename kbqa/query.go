package kbqa

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/serve"
)

// Typed query failures, shared with the engine so errors.Is works across
// layers. Context errors (context.Canceled, context.DeadlineExceeded) pass
// through Query unwrapped.
var (
	// ErrNoEntity: no token span of the question matched an entity label.
	ErrNoEntity = core.ErrNoEntity
	// ErrNoTemplate: an entity was found but no learned template carries
	// P(p|t) mass for the question shape.
	ErrNoTemplate = core.ErrNoTemplate
	// ErrNoAnswer: interpretations existed but produced no value (the
	// paper's "null" reply), or a fallback chain was exhausted.
	ErrNoAnswer = core.ErrNoAnswer
)

// IsUnanswerable reports whether err is one of the typed no-answer
// failures (ErrNoEntity, ErrNoTemplate, ErrNoAnswer) as opposed to a
// context or serving-layer failure. Chain retries fallbacks only on
// unanswerable errors.
func IsUnanswerable(err error) bool { return core.Unanswerable(err) }

// Stable error codes of the typed failures, used by the HTTP layer's
// error_code field and the kbqa_query_errors_total{code=...} metric.
const (
	CodeNoEntity   = "no_entity"
	CodeNoTemplate = "no_template"
	CodeNoAnswer   = "no_answer"
)

// ErrorCode maps any error Query can return to a stable code: "" for nil,
// the typed codes above, and the serving codes (timeout, canceled,
// shutting_down, engine_panic, internal) for everything else.
func ErrorCode(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, ErrNoEntity):
		return CodeNoEntity
	case errors.Is(err, ErrNoTemplate):
		return CodeNoTemplate
	case errors.Is(err, ErrNoAnswer):
		return CodeNoAnswer
	default:
		return serve.ErrorCode(err)
	}
}

// errorFromCode inverts ErrorCode for the typed codes, used when a cached
// negative result is rehydrated into an error.
func errorFromCode(code string) error {
	switch code {
	case CodeNoEntity:
		return ErrNoEntity
	case CodeNoTemplate:
		return ErrNoTemplate
	default:
		return ErrNoAnswer
	}
}

// DefaultTopK is how many ranked interpretations Query returns when
// WithTopK is not given.
const DefaultTopK = 3

// queryConfig is the resolved option set of one Query call.
type queryConfig struct {
	topK       int
	noVariants bool
	timeout    time.Duration
}

func newQueryConfig(opts []QueryOption) queryConfig {
	cfg := queryConfig{topK: DefaultTopK}
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// arm moves WithTimeout from the config onto ctx: the outermost layer that
// sees the option owns the deadline (a Server arms it before the cache,
// flight and admission waits, so it bounds queueing and belongs to this
// caller, not to a singleflight leader), and the cleared config keeps an
// inner layer from re-arming it. The cancel func must be called.
func (c *queryConfig) arm(ctx context.Context) (context.Context, context.CancelFunc) {
	if c.timeout <= 0 {
		return ctx, func() {}
	}
	d := c.timeout
	c.timeout = 0
	return context.WithTimeout(ctx, d)
}

// fingerprint canonically encodes what shapes a result — the content tag of
// the model computing it, first, then the options; the serving layer keys
// its answer cache and singleflight on (fingerprint, question), so answers
// of different models or options never share an entry. Timeout is
// deliberately excluded: it bounds the work, not the value.
func (c queryConfig) fingerprint(tag string) string {
	return tag + ";k=" + strconv.Itoa(c.topK) + ";v=" + strconv.FormatBool(!c.noVariants)
}

// QueryOption tunes one Query call.
type QueryOption func(*queryConfig)

// WithTopK sets how many ranked interpretations the Result carries
// (default DefaultTopK; 0 disables ranking entirely). The answer itself is
// independent of k: k=1 returns exactly the interpretation list's head
// alongside the same answer every other k produces.
func WithTopK(k int) QueryOption { return func(c *queryConfig) { c.topK = k } }

// WithoutVariants disables auto-routing to the ranking / comparison /
// listing engine, forcing the BFQ / complex pipeline.
func WithoutVariants() QueryOption { return func(c *queryConfig) { c.noVariants = true } }

// WithTimeout bounds this call with a deadline, a convenience for callers
// without their own context plumbing; the deadline reaches the engine's
// probe loops, so expiry stops the scan rather than abandoning it.
func WithTimeout(d time.Duration) QueryOption { return func(c *queryConfig) { c.timeout = d } }

// Interpretation is one ranked (entity, template, predicate) candidate of
// Eq (7)'s summation, surfaced with its joint score instead of being
// discarded by the argmax.
type Interpretation struct {
	// Entity is the normalized label of the candidate entity.
	Entity string `json:"entity"`
	// Template is the learned template that matched.
	Template string `json:"template"`
	// Predicate is the predicate path, in arrow notation when expanded.
	Predicate string `json:"predicate"`
	// Score is the joint weight P(e|q)·P(t|e,q)·P(p|t); the list is
	// sorted by descending Score.
	Score float64 `json:"score"`
	// Values are the normalized labels of V(e, p), sorted.
	Values []string `json:"values,omitempty"`
}

// QueryTimings carries per-stage latencies of one query: Parse covers the
// question's one tokenization and its entity-mention lookups (shared by
// variant routing and the BFQ path, so variant answers report it too),
// Match template derivation and the decomposition DP, Probe the model
// lookups and knowledge-base probing; Total is end-to-end including variant
// routing and aggregation.
type QueryTimings struct {
	Parse time.Duration `json:"parse"`
	Match time.Duration `json:"match"`
	Probe time.Duration `json:"probe"`
	Total time.Duration `json:"total"`
}

// Result is a successful Query reply. Exactly one of Answer and Variant is
// non-nil: Answer for BFQ / complex questions, Variant for questions the
// ranking / comparison / listing engine recognized. Results returned by a
// Server may be shared with concurrent callers via the answer cache and
// must be treated as read-only.
type Result struct {
	Question string `json:"question"`
	// Answer is the argmax reply of the BFQ / complex pipeline.
	Answer *Answer `json:"answer,omitempty"`
	// Variant is the reply of the variant engine.
	Variant *VariantAnswer `json:"variant,omitempty"`
	// Interpretations are the top-K ranked candidate interpretations
	// (empty for variant answers and when WithTopK(0) was given).
	Interpretations []Interpretation `json:"interpretations,omitempty"`
	// Timings attributes the latency of the computation that produced
	// this result (a cache hit reports the original computation's).
	Timings QueryTimings `json:"timings"`
	// TraceID identifies the request trace this result was produced (or
	// served) under, when tracing is enabled — the same ID the HTTP layer
	// echoes as X-Kbqa-Trace and /debug/traces serves. Empty when the
	// request was untraced.
	TraceID string `json:"trace_id,omitempty"`
}

// Answerer is anything that answers questions through the unified
// context-aware contract: *System, Server, the Baseline adapters, and
// Chain compositions of all of them.
type Answerer interface {
	Query(ctx context.Context, question string, opts ...QueryOption) (*Result, error)
}

// Query answers a question of any supported shape through one entry point:
// binary factoid questions, complex (multi-hop) questions, and — unless
// WithoutVariants is given — ranking / comparison / listing variants. The
// Result carries the answer, the top-K ranked interpretations, the
// execution trace (Answer.Steps) and per-stage timings.
//
// Failures are typed: ErrNoEntity, ErrNoTemplate and ErrNoAnswer classify
// unanswerable questions (see IsUnanswerable), and ctx.Err() passes
// through when the context expires — cancellation is checked between
// knowledge-base probes and between chain hops, so a deadline stops work
// on large stores instead of letting the scan run to completion.
func (s *System) Query(ctx context.Context, question string, opts ...QueryOption) (*Result, error) {
	res, _, err := query(ctx, s.cur.Load().engine, question, newQueryConfig(opts))
	return stampTraceID(res, ctx), err
}

// query is the resolved-config implementation shared with the serving
// layer, which also wants the engine stage timings for failed calls: arm
// the timeout, make the one call on eng, convert. The Result carries no
// trace ID — it may be cached and outlive the request; the public entry
// points stamp the caller's own on the way out.
func query(ctx context.Context, eng *core.Engine, question string, cfg queryConfig) (*Result, core.Timings, error) {
	ctx, cancel := cfg.arm(ctx)
	defer cancel()
	ans, ranked, tm, err := eng.Answer(ctx, question, cfg.topK, !cfg.noVariants)
	if err != nil {
		return nil, tm, err
	}
	res := &Result{Question: question, Timings: QueryTimings(tm)}
	if ans.Variant != nil {
		v := variantFromCore(*ans.Variant)
		res.Variant = &v
		return res, tm, nil
	}
	a := answerFromCore(ans)
	res.Answer = &a
	res.Interpretations = interpretationsFromCore(ranked)
	return res, tm, nil
}

// interpretationsFromCore converts the engine's ranked interpretations to
// the public shape.
func interpretationsFromCore(ranked []core.Ranked) []Interpretation {
	if len(ranked) == 0 {
		return nil
	}
	out := make([]Interpretation, len(ranked))
	for i, r := range ranked {
		out[i] = Interpretation{
			Entity:    r.EntityLabel,
			Template:  r.Template,
			Predicate: r.Path,
			Score:     r.Score,
			Values:    r.Values,
		}
	}
	return out
}

// variantFromCore converts the engine's variant answer to the public
// shape.
func variantFromCore(va core.VariantAnswer) VariantAnswer {
	return VariantAnswer{
		Kind:      va.Kind.String(),
		Entities:  va.Entities,
		Values:    va.Values,
		Predicate: va.Path,
	}
}

// Baseline returns one of the reimplemented comparison systems
// ("keyword", "synonym", "graph", "rule") wired to this system's knowledge
// base, lifted into the Answerer contract — the natural fallback for
// Chain. Baseline answers carry no template, interpretations or variant
// routing; unanswered questions return ErrNoAnswer.
func (s *System) Baseline(name string) (Answerer, error) {
	sys, ok := s.world.Systems[name]
	if !ok {
		return nil, fmt.Errorf("kbqa: unknown baseline %q (want keyword, synonym, graph, or rule)", name)
	}
	return baselineAnswerer{ad: baseline.Adapter{Sys: sys}}, nil
}

// baselineAnswerer adapts baseline.Adapter to the public Answerer shape.
type baselineAnswerer struct {
	ad baseline.Adapter
}

func (b baselineAnswerer) Query(ctx context.Context, question string, opts ...QueryOption) (*Result, error) {
	cfg := newQueryConfig(opts)
	ctx, cancel := cfg.arm(ctx)
	defer cancel()
	start := time.Now()
	res, err := b.ad.Query(ctx, question)
	if err != nil {
		return nil, err
	}
	return &Result{
		Question: question,
		Answer:   &Answer{Value: res.Value, Values: res.Values, Predicate: res.Path},
		Timings:  QueryTimings{Total: time.Since(start)},
	}, nil
}

// Chain composes Answerers into a fallback cascade (the hybrid scheme of
// Sec 7.3.1): each question goes to primary first, and every typed
// unanswerable failure falls through to the next system. Context and
// serving-layer errors abort the cascade immediately — a timed-out
// primary must not burn the remaining budget on fallbacks. When every
// system fails, the primary's error is returned (the most informative
// classification).
func Chain(primary Answerer, fallbacks ...Answerer) Answerer {
	return chain(append([]Answerer{primary}, fallbacks...))
}

type chain []Answerer

func (c chain) Query(ctx context.Context, question string, opts ...QueryOption) (*Result, error) {
	var firstErr error
	for _, a := range c {
		res, err := a.Query(ctx, question, opts...)
		if err == nil {
			return res, nil
		}
		if !IsUnanswerable(err) {
			return nil, err
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	if firstErr == nil {
		firstErr = ErrNoAnswer
	}
	return nil, firstErr
}
