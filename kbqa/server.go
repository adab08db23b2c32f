package kbqa

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/serve"
)

// Sentinel errors of the serving runtime, for callers mapping failures to
// transport statuses.
var (
	// ErrShuttingDown is returned for requests arriving after Close.
	ErrShuttingDown = serve.ErrShuttingDown
	// ErrEnginePanic wraps a panic recovered from the engine; an internal
	// bug, not a transient failure — retries re-trigger it.
	ErrEnginePanic = serve.ErrEnginePanic
)

// ServerOptions tunes a System.Server runtime; the zero value is
// production-sensible (4096 cache entries, admission bounded at
// 4×GOMAXPROCS, no default deadline, memory-only cache, no expiry, no rate
// limit).
type ServerOptions struct {
	// CacheEntries is the total answer-cache capacity. 0 means the
	// default (4096); negative disables caching.
	CacheEntries int
	// CacheDir enables the persistent answer cache: answers are appended
	// to a checksummed segment log under the directory and replayed on the
	// next boot, so a restarted server answers its hot set from disk
	// without re-probing the engine. The active segment rotates once it
	// crosses a size threshold and a background merger compacts sealed
	// segments into a dense base, so maintenance never stalls the request
	// path. The directory is bound to the system that wrote it (flavor,
	// sizes): opening it under a different system discards the log, and
	// only the answers of the model the system runs at construction are
	// replayed. It is flock-guarded — a second server process pointed at
	// the same directory fails fast instead of corrupting it.
	CacheDir string
	// CacheTTL expires cache entries: an entry older than CacheTTL is
	// recomputed on next access (and purged from memory on the expired
	// read, so dead entries never pin cache capacity). The persistent
	// cache applies the same cutoff as a liveness filter, so expired
	// entries are dropped by background merges and boot replay instead of
	// being rewritten forever. 0 means no expiry.
	CacheTTL time.Duration
	// CacheSyncEvery is the period of the persistent cache's background
	// fsync: an answer is durable within CacheSyncEvery of being computed,
	// without waiting for Flush or shutdown. 0 means the default (1s);
	// negative disables periodic sync (durability points are then Flush,
	// Close, and segment rotations/merges). Ignored without CacheDir.
	CacheSyncEvery time.Duration
	// MaxConcurrent bounds concurrent engine calls. 0 means
	// 4×GOMAXPROCS; negative means unbounded.
	MaxConcurrent int
	// Timeout is the per-request deadline applied when the caller's
	// context has none (0 = none). The deadline is handed to the engine,
	// so expiry stops the probe loops instead of leaking the work.
	Timeout time.Duration
	// RateLimit caps each client's sustained request rate in
	// requests/second, enforced by Server.AllowN in front of admission
	// control; 0 disables rate limiting. Rejections are counted in
	// kbqa_ratelimit_rejected_total.
	RateLimit float64
	// RateBurst is the per-client burst allowance (default ⌈RateLimit⌉,
	// minimum 1).
	RateBurst int
	// TraceSampleRate is the probability in [0,1] that a request trace is
	// retained in the trace buffer regardless of duration. Setting any of
	// the three trace options builds the server's tracer; with all three
	// zero, tracing is off and requests pay nothing.
	TraceSampleRate float64
	// SlowQueryThreshold always-captures (and logs, when Logger is set)
	// traces of requests at or above this duration, independent of
	// sampling — the slow-query log. 0 disables slow capture.
	SlowQueryThreshold time.Duration
	// TraceBuffer bounds the ring of retained traces behind Server.Traces
	// and /debug/traces (default 128 once tracing is on).
	TraceBuffer int
	// Logger receives the server's structured records: slow-query
	// summaries and the persistent cache's background events (merges,
	// rotations, write errors). Nil discards them.
	Logger *Logger
}

// traceEnabled reports whether any trace option asks for a tracer.
func (o ServerOptions) traceEnabled() bool {
	return o.TraceSampleRate > 0 || o.SlowQueryThreshold > 0 || o.TraceBuffer > 0
}

// served is the cached unit of the serving runtime: either a successful
// Result or the stable code of a typed unanswerable failure. Caching the
// code (negative caching) protects the engine from repeated unanswerable
// questions just as a resident answer protects it from popular ones;
// context and infrastructure errors are never cached. The fields are
// exported (with JSON tags) because the persistent cache serializes served
// values through serve.JSONCodec, its default codec.
type served struct {
	Res  *Result `json:"res,omitempty"`
	Code string  `json:"code,omitempty"`
}

// Server is the production serving runtime around a System: a
// model-keyed answer cache (sharded LRU, optionally disk-backed so
// answers survive restarts) with singleflight deduplication, admission
// control, a per-client rate limiter, an order-preserving batch executor,
// and a self-instrumented metrics pipeline. It implements Answerer;
// cmd/kbqa-server is a thin HTTP shell over it.
type Server struct {
	sys     *System
	rt      *serve.Runtime[served]
	limiter *serve.Limiter
	tracer  *obs.Tracer // nil when tracing is off
}

// Server wraps the system in a serving runtime. The system may be
// retrained (Learn, LoadModel) while serving: every request reads the
// system's published engine once, keys the cache with that engine's
// content tag and computes with that same engine, so queries in flight
// finish on the engine they started with and no query starting after a
// swap is served an answer the old model computed — unless the new model
// is the same one, whose answers stay warm. The only error paths are the
// persistence options (an unopenable CacheDir, or CacheDir combined with
// disabled caching).
func (s *System) Server(o ServerOptions) (*Server, error) {
	sv := &Server{sys: s}
	if o.traceEnabled() {
		sv.tracer = obs.NewTracer(obs.Options{
			Capacity:      o.TraceBuffer,
			SampleRate:    o.TraceSampleRate,
			SlowThreshold: o.SlowQueryThreshold,
			Logger:        o.Logger,
		})
	}
	ro := serve.Options[served]{
		CacheEntries:  o.CacheEntries,
		TTL:           o.CacheTTL,
		MaxConcurrent: o.MaxConcurrent,
		Timeout:       o.Timeout,
		// Weight answers by their interpretation count, so a big top-K
		// result pays for the cache room it occupies instead of evicting
		// many single-answer entries one-for-one. Negative entries weigh
		// the minimum.
		Weigh: func(a served) int {
			if a.Res == nil || len(a.Res.Interpretations) < 2 {
				return 1
			}
			return len(a.Res.Interpretations)
		},
	}
	if o.CacheDir == "" {
		sv.rt = serve.New(ro)
	} else {
		sync := o.CacheSyncEvery
		if sync == 0 {
			sync = time.Second
		}
		rt, err := serve.Open(ro, serve.LogOptions[served]{
			Dir:       o.CacheDir,
			Meta:      s.cacheMeta(),
			ModelTag:  s.cur.Load().tag,
			SyncEvery: sync, // negative: no periodic sync
			Log:       o.Logger,
			Tracer:    sv.tracer,
		})
		if err != nil {
			return nil, fmt.Errorf("kbqa: open persistent answer cache: %w", err)
		}
		sv.rt = rt
	}
	if o.RateLimit > 0 {
		sv.limiter = serve.NewLimiter(o.RateLimit, o.RateBurst)
	}
	return sv, nil
}

// cacheMeta fingerprints the world a persistent cache directory belongs
// to, so a segment written by one system is never replayed into another
// (different flavor, seed or scale ⇒ different meta ⇒ the segment is
// discarded at open). Learned state is deliberately excluded — the model's
// identity leads every cache key instead (online.tag).
func (s *System) cacheMeta() string {
	st := s.Stats()
	return fmt.Sprintf("%s|e%d|t%d|p%d|c%d", st.Flavor, st.Entities, st.Triples, st.Predicates, st.CorpusSize)
}

// compute builds the serving-layer engine function for one engine and one
// resolved option set: typed unanswerable failures become cacheable
// negative entries, while context and infrastructure errors propagate
// uncached. Callers key the call with cfg.fingerprint of the same
// published state whose engine they pass, so the key always names the
// model that computes the answer. It is small enough to inline, which
// keeps the closure off the heap on the cache-hit path.
func compute(eng *core.Engine, cfg queryConfig) serve.AskFunc[served] {
	return func(ctx context.Context, question string) (served, serve.StageTimings, bool, error) {
		res, tm, err := query(ctx, eng, question, cfg)
		st := serve.StageTimings{Parse: tm.Parse, Match: tm.Match, Probe: tm.Probe}
		if err != nil {
			if IsUnanswerable(err) {
				return served{Code: ErrorCode(err)}, st, false, nil
			}
			return served{}, st, false, err
		}
		return served{Res: res}, st, true, nil
	}
}

// Query answers one question through the cache → singleflight → admission
// → engine pipeline, implementing Answerer. The cache and deduplication
// key is (model tag, options fingerprint, normalized question), so the same
// question under different options or models never shares a result. Errors are the same
// typed set as System.Query plus the serving-layer sentinels
// (ErrShuttingDown, ErrEnginePanic, deadline errors from queueing).
//
// The returned Result may be shared with concurrent callers via the
// answer cache: treat it as read-only. Its Timings describe the
// computation that produced it, which a cache hit skips.
func (sv *Server) Query(ctx context.Context, question string, opts ...QueryOption) (*Result, error) {
	cfg := newQueryConfig(opts)
	ctx, cancel := cfg.arm(ctx)
	defer cancel()
	ctx, finish := sv.startTrace(ctx, "kbqa.query", question)
	defer finish()
	cur := sv.sys.cur.Load()
	out, ok, err := sv.rt.Do(ctx, question, cfg.fingerprint(cur.tag), compute(cur.engine, cfg))
	if err != nil {
		return nil, err
	}
	if !ok {
		sv.rt.CountError(out.Code)
		return nil, errorFromCode(out.Code)
	}
	return stampTraceID(out.Res, ctx), nil
}

// startTrace opens a server-rooted trace when the server has a tracer and
// the caller did not bring one (an HTTP middleware's trace, carried in
// ctx, wins — the server then only contributes spans). The returned finish
// must be called when the request completes; it is a no-op when no trace
// was started here.
func (sv *Server) startTrace(ctx context.Context, name, question string) (context.Context, func()) {
	noop := func() {}
	if sv.tracer == nil || obs.ActiveSpan(ctx) != nil {
		return ctx, noop
	}
	tctx, trace := sv.tracer.Start(ctx, name)
	if trace == nil {
		return ctx, noop
	}
	trace.Root().SetAttr("question", question)
	return tctx, trace.Finish
}

// stampTraceID returns res carrying exactly the context's trace ID — the
// request's own, or none when the request is untraced. It is the one place
// a reply gets its ID: Results enter the cache without one (and an entry
// persisted by an older build that did carry one is cleared here). Cached
// Results are shared between concurrent callers and must stay read-only,
// so a differing ID is stamped onto a shallow copy, never in place.
func stampTraceID(res *Result, ctx context.Context) *Result {
	tid := obs.TraceID(ctx)
	if res == nil || res.TraceID == tid {
		return res
	}
	r2 := *res
	r2.TraceID = tid
	return &r2
}

// BatchResult is one slot of a QueryBatch reply, aligned with the input
// order. Exactly one of Result and Err is set.
type BatchResult struct {
	Question string
	Result   *Result
	Err      error
}

// QueryBatch answers a slice of questions concurrently over a bounded
// worker pool, preserving input order; every question is answered under
// the same options. Each question goes through the full serving pipeline,
// so duplicates inside one batch cost one engine call.
func (sv *Server) QueryBatch(ctx context.Context, questions []string, opts ...QueryOption) []BatchResult {
	cfg := newQueryConfig(opts)
	ctx, cancel := cfg.arm(ctx) // bounds the whole batch, queueing included
	defer cancel()
	ctx, finish := sv.startTrace(ctx, "kbqa.batch", fmt.Sprintf("[batch of %d]", len(questions)))
	defer finish()
	cur := sv.sys.cur.Load()
	items := sv.rt.DoBatch(ctx, questions, cfg.fingerprint(cur.tag), compute(cur.engine, cfg))
	out := make([]BatchResult, len(items))
	for i, it := range items {
		br := BatchResult{Question: it.Question, Err: it.Err}
		if it.Err == nil {
			if it.OK {
				br.Result = stampTraceID(it.Answer.Res, ctx)
			} else {
				sv.rt.CountError(it.Answer.Code)
				br.Err = errorFromCode(it.Answer.Code)
			}
		}
		out[i] = br
	}
	return out
}

// Metrics snapshots the serving runtime's counters and latency histograms,
// the system's model swaps since boot and, when the KB is served by shard
// servers, the pool's routing counters.
func (sv *Server) Metrics() ServerMetrics {
	m := sv.rt.Metrics()
	m.Generation = sv.Generation()
	if sv.sys.pool != nil {
		st := sv.sys.pool.Stats()
		m.RPC = &st
	}
	return m
}

// WriteMetricsPrometheus renders the same snapshot in the Prometheus text
// exposition format (kbqa_-prefixed counters, gauges and cumulative
// histograms, with kbqa_query_errors_total labelled by error code);
// PrometheusContentType is the matching Content-Type.
func (sv *Server) WriteMetricsPrometheus(w io.Writer) error {
	return serve.WritePrometheus(w, sv.Metrics())
}

// PrometheusContentType is the Content-Type of WriteMetricsPrometheus
// output.
const PrometheusContentType = serve.PrometheusContentType

// Tracer returns the server's request tracer, nil when tracing is off.
// Hand it to HTTP middleware that wants to root traces itself (and set
// X-Kbqa-Trace); Server.Query joins a caller-started trace instead of
// opening its own.
func (sv *Server) Tracer() *Tracer { return sv.tracer }

// Traces returns the retained request traces, newest first — the
// /debug/traces payload. Empty when tracing is off.
func (sv *Server) Traces() []TraceSnapshot { return sv.tracer.Snapshot() }

// FindTrace returns the retained trace with the given ID, if the bounded
// ring still holds it; a miss means the trace was never retained (not
// sampled, not slow) or has since been evicted.
func (sv *Server) FindTrace(id string) (TraceSnapshot, bool) { return sv.tracer.Find(id) }

// Generation counts the wrapped system's model swaps (Learn, LoadModel)
// since it was built; it starts at 0 on every boot, CacheDir or not.
func (sv *Server) Generation() uint64 { return sv.sys.cur.Load().swaps }

// WarmFromCorpus primes the answer cache at boot by answering qs through
// the full serving pipeline under the given options — the paper's cheap
// online phase paid once, ahead of traffic. Questions already resident
// (replayed from CacheDir, say) cost nothing. It reports how many of qs
// ended resident; positive and negative answers both warm the cache, while
// context and infrastructure failures don't. With caching disabled there
// is nothing to warm: it returns 0 without touching the engine.
func (sv *Server) WarmFromCorpus(ctx context.Context, qs []string, opts ...QueryOption) (warmed int) {
	cfg := newQueryConfig(opts)
	ctx, cancel := cfg.arm(ctx)
	defer cancel()
	cur := sv.sys.cur.Load()
	return sv.rt.Warm(ctx, qs, cfg.fingerprint(cur.tag), compute(cur.engine, cfg))
}

// AllowN applies the per-client rate limit (ServerOptions.RateLimit) to a
// request worth n quota units from the given client key — an API key, a
// remote address, whatever identifies a caller. A batch of n questions is
// charged n, so batching cannot out-run the per-client rate (see
// serve.Limiter.AllowN for the debt semantics). ok=false means the request
// must be refused (HTTP 429) and retryAfter is the Retry-After hint;
// rejections bump kbqa_ratelimit_rejected_total. With no rate limit
// configured every request is allowed.
func (sv *Server) AllowN(client string, n int) (ok bool, retryAfter time.Duration) {
	if sv.limiter == nil {
		return true, 0
	}
	ok, retryAfter = sv.limiter.AllowN(client, n, time.Now())
	if !ok {
		sv.rt.CountRateLimited()
	}
	return ok, retryAfter
}

// Flush forces buffered persistent-cache writes to disk without closing
// the server; a no-op for memory-only servers.
func (sv *Server) Flush() error { return sv.rt.Flush() }

// Close puts the server into shutdown: subsequent calls fail fast while
// in-flight requests drain to completion, after which pending
// persistent-cache writes are flushed and the cache closed. The error is
// the flush/close outcome (always nil for memory-only servers).
func (sv *Server) Close() error { return sv.rt.Close() }

// answerFromCore converts the engine's answer to the public shape.
func answerFromCore(ans core.Answer) Answer {
	out := Answer{
		Value:     ans.Value,
		Values:    ans.Values,
		Predicate: ans.Path,
		Template:  ans.Template,
		Score:     ans.Score,
	}
	for _, st := range ans.Steps {
		out.Steps = append(out.Steps, Step{
			Question:  st.Question,
			Questions: st.Questions,
			Template:  st.Template,
			Predicate: st.Path,
			Value:     st.Value,
		})
	}
	return out
}

// ServerMetrics is the JSON document behind the server's /metrics
// endpoint. CacheHits + CacheMisses == Served in every quiescent snapshot:
// each request records exactly one of the two. The aliases expose the
// runtime's snapshot types directly so the public view cannot drift from
// the runtime's instrumentation.
type ServerMetrics = serve.Snapshot

// StageMetrics is the latency histogram of one pipeline stage (parse,
// match, probe, or total), in milliseconds.
type StageMetrics = serve.HistogramSnapshot

// StageBucket is one histogram bucket: observations at or below the upper
// bound (non-cumulative).
type StageBucket = serve.Bucket
