// Package serve is the production serving runtime of the KBQA
// reproduction: a read-optimized layer in front of the online engine. The
// paper splits KBQA into an expensive offline learning phase and a cheap
// online answering phase (Sec 1); this package is what makes the online
// phase survive heavy concurrent traffic without touching the engine:
//
//   - a fingerprint-keyed answer cache: one in-memory sharded LRU, the
//     source of truth every lookup is served from. Every entry is keyed by
//     (fingerprint, normalized question), and the caller leads the
//     fingerprint with the identity of the model that computes the answer,
//     so a new model reads a fresh keyspace without a stop-the-world flush;
//   - an optional write-behind disk log (Open) that makes that cache
//     survive restarts: computed answers are appended to checksummed
//     segment files, read back only at the next open and compacted in the
//     background from a snapshot of memory;
//   - TTL expiry (Options.TTL) and boot-time warming (Warm);
//   - singleflight deduplication, so a thundering herd of identical
//     questions costs one engine call;
//   - admission control bounding concurrent engine calls, plus
//     per-request deadlines that are handed to the engine itself (the
//     context reaches the probe loops, so an expired request stops
//     working instead of leaking a goroutine's worth of scan);
//   - a per-client token-bucket rate limiter (Limiter) for quota
//     enforcement in front of admission control;
//   - a bounded-worker batch executor that fans a question slice across
//     goroutines while preserving input order;
//   - a metrics pipeline (per-stage latency histograms, cache hit rate,
//     persist-hit and rate-limit counters, in-flight gauge, labelled
//     error-code counters) snapshotted as JSON or rendered in Prometheus
//     text exposition format.
//
// The runtime is generic over the answer type so it layers over
// kbqa.System without an import cycle, and over any Query-shaped engine.
package serve

import (
	"context"
	"errors"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/text"
)

// AskFunc is the engine call the runtime wraps, handed to Do, DoBatch and
// Warm per request: it answers one question under a context, reporting
// per-stage latencies for the metrics pipeline. ok is the domain-level "has
// an answer" flag and is cached (negatively too); a non-nil error is an
// infrastructure failure — typically ctx.Err() surfaced from the engine's
// probe loops — and is never cached.
type AskFunc[A any] func(ctx context.Context, question string) (A, StageTimings, bool, error)

// ErrShuttingDown is returned for requests arriving after Close.
var ErrShuttingDown = errors.New("serve: runtime shutting down")

// ErrEnginePanic wraps a panic recovered from the engine inside a flight;
// callers should surface it as an internal error, not a transient one —
// retrying the same question re-triggers the panic.
var ErrEnginePanic = errors.New("serve: engine panic")

// Stable error-code labels of the serving layer, the values of the
// kbqa_query_errors_total{code=...} counter. Layers above register their
// own domain codes through Runtime.CountError.
const (
	CodeTimeout      = "timeout"
	CodeCanceled     = "canceled"
	CodeShuttingDown = "shutting_down"
	CodeEnginePanic  = "engine_panic"
	CodeInternal     = "internal"
)

// ErrorCode maps a serving-layer error to its stable label ("" for nil).
func ErrorCode(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, context.DeadlineExceeded):
		return CodeTimeout
	case errors.Is(err, context.Canceled):
		return CodeCanceled
	case errors.Is(err, ErrShuttingDown):
		return CodeShuttingDown
	case errors.Is(err, ErrEnginePanic):
		return CodeEnginePanic
	default:
		return CodeInternal
	}
}

// Options tunes the runtime; the zero value is production-sensible.
type Options[A any] struct {
	// CacheEntries is the total cache capacity in answers. 0 means the
	// default (4096); negative disables caching entirely. It also bounds
	// the disk log in steady state: compaction keeps resident entries only,
	// so the log converges on the in-memory working set rather than every
	// key ever asked.
	CacheEntries int
	// TTL bounds an entry's lifetime: entries older than TTL are treated
	// as misses and recomputed in place; the disk log drops them at
	// compaction and replay instead of rewriting them forever. 0 means no
	// expiry.
	TTL time.Duration
	// MaxConcurrent bounds concurrent engine calls (admission control).
	// 0 means 4×GOMAXPROCS; negative means unbounded. Excess callers
	// queue until a slot frees or their deadline expires.
	MaxConcurrent int
	// Timeout is the per-request deadline applied when the caller's
	// context has none. 0 means no default deadline.
	Timeout time.Duration
	// Weigh is the cache-admission weighing function: an entry costs
	// Weigh(answer) capacity units (floored at 1), so one giant answer — a
	// top-K result with many interpretations — competes for the same budget
	// as the many small entries it would otherwise displace one-for-one.
	// Nil weighs every entry 1, the classic entry-count LRU.
	Weigh func(A) int
}

// cacheShards is the number of independently locked answer-cache shards.
const cacheShards = 16

// Runtime is a concurrent serving layer in front of an engine. All methods
// are safe for concurrent use.
type Runtime[A any] struct {
	opts    Options[A]
	cache   *answerCache[A] // nil when caching is disabled
	disk    *diskLog[A]     // nil when the cache is memory-only
	flight  flightGroup[A]
	sem     chan struct{} // nil when unbounded
	metrics metrics
	// batchWorkers sizes DoBatch's worker pool.
	batchWorkers int

	// closeMu guards isClosed so wg.Add never races wg.Wait: a request
	// registers with the drain group only while holding the read lock and
	// the runtime is open, and Close flips isClosed under the write lock —
	// so every registration either completes before Close observes the
	// flag set or sees it and fails fast. Requests share the read lock, so
	// the hot path stays parallel.
	closeMu   sync.RWMutex
	isClosed  bool
	wg        sync.WaitGroup
	closeOnce sync.Once
	closeErr  error
}

// New builds a runtime with a memory-only answer cache; Open adds the disk
// log.
func New[A any](o Options[A]) *Runtime[A] {
	r := &Runtime[A]{batchWorkers: runtime.GOMAXPROCS(0)}
	if o.CacheEntries == 0 {
		o.CacheEntries = 4096
	}
	if o.CacheEntries > 0 {
		r.cache = newAnswerCache[A](cacheShards, o.CacheEntries)
	}
	if o.MaxConcurrent == 0 {
		o.MaxConcurrent = 4 * runtime.GOMAXPROCS(0)
	}
	if o.MaxConcurrent > 0 {
		r.sem = make(chan struct{}, o.MaxConcurrent)
	}
	r.opts = o
	r.metrics.start = time.Now()
	return r
}

// Open builds a runtime whose answer cache survives restarts: the cache is
// refilled from the segment log under lo.Dir — only entries whose key
// starts with lo.ModelTag — and from then on every computed answer is
// appended to it. Close drains in-flight requests, then flushes and closes
// the log. It fails when caching is disabled, or the directory is unusable
// or held by another process.
func Open[A any](o Options[A], lo LogOptions[A]) (*Runtime[A], error) {
	r := New(o)
	if r.cache == nil {
		return nil, errors.New("serve: a persistent cache needs caching enabled (CacheEntries >= 0)")
	}
	disk, err := openDiskLog(r.cache, o.TTL, lo)
	if err != nil {
		return nil, err
	}
	r.disk = disk
	return r, nil
}

// fingerprintSep joins the fingerprint and the normalized question in the
// cache key; it is an information separator no normalizer emits.
const fingerprintSep = "\x1f"

// cacheKey assembles the full cache/deduplication key. The fingerprint
// leads, so the disk log can tell at replay which model an entry belongs to
// by its prefix alone (LogOptions.ModelTag).
func cacheKey(fingerprint, normalized string) string {
	return fingerprint + fingerprintSep + normalized
}

// begin registers a request with the drain group; false means the runtime
// is shutting down.
func (r *Runtime[A]) begin() bool {
	r.closeMu.RLock()
	defer r.closeMu.RUnlock()
	if r.isClosed {
		return false
	}
	r.wg.Add(1)
	return true
}

// fresh reports whether a resident entry is inside its TTL.
func (r *Runtime[A]) fresh(e Entry[A]) bool {
	return r.opts.TTL <= 0 || time.Since(e.At) <= r.opts.TTL
}

// Do answers one question through the cache → singleflight → admission →
// engine pipeline, keyed by (fingerprint, normalized question). compute is
// the engine call for this request; whatever it closes over that shapes the
// answer — the model it runs, the per-request options — MUST be encoded into
// fingerprint, so answers of different models or options never share a
// cache entry or a flight. Put the model's identity first: a new model then
// misses, the same model after a swap back hits, and the disk log keeps
// exactly its entries across a restart. The question half of the key is
// text.Normalize(question), so trivially restyled questions share an entry.
//
// ok mirrors the engine's "has an answer" flag; err is non-nil for
// serving-layer failures (deadline exceeded while queued or waiting,
// runtime closed, an engine panic contained as ErrEnginePanic) and for
// errors returned by compute itself (context expiry inside the engine) —
// never for unanswerable questions. Compute errors are not cached.
func (r *Runtime[A]) Do(ctx context.Context, question, fingerprint string, compute AskFunc[A]) (ans A, ok bool, err error) {
	if !r.begin() {
		r.metrics.countError(CodeShuttingDown)
		var zero A
		return zero, false, ErrShuttingDown
	}
	defer r.wg.Done()
	r.metrics.inFlight.Add(1)
	// The trace ID (empty for untraced requests) rides along into the
	// latency histograms as their exemplar, linking a scraped bucket to a
	// concrete trace in the /debug/traces ring.
	traceID := obs.TraceID(ctx)
	start := time.Now()
	defer func() {
		r.metrics.total.observeTraced(time.Since(start), traceID)
		r.metrics.inFlight.Add(-1)
		if err != nil {
			r.metrics.countError(ErrorCode(err))
		}
	}()

	key := cacheKey(fingerprint, text.Normalize(question))
	r.metrics.served.Add(1)
	if r.cache != nil {
		_, csp := obs.StartSpan(ctx, "serve.cache")
		e, hit := r.cache.Get(key)
		if csp != nil {
			csp.SetAttr("hit", strconv.FormatBool(hit && r.fresh(e)))
			csp.End()
		}
		if hit {
			if r.fresh(e) {
				r.metrics.hits.Add(1)
				if e.Persisted {
					r.metrics.persistHits.Add(1)
				}
				return e.Val, e.OK, nil
			}
			// Expired: free the slot now instead of letting the dead entry
			// pin LRU capacity until ordinary eviction displaces it; the
			// cache counts the purge as an eviction. (A concurrent flight
			// may have just refreshed the key, in which case this deletes
			// a fresh entry — a spare recompute later, never a wrong
			// answer.)
			r.cache.Delete(key)
		}
	}
	r.metrics.misses.Add(1)

	// The engine path is the only consumer of the deadline, so the
	// timer is set up after the cache hit fast-path.
	if r.opts.Timeout > 0 {
		if _, has := ctx.Deadline(); !has {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, r.opts.Timeout)
			defer cancel()
		}
	}

	for {
		// The flight span covers both roles: a leader runs the closure
		// inside it (so admit/engine/persist nest under it), a follower
		// records the join wait; the shared attribute tells them apart.
		fctx, fsp := obs.StartSpan(ctx, "serve.flight")
		val, okAns, shared, err := r.flight.do(fctx, key, func() (A, bool, error) {
			// A flight for this key may have completed between the miss
			// and this leader starting; don't redo resident work.
			if r.cache != nil {
				if e, hit := r.cache.Get(key); hit && r.fresh(e) {
					return e.Val, e.OK, nil
				}
			}
			_, asp := obs.StartSpan(fctx, "serve.admit")
			release, err := r.admit(fctx)
			asp.End()
			if err != nil {
				var zero A
				return zero, false, err
			}
			defer release()
			if err := fctx.Err(); err != nil {
				var zero A
				return zero, false, err
			}
			ectx, esp := obs.StartSpan(fctx, "serve.engine")
			a, tm, okAns, err := compute(ectx, question)
			esp.End()
			if err != nil {
				// An engine that died on its context (or any other
				// infrastructure failure) produced no answer worth
				// keeping: propagate without caching.
				var zero A
				return zero, false, err
			}
			r.metrics.observeStages(tm, traceID)
			if r.cache != nil {
				_, psp := obs.StartSpan(fctx, "serve.persist")
				ent := Entry[A]{Val: a, OK: okAns, At: time.Now()}
				if r.opts.Weigh != nil {
					ent.Weight = r.opts.Weigh(a)
				}
				r.cache.Put(key, ent)
				if r.disk != nil {
					r.disk.put(key, ent)
				}
				psp.End()
			}
			return a, okAns, nil
		})
		if fsp != nil {
			fsp.SetAttr("shared", strconv.FormatBool(shared))
			fsp.End()
		}
		if err != nil {
			// A shared context error is the leader's, produced by the
			// leader's own deadline; a follower whose context is still
			// live retries as (or behind) a fresh leader rather than
			// failing on someone else's budget. Non-context leader
			// errors (engine panics) propagate as-is.
			if shared && ctx.Err() == nil &&
				(errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)) {
				// A parallel flight may have answered and cached the
				// question while this follower was waiting; don't pay
				// another engine call for a resident answer. The request
				// stays accounted as its original miss.
				if r.cache != nil {
					if e, hit := r.cache.Get(key); hit && r.fresh(e) {
						return e.Val, e.OK, nil
					}
				}
				continue
			}
			if errors.Is(err, ErrEnginePanic) {
				r.metrics.panics.Add(1)
			} else {
				r.metrics.rejected.Add(1)
			}
			var zero A
			return zero, false, err
		}
		if shared {
			r.metrics.deduped.Add(1)
		}
		return val, okAns, nil
	}
}

// Warm primes the answer cache at boot by pushing qs through the full
// serving pipeline over the batch worker pool, under the same fingerprint
// and compute as real traffic so primed entries share its keys; questions
// already resident (for example replayed from the disk log) cost nothing.
// It reports how many of qs ended resident — positive and negative answers
// both warm the cache; context and infrastructure failures don't. With
// caching disabled there is nothing to warm: the engine is not touched and
// 0 is returned.
func (r *Runtime[A]) Warm(ctx context.Context, qs []string, fingerprint string, compute AskFunc[A]) (warmed int) {
	if r.cache == nil {
		return 0
	}
	for _, it := range r.DoBatch(ctx, qs, fingerprint, compute) {
		if it.Err == nil {
			warmed++
		}
	}
	return warmed
}

// CountError bumps the labelled error-code counter surfaced in Snapshot
// and the Prometheus exposition. The runtime records its own serving-layer
// codes; layers above record their domain codes (e.g. the typed
// no-entity / no-template / no-answer failures) through this hook.
func (r *Runtime[A]) CountError(code string) {
	if code != "" {
		r.metrics.countError(code)
	}
}

// CountRateLimited bumps the kbqa_ratelimit_rejected_total counter; the
// rate-limiting layer (Limiter sits in front of the runtime, where the
// client identity lives) records its rejections here so they surface in
// the same snapshot as everything else.
func (r *Runtime[A]) CountRateLimited() {
	r.metrics.rlRejected.Add(1)
}

// admit takes an engine slot, blocking until one frees or ctx expires.
func (r *Runtime[A]) admit(ctx context.Context) (release func(), err error) {
	if r.sem == nil {
		return func() {}, nil
	}
	select {
	case r.sem <- struct{}{}:
		return func() { <-r.sem }, nil
	default:
	}
	select {
	case r.sem <- struct{}{}:
		return func() { <-r.sem }, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Metrics returns a point-in-time snapshot of the runtime's counters and
// latency histograms.
func (r *Runtime[A]) Metrics() Snapshot {
	s := r.metrics.snapshot()
	if r.cache != nil {
		s.CacheEvictions = r.cache.Evictions()
		s.CacheEntries = r.cache.Len()
	}
	if r.disk != nil {
		r.disk.fill(&s)
	}
	return s
}

// Flush forces buffered persistent writes down to durable storage without
// closing the runtime; a no-op for memory-only runtimes.
func (r *Runtime[A]) Flush() error {
	if r.disk == nil {
		return nil
	}
	return r.disk.flush()
}

// Close puts the runtime into shutdown: requests arriving after Close fail
// fast with ErrShuttingDown, while requests already in flight — including
// singleflight computations — drain to completion. Once drained, buffered
// persistent writes are flushed and the disk log is closed, so an answer
// computed by an in-flight request is never lost to the shutdown race.
// Close is idempotent and returns the log's flush/close error (always nil
// for memory-only runtimes).
func (r *Runtime[A]) Close() error {
	r.closeOnce.Do(func() {
		r.closeMu.Lock()
		r.isClosed = true
		r.closeMu.Unlock()
		r.wg.Wait()
		if r.disk != nil {
			r.closeErr = r.disk.close()
		}
	})
	return r.closeErr
}
