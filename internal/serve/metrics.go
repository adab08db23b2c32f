package serve

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/shardrpc"
)

// Stage names of the latency histograms, matching core.Timings attribution.
const (
	StageParse = "parse"
	StageMatch = "match"
	StageProbe = "probe"
	StageTotal = "total"
)

// StageTimings carries the engine's per-stage latencies into the metrics
// pipeline without importing internal/core (which would invert the layering
// for callers that wrap other engines).
type StageTimings struct {
	Parse time.Duration
	Match time.Duration
	Probe time.Duration
}

// numBuckets counts the bounded buckets plus one overflow bucket.
const numBuckets = 11

// bucketBounds are the histogram upper bounds, exponential-ish from 1µs to
// 1s; observations beyond the last bound land in an overflow bucket.
var bucketBounds = [numBuckets - 1]time.Duration{
	1 * time.Microsecond,
	5 * time.Microsecond,
	25 * time.Microsecond,
	100 * time.Microsecond,
	500 * time.Microsecond,
	2500 * time.Microsecond,
	10 * time.Millisecond,
	50 * time.Millisecond,
	250 * time.Millisecond,
	time.Second,
}

// histogram is a fixed-bucket latency histogram with lock-free recording;
// the total count is derived from the buckets at snapshot time.
type histogram struct {
	sumNanos atomic.Int64
	buckets  [numBuckets]atomic.Uint64
	// ex is the most recent sampled observation — the exemplar linking the
	// latency family to a concrete trace in the /debug/traces ring.
	// Last-write-wins; unsampled requests never clobber a sampled one.
	ex atomic.Pointer[stageExemplar]
}

// stageExemplar pairs one observation with the trace that produced it.
type stageExemplar struct {
	traceID string
	seconds float64
}

func (h *histogram) observe(d time.Duration) {
	h.sumNanos.Add(int64(d))
	for i, b := range bucketBounds {
		if d <= b {
			h.buckets[i].Add(1)
			return
		}
	}
	h.buckets[numBuckets-1].Add(1)
}

// observeTraced records the observation and, when the request carried a
// sampled trace, publishes it as the family's exemplar.
func (h *histogram) observeTraced(d time.Duration, traceID string) {
	h.observe(d)
	if traceID != "" {
		h.ex.Store(&stageExemplar{traceID: traceID, seconds: d.Seconds()})
	}
}

// Bucket is one histogram bucket in a snapshot: the count of observations
// at or below the upper bound (non-cumulative).
type Bucket struct {
	LEMillis float64 `json:"le_ms"`
	Count    uint64  `json:"count"`
}

// HistogramSnapshot is a point-in-time JSON-friendly view of a histogram.
// Quantiles are estimated by linear interpolation inside the target bucket;
// a quantile landing in the overflow region is clamped to the last real
// bound (and Overflow is non-zero), never interpolated against a bound
// that was never measured.
type HistogramSnapshot struct {
	Count      uint64  `json:"count"`
	MeanMillis float64 `json:"mean_ms"`
	P50Millis  float64 `json:"p50_ms"`
	P90Millis  float64 `json:"p90_ms"`
	P99Millis  float64 `json:"p99_ms"`
	// Overflow counts observations beyond the last bucket bound (1s).
	// When a reported quantile equals the last bound and Overflow > 0, the
	// true quantile lies somewhere above it.
	Overflow uint64   `json:"overflow,omitempty"`
	Buckets  []Bucket `json:"buckets,omitempty"`
	// ExemplarTraceID/ExemplarSeconds are the most recent sampled
	// observation: the trace ID to look up in /debug/traces and the latency
	// it recorded. Rendered as an "# exemplar" comment line after the
	// stage's samples; empty when no sampled request has been observed.
	ExemplarTraceID string  `json:"exemplar_trace_id,omitempty"`
	ExemplarSeconds float64 `json:"exemplar_seconds,omitempty"`
	// sumNanos is the recorded total behind the exposition's _sum sample
	// (MeanMillis × Count would re-derive it with rounding noise).
	sumNanos int64
}

func (h *histogram) snapshot() HistogramSnapshot {
	var counts [numBuckets]uint64
	var total uint64
	for i := range counts {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	snap := HistogramSnapshot{Count: total, Overflow: counts[numBuckets-1], sumNanos: h.sumNanos.Load()}
	if ex := h.ex.Load(); ex != nil {
		snap.ExemplarTraceID = ex.traceID
		snap.ExemplarSeconds = ex.seconds
	}
	if total == 0 {
		return snap
	}
	snap.MeanMillis = float64(snap.sumNanos) / float64(total) / 1e6
	snap.P50Millis = quantile(counts[:], total, 0.50)
	snap.P90Millis = quantile(counts[:], total, 0.90)
	snap.P99Millis = quantile(counts[:], total, 0.99)
	snap.Buckets = make([]Bucket, 0, len(bucketBounds))
	for i, c := range counts[:numBuckets-1] {
		if c == 0 {
			continue
		}
		snap.Buckets = append(snap.Buckets, Bucket{LEMillis: upperBoundMillis(i), Count: c})
	}
	return snap
}

// upperBoundMillis is real bucket i's upper bound in milliseconds. The
// overflow bucket has no finite bound: callers clamp to the last real
// bound (index len(bucketBounds)-1) and flag the overflow instead of
// fabricating one.
func upperBoundMillis(i int) float64 {
	if i >= len(bucketBounds) {
		i = len(bucketBounds) - 1
	}
	return float64(bucketBounds[i]) / 1e6
}

// quantile estimates the q-quantile in milliseconds from bucket counts.
// Only the bounded buckets interpolate; a target landing in the overflow
// bucket returns the last real bound — a reported floor, not an estimate —
// rather than interpolating toward a bound that was never observed.
func quantile(counts []uint64, total uint64, q float64) float64 {
	target := q * float64(total)
	var cum float64
	for i, c := range counts[:len(counts)-1] {
		if c == 0 {
			continue
		}
		lo := 0.0
		if i > 0 {
			lo = upperBoundMillis(i - 1)
		}
		hi := upperBoundMillis(i)
		if cum+float64(c) >= target {
			frac := (target - cum) / float64(c)
			return lo + frac*(hi-lo)
		}
		cum += float64(c)
	}
	return upperBoundMillis(len(bucketBounds) - 1)
}

// metrics is the runtime's self-instrumentation: cheap atomic counters and
// per-stage histograms, snapshotted on demand for the /metrics endpoint.
type metrics struct {
	served      atomic.Uint64 // requests that reached the cache/engine path
	hits        atomic.Uint64 // answered from the cache, on lookup or by a leader's re-check
	persistHits atomic.Uint64 // hits served by entries replayed from the disk store
	misses      atomic.Uint64 // not answered from the cache: joined a flight or ran the engine
	deduped     atomic.Uint64 // misses resolved by joining an in-flight leader
	rejected    atomic.Uint64 // failed on a non-panic serving error: admission/flight deadline, or an engine call aborted by its context
	rlRejected  atomic.Uint64 // requests rejected by the per-client rate limiter (counted by the layer holding the Limiter)
	panics      atomic.Uint64 // requests that surfaced a contained engine panic
	inFlight    atomic.Int64  // Ask calls currently executing

	parse histogram
	match histogram
	probe histogram
	total histogram

	// errMu guards errCodes, the labelled error counter behind
	// kbqa_query_errors_total{code=...}. Error paths are cold relative to
	// the lock-free answer counters, so a plain mutex is fine here.
	errMu    sync.Mutex
	errCodes map[string]uint64

	// start is the runtime's construction time (kbqa_uptime_seconds);
	// written once in New, before any concurrent access.
	start time.Time
}

// countHit counts a request the cache answered, by an entry replayed from
// the disk store when persisted.
func (m *metrics) countHit(persisted bool) {
	m.hits.Add(1)
	if persisted {
		m.persistHits.Add(1)
	}
}

// countError bumps the labelled error counter for a non-empty code.
func (m *metrics) countError(code string) {
	if code == "" {
		return
	}
	m.errMu.Lock()
	if m.errCodes == nil {
		m.errCodes = make(map[string]uint64)
	}
	m.errCodes[code]++
	m.errMu.Unlock()
}

func (m *metrics) observeStages(tm StageTimings, traceID string) {
	m.parse.observeTraced(tm.Parse, traceID)
	m.match.observeTraced(tm.Match, traceID)
	m.probe.observeTraced(tm.Probe, traceID)
}

// Snapshot is the JSON document served by /metrics. The counters satisfy
// CacheHits + CacheMisses == Served for all quiescent snapshots: every
// request records exactly one hit or miss. The Prometheus exposition reads
// these fields through the families table of prometheus.go.
type Snapshot struct {
	Served      uint64 `json:"served"`
	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
	// CachePersistHits counts the subset of CacheHits served by entries
	// replayed from a persistent store — answers this process never
	// computed (the kbqa_cache_persist_hits_total counter).
	CachePersistHits uint64 `json:"cache_persist_hits"`
	// CachePersistDropped counts entries a persistent store kept
	// memory-only (unencodable value or oversized record) — answers that
	// will not survive a restart.
	CachePersistDropped uint64  `json:"cache_persist_dropped,omitempty"`
	CacheEvictions      uint64  `json:"cache_evictions"`
	CacheEntries        int     `json:"cache_entries"`
	HitRate             float64 `json:"hit_rate"`
	// CachePersistent marks runtimes whose store is disk-backed; the
	// rotation/merge/sync fields below are meaningful only when set.
	CachePersistent bool `json:"cache_persistent,omitempty"`
	// CacheSegmentRotations counts active-segment rotations, each sealed
	// and made durable by the background merger before it merges
	// (kbqa_cache_segment_rotations_total).
	CacheSegmentRotations uint64 `json:"cache_segment_rotations,omitempty"`
	// CacheCompactions counts completed compaction passes: background
	// merges plus the boot-time compaction (kbqa_cache_compactions_total).
	CacheCompactions uint64 `json:"cache_compactions,omitempty"`
	// CacheSealedBytes is the size of the one sealed segment the merger is
	// merging, 0 when it is idle (kbqa_cache_sealed_bytes).
	CacheSealedBytes int64 `json:"cache_sealed_bytes,omitempty"`
	// CacheRotationPaused reports that a rotation is due while the merger
	// is still merging the previous sealed segment; the active segment
	// keeps growing until that merge completes (kbqa_cache_rotation_paused).
	CacheRotationPaused bool `json:"cache_rotation_paused,omitempty"`
	// CacheSyncAgeSeconds is the age of the persistent cache's last
	// durability point; with CacheSyncEvery set it hovers around that
	// period (kbqa_cache_sync_age_seconds).
	CacheSyncAgeSeconds float64 `json:"cache_sync_age_seconds,omitempty"`
	// Generation counts the model swaps (Learn/LoadModel) of the system
	// behind the runtime since boot. The runtime leaves it 0 and
	// kbqa.Server.Metrics fills it: answers are keyed by the model itself,
	// so the count informs operators and invalidates nothing.
	Generation uint64 `json:"generation"`
	Deduped    uint64 `json:"deduped"`
	// RateLimitRejected counts requests refused by the per-client rate
	// limiter before reaching the serving pipeline (the
	// kbqa_ratelimit_rejected_total counter). Rejected requests never
	// enter Served.
	RateLimitRejected uint64 `json:"ratelimit_rejected"`
	// Rejected counts requests that failed on a non-panic serving error:
	// gave up in admission or flight wait, or were admitted but aborted by
	// their context inside the engine. The Errors map breaks the failures
	// down by code.
	Rejected     uint64                       `json:"rejected"`
	EnginePanics uint64                       `json:"engine_panics"`
	InFlight     int64                        `json:"in_flight"`
	Stages       map[string]HistogramSnapshot `json:"stages"`
	// Errors counts requests that returned an error, labelled by stable
	// code: the serving layer's timeout/canceled/shutting_down/
	// engine_panic plus the domain codes recorded via CountError
	// (no_entity, no_template, no_answer).
	Errors map[string]uint64 `json:"errors,omitempty"`
	// UptimeSeconds is the age of the serving runtime
	// (kbqa_uptime_seconds); 0 for hand-built metrics structs.
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Version and GoVersion identify the build (kbqa_build_info).
	Version   string `json:"version"`
	GoVersion string `json:"go_version"`
	// Runtime samples the Go runtime at snapshot time: goroutines, heap
	// bytes and GC pause totals (kbqa_goroutines, kbqa_heap_alloc_bytes,
	// kbqa_gc_pause_seconds_total, ...).
	Runtime obs.RuntimeStats `json:"runtime"`
	// RPC is the shard pool's routing counters (kbqa_rpc_*_total), filled
	// by the layer that owns the pool; nil unless the KB is served by
	// shard servers.
	RPC *shardrpc.PoolStats `json:"rpc,omitempty"`
}

func (m *metrics) snapshot() Snapshot {
	s := Snapshot{
		Served:            m.served.Load(),
		CacheHits:         m.hits.Load(),
		CacheMisses:       m.misses.Load(),
		CachePersistHits:  m.persistHits.Load(),
		Deduped:           m.deduped.Load(),
		Rejected:          m.rejected.Load(),
		RateLimitRejected: m.rlRejected.Load(),
		EnginePanics:      m.panics.Load(),
		InFlight:          m.inFlight.Load(),
		Stages: map[string]HistogramSnapshot{
			StageParse: m.parse.snapshot(),
			StageMatch: m.match.snapshot(),
			StageProbe: m.probe.snapshot(),
			StageTotal: m.total.snapshot(),
		},
		Version:   obs.Version(),
		GoVersion: obs.GoVersion(),
		Runtime:   obs.ReadRuntimeStats(),
	}
	if !m.start.IsZero() {
		s.UptimeSeconds = time.Since(m.start).Seconds()
	}
	if s.Served > 0 {
		s.HitRate = float64(s.CacheHits) / float64(s.Served)
	}
	m.errMu.Lock()
	if len(m.errCodes) > 0 {
		s.Errors = make(map[string]uint64, len(m.errCodes))
		for code, n := range m.errCodes {
			s.Errors[code] = n
		}
	}
	m.errMu.Unlock()
	return s
}
