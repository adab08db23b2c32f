package serve

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// PrometheusContentType is the Content-Type of the text exposition format,
// for HTTP handlers serving WritePrometheus output.
const PrometheusContentType = "text/plain; version=0.0.4; charset=utf-8"

// family is one row of the exposition: everything the scrape surface says
// about a metric is stated here and nowhere else. A scalar family has a
// value; a shaped one (labels, histogram) writes its own sample lines. A
// nil when means always emitted.
type family struct {
	name, typ, help string
	when            func(*Snapshot) bool
	value           func(*Snapshot) float64
	samples         func(b *strings.Builder, name string, s *Snapshot)
}

func persistent(s *Snapshot) bool { return s.CachePersistent }
func clustered(s *Snapshot) bool  { return s.RPC != nil }

// families is the exposition, in emission order. Adding a metric is one
// row here plus its Snapshot field; WritePrometheus, the contract test and
// the README reference table all read this table.
var families = []family{
	{name: "kbqa_build_info", typ: "gauge", help: "Build metadata; the value is always 1.", samples: writeBuildInfo},
	{name: "kbqa_uptime_seconds", typ: "gauge", help: "Seconds since the serving runtime was constructed.",
		value: func(s *Snapshot) float64 { return s.UptimeSeconds }},
	{name: "kbqa_requests_total", typ: "counter", help: "Requests that reached the cache/engine path.",
		value: func(s *Snapshot) float64 { return float64(s.Served) }},
	{name: "kbqa_cache_hits_total", typ: "counter", help: "Requests answered straight from the answer cache.",
		value: func(s *Snapshot) float64 { return float64(s.CacheHits) }},
	{name: "kbqa_cache_misses_total", typ: "counter", help: "Requests that had to consult the flight group or engine.",
		value: func(s *Snapshot) float64 { return float64(s.CacheMisses) }},
	{name: "kbqa_cache_persist_hits_total", typ: "counter", help: "Cache hits served by entries replayed from the persistent store (answers surviving a restart).",
		value: func(s *Snapshot) float64 { return float64(s.CachePersistHits) }},
	{name: "kbqa_cache_persist_dropped_total", typ: "counter", help: "Entries kept memory-only by the persistent store (unencodable or oversized); they will not survive a restart.",
		value: func(s *Snapshot) float64 { return float64(s.CachePersistDropped) }},
	{name: "kbqa_cache_evictions_total", typ: "counter", help: "Answers removed from the cache: displaced by capacity pressure or purged on a TTL-expired read.",
		value: func(s *Snapshot) float64 { return float64(s.CacheEvictions) }},
	{name: "kbqa_cache_entries", typ: "gauge", help: "Resident answer-cache entries.",
		value: func(s *Snapshot) float64 { return float64(s.CacheEntries) }},
	{name: "kbqa_cache_generation", typ: "gauge", help: "Model swaps (Learn/LoadModel) since boot; cached answers are keyed by the model itself.",
		value: func(s *Snapshot) float64 { return float64(s.Generation) }},
	{name: "kbqa_cache_segment_rotations_total", typ: "counter", help: "Active-segment rotations: each sealed the segment in O(1) and handed it to the background merger.",
		when: persistent, value: func(s *Snapshot) float64 { return float64(s.CacheSegmentRotations) }},
	{name: "kbqa_cache_compactions_total", typ: "counter", help: "Completed compaction passes (background merges plus the boot-time compaction).",
		when: persistent, value: func(s *Snapshot) float64 { return float64(s.CacheCompactions) }},
	{name: "kbqa_cache_sealed_bytes", typ: "gauge", help: "Bytes in sealed segments awaiting background merge.",
		when: persistent, value: func(s *Snapshot) float64 { return float64(s.CacheSealedBytes) }},
	{name: "kbqa_cache_rotation_paused", typ: "gauge", help: "1 while segment rotation is paused by sealed-backlog backpressure (merger too far behind).",
		when: persistent, value: func(s *Snapshot) float64 {
			if s.CacheRotationPaused {
				return 1
			}
			return 0
		}},
	{name: "kbqa_cache_sync_age_seconds", typ: "gauge", help: "Seconds since the persistent cache's last durability point.",
		when: persistent, value: func(s *Snapshot) float64 { return s.CacheSyncAgeSeconds }},
	{name: "kbqa_deduped_total", typ: "counter", help: "Cache misses resolved by joining an in-flight leader.",
		value: func(s *Snapshot) float64 { return float64(s.Deduped) }},
	{name: "kbqa_rejected_total", typ: "counter", help: "Requests that failed on a non-panic serving error (admission/flight deadline, or engine aborted by context).",
		value: func(s *Snapshot) float64 { return float64(s.Rejected) }},
	{name: "kbqa_ratelimit_rejected_total", typ: "counter", help: "Requests refused by the per-client rate limiter before entering the serving pipeline.",
		value: func(s *Snapshot) float64 { return float64(s.RateLimitRejected) }},
	{name: "kbqa_engine_panics_total", typ: "counter", help: "Requests that surfaced a contained engine panic.",
		value: func(s *Snapshot) float64 { return float64(s.EnginePanics) }},
	{name: "kbqa_in_flight", typ: "gauge", help: "Requests currently executing.",
		value: func(s *Snapshot) float64 { return float64(s.InFlight) }},
	{name: "kbqa_rpc_calls_total", typ: "counter", help: "Calls the pool made to the index servers: one frame per read phase.",
		when: clustered, value: func(s *Snapshot) float64 { return float64(s.RPC.Calls) }},
	{name: "kbqa_rpc_hedges_total", typ: "counter", help: "Shard calls that launched a hedged second attempt on another replica because the first was slow.",
		when: clustered, value: func(s *Snapshot) float64 { return float64(s.RPC.Hedges) }},
	{name: "kbqa_rpc_failovers_total", typ: "counter", help: "Shard calls that moved to another replica after an attempt failed.",
		when: clustered, value: func(s *Snapshot) float64 { return float64(s.RPC.Failovers) }},
	{name: "kbqa_rpc_errors_total", typ: "counter", help: "Shard call attempts that failed: transport errors and frames a server refused.",
		when: clustered, value: func(s *Snapshot) float64 { return float64(s.RPC.Errors) }},
	{name: "kbqa_goroutines", typ: "gauge", help: "Goroutines at snapshot time.",
		value: func(s *Snapshot) float64 { return float64(s.Runtime.Goroutines) }},
	{name: "kbqa_heap_alloc_bytes", typ: "gauge", help: "Live heap bytes at snapshot time.",
		value: func(s *Snapshot) float64 { return float64(s.Runtime.HeapAllocBytes) }},
	{name: "kbqa_heap_sys_bytes", typ: "gauge", help: "Heap bytes obtained from the OS.",
		value: func(s *Snapshot) float64 { return float64(s.Runtime.HeapSysBytes) }},
	{name: "kbqa_gc_cycles_total", typ: "counter", help: "Completed GC cycles.",
		value: func(s *Snapshot) float64 { return float64(s.Runtime.GCCycles) }},
	{name: "kbqa_gc_pause_seconds_total", typ: "counter", help: "Cumulative GC stop-the-world pause.",
		value: func(s *Snapshot) float64 { return s.Runtime.GCPauseTotalSeconds }},
	{name: "kbqa_query_errors_total", typ: "counter", help: "Requests that returned an error, by stable code.", samples: writeErrorCodes},
	{name: "kbqa_stage_latency_seconds", typ: "histogram", help: "Pipeline-stage latency (parse/match/probe cover engine calls; total is end-to-end serving).", samples: writeStageHistograms},
}

// WritePrometheus renders a Snapshot in the Prometheus text exposition
// format (counters, gauges, and cumulative le-bucket histograms in
// seconds), the scrape-friendly sibling of the JSON snapshot: one loop
// over the families table.
func WritePrometheus(w io.Writer, s Snapshot) error {
	var b strings.Builder
	for _, f := range families {
		if f.when != nil && !f.when(&s) {
			continue
		}
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
		if f.samples != nil {
			f.samples(&b, f.name, &s)
		} else {
			fmt.Fprintf(&b, "%s %s\n", f.name, formatFloat(f.value(&s)))
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func writeBuildInfo(b *strings.Builder, name string, s *Snapshot) {
	fmt.Fprintf(b, "%s{version=%q,goversion=%q} 1\n", name, s.Version, s.GoVersion)
}

func writeErrorCodes(b *strings.Builder, name string, s *Snapshot) {
	codes := make([]string, 0, len(s.Errors))
	for code := range s.Errors {
		codes = append(codes, code)
	}
	sort.Strings(codes)
	for _, code := range codes {
		fmt.Fprintf(b, "%s{code=%q} %d\n", name, code, s.Errors[code])
	}
}

// writeStageHistograms emits the stages in a fixed order and, per stage,
// every finite bound on every scrape (an empty bucket repeats the running
// count), so the le series set never changes under a scraper. Observations
// beyond the last bound appear solely in +Inf, whose count is the total by
// construction.
func writeStageHistograms(b *strings.Builder, name string, s *Snapshot) {
	for _, stage := range []string{StageParse, StageMatch, StageProbe, StageTotal} {
		h, ok := s.Stages[stage]
		if !ok {
			continue
		}
		var cum uint64
		rest := h.Buckets // the non-empty buckets, ascending
		for i := range bucketBounds {
			le := upperBoundMillis(i)
			for len(rest) > 0 && rest[0].LEMillis <= le {
				cum += rest[0].Count
				rest = rest[1:]
			}
			fmt.Fprintf(b, "%s_bucket{stage=%q,le=%q} %d\n", name, stage, formatFloat(le/1e3), cum)
		}
		fmt.Fprintf(b, "%s_bucket{stage=%q,le=\"+Inf\"} %d\n", name, stage, h.Count)
		fmt.Fprintf(b, "%s_sum{stage=%q} %s\n", name, stage, formatFloat(float64(h.sumNanos)/1e9))
		fmt.Fprintf(b, "%s_count{stage=%q} %d\n", name, stage, h.Count)
		// The most recent traced observation links the scraped family to a
		// concrete trace in /debug/traces. Format 0.0.4 has no exemplar
		// syntax (a sample line may carry only an integer timestamp after
		// its value), so it rides a comment line of its own.
		if h.ExemplarTraceID != "" {
			fmt.Fprintf(b, "# exemplar %s{stage=%q,trace_id=%q} %s\n", name, stage, h.ExemplarTraceID, formatFloat(h.ExemplarSeconds))
		}
	}
}

// formatFloat renders a sample value or le bound without exponent notation
// (which some scrapers reject in le labels) and without trailing-zero
// noise; integral values print as integers.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'f', -1, 64)
}
