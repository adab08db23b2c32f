package serve

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// BenchmarkPutTail measures the worst-case Put latency across a rotation
// threshold at the default rotateEvery — the number segment rotation
// exists to bound. Each iteration appends until the active segment
// rotates at least once, tracking the slowest single Put; before rotation,
// that threshold-crossing Put rewrote and fsynced the entire live set
// under the append mutex (O(resident set), stalling every queued request),
// and the benchmark measures that legacy cost directly (one synchronous
// dense rewrite of the same resident set) for comparison.
//
// Reported metrics: max-put-ns (worst observed request-path Put),
// legacy-rewrite-ns (what the old threshold-crossing Put paid), and
// speedup-x (their ratio). The committed record of the same layer is
// BENCHMARK.json's persist.put_self_us.
func BenchmarkPutTail(b *testing.B) {
	dir := b.TempDir()
	s := openTestLog(b, dir, testLog{Meta: "bench"})
	defer s.Close()

	val := strings.Repeat("v", 256)
	keys := make([]string, 16384)
	at := time.Now()
	for i := range keys {
		// Variable-length keys, like real normalized questions: fixed-width
		// zero-padded ones collapse the cache's FNV shard hash onto a few
		// residues and would shrink the resident set the legacy comparator
		// rewrites.
		keys[i] = fmt.Sprintf("what is the p%d of e%d? (variant %d)", i*7, i, i%13)
		s.Put(keys[i], Entry[string]{Val: val, OK: true, At: at})
	}

	// maxRotPut is the metric under test: the slowest Put that crossed the
	// threshold and rotated. maxPut (any Put) is reported for context —
	// it includes unrelated OS writeback stalls that predate rotation.
	var maxPut, maxRotPut, sumPut time.Duration
	puts := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Let the merger drain before each crossing (off the clock): in
		// steady state a merge finishes long before the next 16 MiB of
		// appends accumulates, and the metric under test is the work the
		// threshold-crossing Put itself performs — not disk contention
		// from background compaction, which taxed the legacy design too.
		b.StopTimer()
		deadline := time.Now().Add(30 * time.Second)
		for s.PersistStats().CacheSealedBytes != 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		b.StartTimer()
		start := s.PersistStats().CacheSegmentRotations
		for {
			before := s.PersistStats().CacheSegmentRotations
			k := keys[puts%len(keys)]
			t0 := time.Now()
			s.Put(k, Entry[string]{Val: val, OK: true, At: at})
			d := time.Since(t0)
			sumPut += d
			if d > maxPut {
				maxPut = d
			}
			puts++
			if s.PersistStats().CacheSegmentRotations != before {
				if d > maxRotPut {
					maxRotPut = d
				}
			}
			if s.PersistStats().CacheSegmentRotations != start {
				break
			}
		}
	}
	b.StopTimer()
	if err := s.Flush(); err != nil {
		b.Fatal(err)
	}

	// The legacy cost: what the pre-rotation store did to the
	// threshold-crossing Put — synchronously re-encode, rewrite and fsync
	// the whole resident set while holding the append mutex. That is one
	// more publish of the base, once the merger is idle and cannot be
	// writing it too.
	waitFor(b, 30*time.Second, func() bool { return s.PersistStats().CacheSealedBytes == 0 })
	live := s.entries()
	t0 := time.Now()
	if _, err := s.log.writeBase(live, s.Generation(), ""); err != nil {
		b.Fatal(err)
	}
	legacy := time.Since(t0)

	meanPut := sumPut / time.Duration(puts)
	b.ReportMetric(float64(maxRotPut.Nanoseconds()), "rotation-put-ns")
	b.ReportMetric(float64(maxPut.Nanoseconds()), "max-put-ns")
	b.ReportMetric(float64(meanPut.Nanoseconds()), "mean-put-ns")
	b.ReportMetric(float64(legacy.Nanoseconds()), "legacy-rewrite-ns")
	speedup := float64(legacy) / float64(maxRotPut)
	b.ReportMetric(speedup, "speedup-x")
}
