package serve

import (
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/shardrpc"
)

var promFamilyName = regexp.MustCompile(`^kbqa_[a-z0-9_]+$`)

// goldenSnapshot is the fixed Snapshot whose exposition was captured from
// the commit before the families table existed
// (testdata/metrics_golden.prom, histogram sample lines left out).
func goldenSnapshot() Snapshot {
	return Snapshot{
		Served: 1234, CacheHits: 1000, CacheMisses: 234, CachePersistHits: 17, CachePersistDropped: 2,
		CacheEvictions: 45, CacheEntries: 256, HitRate: 0.81, CachePersistent: true,
		CacheSegmentRotations: 3, CacheCompactions: 2, CacheSealedBytes: 65536, CacheRotationPaused: true,
		CacheSyncAgeSeconds: 0.75, Generation: 4, Deduped: 9, RateLimitRejected: 6, Rejected: 5,
		EnginePanics: 1, InFlight: 3,
		Stages: map[string]HistogramSnapshot{
			StageTotal: {Count: 3, MeanMillis: 2, Buckets: []Bucket{{LEMillis: 0.5, Count: 1}, {LEMillis: 2.5, Count: 2}}},
		},
		Errors:        map[string]uint64{"no_answer": 7, "timeout": 2},
		UptimeSeconds: 12.5, Version: "v-test", GoVersion: "go1.test",
		Runtime: obs.RuntimeStats{Goroutines: 11, HeapAllocBytes: 4194304, HeapSysBytes: 8388608, GCCycles: 8, GCPauseTotalSeconds: 0.0125},
	}
}

func exposition(t *testing.T, s Snapshot) []string {
	t.Helper()
	var b strings.Builder
	if err := WritePrometheus(&b, s); err != nil {
		t.Fatal(err)
	}
	return strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n")
}

// TestMetricFamilyContract pins the scrape surface to the families table:
// what is emitted is exactly the rows whose when holds, every line is valid
// text format 0.0.4, the series set does not depend on traffic, the README
// reference documents the same rows, and nothing but the histogram lines
// moved relative to the pre-table exposition.
func TestMetricFamilyContract(t *testing.T) {
	seen := map[string]bool{}
	for _, f := range families {
		if !promFamilyName.MatchString(f.name) {
			t.Errorf("family name %q does not match %s", f.name, promFamilyName)
		}
		if seen[f.name] {
			t.Errorf("family %s has two rows", f.name)
		}
		seen[f.name] = true
		if (f.value == nil) == (f.samples == nil) {
			t.Errorf("family %s needs exactly one of value and samples", f.name)
		}
	}

	// Traffic: one traced request per stage, so every histogram carries an
	// exemplar and non-empty buckets.
	var m metrics
	idle := m.snapshot()
	m.observeStages(StageTimings{Parse: 3 * time.Microsecond, Match: 40 * time.Microsecond, Probe: 3 * time.Millisecond}, "trace-abc")
	m.total.observeTraced(4*time.Millisecond, "trace-abc")
	memory := m.snapshot()
	persistent, cluster := memory, memory
	persistent.CachePersistent = true
	cluster.RPC = &shardrpc.PoolStats{Calls: 9, Hedges: 1, Failovers: 2, Errors: 3}
	shapes := []struct {
		name string
		snap Snapshot
	}{{"memory-only", memory}, {"persistent", persistent}, {"cluster", cluster}}

	emittedIn := map[string][]string{} // family → shapes that emit it
	for _, shape := range shapes {
		var want, got []string
		for _, f := range families {
			if f.when == nil || f.when(&shape.snap) {
				want = append(want, f.name)
				emittedIn[f.name] = append(emittedIn[f.name], shape.name)
			}
		}
		for _, line := range exposition(t, shape.snap) {
			switch {
			case strings.HasPrefix(line, "# TYPE "):
				got = append(got, strings.Fields(line)[2])
			case strings.HasPrefix(line, "# "):
			case !sampleLine.MatchString(line):
				t.Errorf("%s: not a text-format 0.0.4 sample line: %q", shape.name, line)
			}
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s: # TYPE families\n got %v\nwant %v", shape.name, got, want)
		}
	}
	if !strings.Contains(strings.Join(exposition(t, cluster), "\n"), "\nkbqa_rpc_failovers_total 2\n") {
		t.Error("cluster shape does not render the pool's failover count")
	}

	// The le series set is the same before and after traffic.
	les := func(s Snapshot) (out []string) {
		for _, line := range exposition(t, s) {
			if strings.Contains(line, `,le="`) {
				out = append(out, line[:strings.Index(line, " ")])
			}
		}
		return out
	}
	if before, after := les(idle), les(memory); !slices.Equal(before, after) || len(before) != 4*numBuckets {
		t.Errorf("le series changed with traffic:\nidle   %v\nloaded %v", before, after)
	}

	// _sum comes from the recorded nanoseconds, not mean × count.
	var odd metrics
	odd.total.observe(12963 * time.Nanosecond)
	if want := `kbqa_stage_latency_seconds_sum{stage="total"} 0.000012963`; !slices.Contains(exposition(t, odd.snapshot()), want) {
		t.Errorf("exposition missing %q", want)
	}

	// Golden: every non-histogram line of a fixed Snapshot, byte for byte.
	golden, err := os.ReadFile("testdata/metrics_golden.prom")
	if err != nil {
		t.Fatal(err)
	}
	var kept []string
	for _, line := range exposition(t, goldenSnapshot()) {
		if !strings.HasPrefix(line, "kbqa_stage_latency_seconds_") {
			kept = append(kept, line)
		}
	}
	if got := strings.Join(kept, "\n") + "\n"; got != string(golden) {
		t.Errorf("non-histogram exposition moved from testdata/metrics_golden.prom:\n%s", got)
	}

	// README: one reference row per family, same type, help and condition.
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	emitted := map[string]string{
		"memory-only,persistent,cluster": "always",
		"persistent":                     "with `-cache-dir`",
		"cluster":                        "with `-shard-servers`",
	}
	var want []string
	for _, f := range families {
		want = append(want, "| `"+f.name+"` | "+f.typ+" | "+f.help+" | "+emitted[strings.Join(emittedIn[f.name], ",")]+" |")
	}
	var got []string
	for _, line := range strings.Split(string(readme), "\n") {
		if strings.HasPrefix(line, "| `kbqa_") {
			got = append(got, line)
		}
	}
	if !slices.Equal(got, want) {
		t.Errorf("README metric reference is not the families table; want these rows:\n%s", strings.Join(want, "\n"))
	}
}
