package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// metricDef declares one metric the benchmark emits. signed marks metrics
// that are the difference of two measurements (a layer's self time): run
// to run noise may push a small one below zero, which is reported as
// measured instead of failing the run.
type metricDef struct {
	name   string
	unit   string
	signed bool
}

// endToEnd is what a user of the system sees, measured in the untraced
// window of every workload. Names, units and order match BENCHMARK.json.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s"},
	{name: "q_per_s", unit: "1/s"},
	{name: "lat_p50_us", unit: "us"},
	{name: "lat_p99_us", unit: "us"},
	{name: "server_cpu_us_per_q", unit: "us"},
	{name: "server_rss_mb", unit: "MB"},
	{name: "right_share", unit: "share"},
}

// perLayer is one entry per layer measurement, grouped by the repo module
// that does the work. README.md says which end-to-end metric each should
// move, on which workload.
var perLayer = []metricDef{
	{name: "loadgen.samples", unit: "count"},
	{name: "loadgen.lat_tail_us", unit: "us"},
	{name: "loadgen.mismatch_count", unit: "count"},
	{name: "loadgen.ref_rtt_us", unit: "us"},
	{name: "loadgen.trace_overhead_pct", unit: "%", signed: true},
	{name: "loadgen.bfq_p50_us", unit: "us"},
	{name: "loadgen.complex_p50_us", unit: "us"},
	{name: "loadgen.unanswerable_p50_us", unit: "us"},
	{name: "loadgen.variant_p50_us", unit: "us"},

	{name: "http.ask_self_us", unit: "us", signed: true},
	{name: "http.batch_self_us_per_q", unit: "us", signed: true},
	{name: "http.resp_bytes_per_q", unit: "bytes"},
	{name: "http.frontend_cpu_us_per_q", unit: "us"},

	{name: "serve.hit_us", unit: "us"},
	{name: "serve.hit_allocs", unit: "count"},
	{name: "serve.miss_self_us", unit: "us", signed: true},
	{name: "serve.miss_self_allocs", unit: "count", signed: true},
	{name: "serve.hit_ratio", unit: "share"},
	{name: "serve.evictions_per_q", unit: "count"},
	{name: "serve.deduped", unit: "count"},
	{name: "serve.rejected", unit: "count"},

	{name: "persist.put_self_us", unit: "us", signed: true},
	{name: "persist.put_self_allocs", unit: "count", signed: true},
	{name: "persist.write_bytes_per_miss", unit: "bytes"},
	{name: "persist.rotations", unit: "count"},
	{name: "persist.compactions", unit: "count"},

	{name: "core.bfq_us", unit: "us"},
	{name: "core.bfq_allocs", unit: "count"},
	{name: "core.complex_us", unit: "us"},
	{name: "core.complex_allocs", unit: "count"},
	{name: "core.unanswerable_us", unit: "us"},
	{name: "core.unanswerable_allocs", unit: "count"},
	{name: "core.variant_us", unit: "us"},
	{name: "core.variant_allocs", unit: "count"},
	{name: "core.parse_us", unit: "us"},
	{name: "core.match_us", unit: "us"},
	{name: "core.other_us", unit: "us"},

	{name: "rdf.probe_us", unit: "us"},
	{name: "snapshot.probe_us", unit: "us"},
	{name: "snapshot.open_ms", unit: "ms", signed: true},
	{name: "snapshot.image_bytes", unit: "bytes"},
	{name: "shardrpc.probe_us", unit: "us"},
	{name: "shardrpc.rpc_overhead_us_per_q", unit: "us", signed: true},
	{name: "shardrpc.shard_cpu_us_per_q", unit: "us"},
	{name: "shardrpc.variant_ms", unit: "ms"},

	{name: "obs.trace_self_us", unit: "us", signed: true},

	{name: "boot.build_ms", unit: "ms"},
	{name: "boot.ready_ms", unit: "ms"},
}

// metricValue is one measured value in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects measured values by name.
type metricSet map[string]float64

// render turns the measured values into the result line's metrics object,
// failing if a declared metric is missing, not a finite number, or
// negative where a negative value cannot be a measurement.
func (m metricSet) render(defs []metricDef) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := m[d.name]
		switch {
		case !ok:
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		case math.IsNaN(v) || math.IsInf(v, 0):
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		case v < 0 && !d.signed:
			return nil, fmt.Errorf("metric %s is negative: %v", d.name, v)
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return out, nil
}

// manifest is the part of BENCHMARK.json the program checks itself against.
type manifest struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadManifest(root string) (*manifest, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &m, nil
}

// checkAgainst reports the first difference between what the program
// emits and what BENCHMARK.json declares: workloads, metric names, units.
func (m *manifest) checkAgainst(workloads []workload) error {
	var names []string
	for _, w := range m.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if fmt.Sprint(names) != fmt.Sprint(have) {
		return fmt.Errorf("BENCHMARK.json workloads %v, program has %v", names, have)
	}
	if err := sameMetrics("end_to_end", m.EndToEnd, endToEnd); err != nil {
		return err
	}
	return sameMetrics("per_layer", m.PerLayer, perLayer)
}

func sameMetrics(section string, declared []manifestMetric, defs []metricDef) error {
	want := make(map[string]string, len(defs))
	for _, d := range defs {
		want[d.name] = d.unit
	}
	for _, d := range declared {
		unit, ok := want[d.Name]
		if !ok {
			return fmt.Errorf("BENCHMARK.json %s declares %s, which the program does not emit", section, d.Name)
		}
		if unit != d.Unit {
			return fmt.Errorf("BENCHMARK.json %s declares %s in %s, the program emits %s", section, d.Name, d.Unit, unit)
		}
		delete(want, d.Name)
	}
	for name := range want {
		return fmt.Errorf("the program emits %s, which BENCHMARK.json %s does not declare", name, section)
	}
	return nil
}

// percentile returns the p-quantile (0..1) of sorted by nearest rank.
func percentile(sorted []int64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(sorted[i])
}

// tail returns the highest sample that still has at least ten samples
// beyond it, and the percentile that position stands for.
func tail(sorted []int64) (value, pct float64) {
	const beyond = 10
	if len(sorted) <= beyond {
		return 0, 0
	}
	i := len(sorted) - 1 - beyond
	return float64(sorted[i]), 100 * float64(i+1) / float64(len(sorted))
}

func sortedCopy(v []int64) []int64 {
	s := append([]int64(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}
