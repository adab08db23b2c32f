// Command bench measures the shipped kbqa-server and kbqa-shard binaries
// end to end and layer by layer. It builds them from the checkout it sits
// in, launches them as subprocesses with their default flags plus the few
// that define a workload, drives them over loopback HTTP with a closed loop
// of two clients, and checks every kind of reply against an in-process
// oracle. See README.md for the metrics and what each should move.
//
//	go run -C bench .                                  every workload, traced, human-readable
//	go run -C bench . -repeat 5                        the run-to-run spread of every end-to-end metric
//	go run -C bench . --workload mono_ask_warm --seed 3 --seconds 20 --trace 0
//
// With --workload the last line of standard output is one JSON object:
// the end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"
)

// Set-ups per untraced run (setup_s is their median) and passes per
// in-process measurement of a traced run.
const (
	setupsPerRun = 3
	layerReps    = 5
)

func main() { os.Exit(realMain()) }

func realMain() int {
	name := flag.String("workload", "", "run this workload alone and end with the JSON result line (default: all, human-readable)")
	seed := flag.Int64("seed", 1, "seed of the question pool and of every client's request order")
	seconds := flag.Int("seconds", 0, "how long one run measures (default: run_seconds of BENCHMARK.json)")
	trace := flag.Int("trace", 0, "1: also run the traced pass and the in-process boundaries, and report the per-layer metrics")
	repeat := flag.Int("repeat", 1, "without -workload: run each workload this many times and print the spread of each end-to-end metric")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	h, err := newHarness()
	if err != nil {
		return fatal(err)
	}
	// Every exit path, a signal included, stops the servers and removes
	// the temporary directories.
	defer h.cleanup()

	man, err := loadManifest(h.root)
	if err != nil {
		return fatal(err)
	}
	if err := man.checkAgainst(workloads); err != nil {
		return fatal(err)
	}
	if *seconds <= 0 {
		*seconds = man.RunSeconds
	}
	if err := h.build(ctx); err != nil {
		return fatal(err)
	}
	cfg := runConfig{seed: *seed, window: time.Duration(*seconds) * time.Second, trace: *trace != 0, setups: setupsPerRun, reps: layerReps}

	if *name == "" {
		return runAll(ctx, h, cfg, *repeat)
	}
	w, ok := findWorkload(*name)
	if !ok {
		return fatal(fmt.Errorf("unknown workload %q", *name))
	}
	cfg.w = w
	if cfg.trace {
		cfg.setups = 1 // setup_s is not among the per-layer metrics
	}
	rep, err := runWorkload(ctx, h, cfg)
	if err != nil {
		return fatal(err)
	}
	rep.print()
	defs, set := endToEnd, rep.endToEnd
	if cfg.trace {
		defs, set = perLayer, rep.perLayer
	}
	metrics, err := set.render(defs)
	if err != nil {
		return fatal(err)
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{rep.correct(), rep.attempted, rep.failed, metrics})
	if err != nil {
		return fatal(err)
	}
	fmt.Println(string(line))
	if !rep.correct() {
		return 1
	}
	return 0
}

func fatal(err error) int {
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 1
}

// print lists every metric the run measured by name, value and unit.
func (r *report) print() {
	win := r.window
	fmt.Printf("== %s ==\npool: %s\n", r.workload, r.pool)
	lat := sortedCopy(win.latencies(nil))
	fmt.Printf("window: %d requests, %d questions answered in %.2f s by %d closed-loop clients; %d attempted and %d failed over the whole run\n",
		len(lat), win.answered(), win.elapsed.Seconds(), clients, r.attempted, r.failed)
	if tailUs, pct := tail(lat); pct > 0 {
		fmt.Printf("latency percentiles over %d samples; the highest with ten samples beyond it is p%.3f = %.1f us\n", len(lat), pct, nsToUs(tailUs))
	}
	fmt.Printf("host: a reference exchange took %.1f us; times are scaled to %.0f us. As measured:", r.refRTTUs, refNominalUs)
	for _, d := range endToEnd {
		if v, ok := r.asMeasured[d.name]; ok {
			fmt.Printf(" %s %.4f", d.name, v)
		}
	}
	fmt.Println()
	printMetrics(endToEnd, r.endToEnd)
	if r.perLayer != nil {
		printMetrics(perLayer, r.perLayer)
		fmt.Printf("%d spans written to %s\n", r.spans, r.tracePath)
	}
	if r.firstFail != "" {
		fmt.Println("FAILED first on", r.firstFail)
	}
	for _, b := range r.broken {
		fmt.Println("EXPECTATION NOT MET:", b)
	}
}

func printMetrics(defs []metricDef, m metricSet) {
	for _, d := range defs {
		if v, ok := m[d.name]; ok {
			fmt.Printf("  %-32s %14.4f %s\n", d.name, v, d.unit)
		}
	}
}

// runAll runs every workload, traced, and checks what only shows across
// workloads. With repeat > 1 it instead runs every workload repeat times
// untraced and prints the spread of each end-to-end metric.
func runAll(ctx context.Context, h *harness, cfg runConfig, repeat int) int {
	code := 0
	if repeat > 1 {
		cfg.trace = false
		for _, w := range workloads {
			cfg.w = w
			runs := make(map[string][]float64)
			for i := 0; i < repeat; i++ {
				rep, err := runWorkload(ctx, h, cfg)
				if err != nil {
					return fatal(err)
				}
				if !rep.correct() {
					rep.print()
					code = 1
				}
				for name, v := range rep.endToEnd {
					runs[name] = append(runs[name], v)
				}
			}
			fmt.Printf("== %s: %d runs, seed %d, %v window ==\n", w.name, repeat, cfg.seed, cfg.window)
			fmt.Printf("  %-24s %14s %14s %14s %10s\n", "metric", "min", "median", "max", "spread")
			for _, d := range endToEnd {
				v := append([]float64(nil), runs[d.name]...)
				sort.Float64s(v)
				med := median(v)
				fmt.Printf("  %-24s %14.4f %14.4f %14.4f %9.2f%% %s\n", d.name, v[0], med, v[len(v)-1], 100*(v[len(v)-1]-v[0])/med, d.unit)
			}
		}
		return code
	}

	cfg.trace = true
	reports := make(map[string]*report)
	for _, w := range workloads {
		cfg.w = w
		rep, err := runWorkload(ctx, h, cfg)
		if err != nil {
			return fatal(err)
		}
		if _, err := rep.endToEnd.render(endToEnd); err != nil {
			return fatal(err)
		}
		if _, err := rep.perLayer.render(perLayer); err != nil {
			return fatal(err)
		}
		rep.print()
		if !rep.correct() {
			code = 1
		}
		reports[w.name] = rep
	}
	// A cluster question waits for the sum of its sequential RPC hops.
	cluster := reports["cluster_ask_cold"].endToEnd["lat_p50_us"]
	mono := reports["mono_ask_warm"].perLayer["loadgen.bfq_p50_us"]
	if cluster <= 3*mono {
		fmt.Printf("EXPECTATION NOT MET: cluster_ask_cold lat_p50_us (%.1f) should be over 3x an /ask on the monolith (%.1f)\n", cluster, mono)
		code = 1
	}
	share := reports[workloads[0].name].endToEnd["right_share"]
	for _, w := range workloads {
		if got := reports[w.name].endToEnd["right_share"]; got != share {
			fmt.Printf("EXPECTATION NOT MET: right_share is %.6f on %s and %.6f on %s; the shapes must give the same answers\n", share, workloads[0].name, got, w.name)
			code = 1
		}
	}
	return code
}
