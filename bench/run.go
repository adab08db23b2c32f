package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"time"

	"repro/kbqa"
)

// streamLen is how many requests a client's plan holds before it repeats.
const streamLen = 1 << 14

// refNominalUs is the reference exchange time the end-to-end times are
// scaled to: about what the 2-vCPU sandbox reads in its fast phases, so
// that the scaled values read like measured ones there.
const refNominalUs = 120.0

// runConfig is one run of one workload.
type runConfig struct {
	w      workload
	seed   int64
	window time.Duration // --seconds: how long the run measures
	trace  bool
	// setups is how many times the deployment is set up (launch, ready,
	// verified warm-up); setup_s is the median, the last one is measured.
	setups int
	// reps is the number of passes per in-process measurement.
	reps int
}

// report is what one run measured.
type report struct {
	workload  string
	pool      string
	endToEnd  metricSet
	perLayer  metricSet // nil without trace
	window    *loadResult
	attempted int
	failed    int
	// broken lists the written-down expectations the run did not meet; a
	// run with any is not correct.
	broken []string
	// asMeasured holds the time-based end-to-end metrics before the host's
	// speed, refRTTUs, was divided out of them.
	asMeasured metricSet
	refRTTUs   float64
	firstFail  string
	mismatches int // replies that disagreed with the oracle, over the whole run
	spans      int
	tracePath  string
}

// count folds what one run of the clients saw into the run's totals.
func (r *report) count(res *loadResult) {
	r.attempted += res.attempted
	r.failed += res.failed
	r.mismatches += res.mismatches
	if r.firstFail == "" {
		r.firstFail = res.firstFail
	}
}

func (r *report) correct() bool { return r.failed == 0 && len(r.broken) == 0 }

func (r *report) expect(ok bool, format string, args ...any) {
	if !ok {
		r.broken = append(r.broken, fmt.Sprintf(format, args...))
	}
}

// serverCounters is the part of the server's /metrics JSON the run reads.
type serverCounters struct {
	Served     uint64 `json:"served"`
	Hits       uint64 `json:"cache_hits"`
	Misses     uint64 `json:"cache_misses"`
	Evictions  uint64 `json:"cache_evictions"`
	Rotations  uint64 `json:"cache_segment_rotations"`
	Compaction uint64 `json:"cache_compactions"`
	Deduped    uint64 `json:"deduped"`
	Rejected   uint64 `json:"rejected"`
}

// snapshot is the servers' state at one instant, from outside.
type snapshot struct {
	counters serverCounters
	usage    []procUsage // front first, then the shards
}

func takeSnapshot(ctx context.Context, d *deployment) (snapshot, error) {
	var s snapshot
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+d.front.addr+"/metrics", nil)
	if err != nil {
		return s, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return s, fmt.Errorf("read /metrics: %w", err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&s.counters); err != nil {
		return s, fmt.Errorf("decode /metrics: %w", err)
	}
	for _, p := range d.procs() {
		u, err := p.usage()
		if err != nil {
			return s, err
		}
		s.usage = append(s.usage, u)
	}
	return s, nil
}

// plans builds each client's window requests for the workload.
func plans(p *pool, w workload, d *deployment, seed int64) [][]request {
	asked := p
	if w.distinct > 0 {
		asked = p.subset(w.mix, w.distinct)
	}
	base := "http://" + d.front.addr
	out := make([][]request, clients)
	for c := range out {
		rng := rand.New(rand.NewSource(seed*31 + int64(c)))
		stream := asked.stream(rng, w.mix, c, clients, streamLen)
		if w.batch {
			out[c] = batchRequests(p, base, stream, batchSize)
		} else {
			out[c] = askRequests(p, base, stream)
		}
	}
	return out
}

// warmUp asks every distinct question of the workload's mix once, checks
// every reply in full against the oracle, and judges the answers against
// the generator's gold. The warm workload then asks its own subset again,
// so that subset is what the cache holds most recently.
func warmUp(ctx context.Context, d *deployment, p *pool, w workload, right []bool) (*loadResult, error) {
	base := "http://" + d.front.addr
	passes := []*pool{p}
	if w.distinct > 0 {
		passes = append(passes, p.subset(w.mix, w.distinct))
	}
	total := &loadResult{}
	for _, asked := range passes {
		pl := make([][]request, clients)
		for c := range pl {
			once := asked.once(w.mix, c, clients)
			if w.batch {
				pl[c] = batchRequests(p, base, once, batchSize)
			} else {
				pl[c] = askRequests(p, base, once)
			}
		}
		res, err := runClients(ctx, d, p, w, pl, loadOpts{verifyAll: true,
			judge: func(qi int, answer string) { right[qi] = p.qs[qi].right(answer) }})
		if err != nil {
			return nil, err
		}
		total.add(res)
	}
	return total, nil
}

// rightShare is the share of generator-sourced BFQ and complex questions
// the deployment answered with a gold answer.
func rightShare(p *pool, right []bool) float64 {
	n, ok := 0, 0
	for qi := range p.qs {
		if p.qs[qi].gold != nil {
			n++
			if right[qi] {
				ok++
			}
		}
	}
	return float64(ok) / float64(max(n, 1))
}

// run is the state of one runWorkload call that its traced half shares.
type run struct {
	cfg           runConfig
	h             *harness
	oracle        *kbqa.System
	p             *pool
	d             *deployment
	plans         [][]request
	rep           *report
	before, after snapshot       // around the untraced window
	dc            serverCounters // what the server counted during it
	hitRatio      float64
}

// runWorkload sets the workload up, measures it, and tears it down.
func runWorkload(ctx context.Context, h *harness, cfg runConfig) (rep *report, err error) {
	w := cfg.w
	oracle, err := kbqa.Build(worldOptions())
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := oracle.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	p, err := buildPool(ctx, oracle, cfg.seed)
	if err != nil {
		return nil, err
	}
	rep = &report{workload: w.name, pool: p.String(), endToEnd: metricSet{}}

	var (
		d      *deployment
		setupS []float64
		warm   *loadResult
		right  []bool
	)
	for i := 0; i < cfg.setups; i++ {
		if d != nil {
			d.stop()
		}
		right = make([]bool, len(p.qs))
		start := time.Now()
		if d, err = h.launch(ctx, w, oracle); err != nil {
			return nil, err
		}
		if warm, err = warmUp(ctx, d, p, w, right); err != nil {
			d.stop()
			return nil, err
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	defer d.stop()
	rep.count(warm)

	window, traced := cfg.window, time.Duration(0)
	if cfg.trace {
		// The in-process measurements take the remaining third of the run.
		window = cfg.window * 35 / 100
		traced = window
	}
	ref, err := h.startReference(ctx)
	if err != nil {
		return nil, err
	}
	defer ref.stop()
	pl := plans(p, w, d, cfg.seed)
	before, err := takeSnapshot(ctx, d)
	if err != nil {
		return nil, err
	}
	win, err := runClients(ctx, d, p, w, pl, loadOpts{duration: window, seed: cfg.seed, ref: "http://" + ref.addr + "/ask"})
	if err != nil {
		return nil, err
	}
	after, err := takeSnapshot(ctx, d)
	if err != nil {
		return nil, err
	}
	rep.window = win
	rep.count(win)
	if win.answered() == 0 || len(win.samples) == 0 {
		return nil, fmt.Errorf("%s: no question answered in the window: %s", w.name, rep.firstFail)
	}
	if win.refCount == 0 {
		return nil, fmt.Errorf("%s: the reference server answered nothing in %v (log: %s)", w.name, window, ref.logPath)
	}
	answered := float64(win.answered())
	lat := sortedCopy(win.latencies(nil))
	var cpu time.Duration
	var rss int64
	for i := range after.usage {
		cpu += after.usage[i].cpu - before.usage[i].cpu
		rss += after.usage[i].peakRSS
	}
	// Every time is reported as it would read on a host on which a
	// reference exchange takes refNominalUs; see README.md.
	rep.asMeasured = metricSet{
		"setup_s":             median(setupS),
		"q_per_s":             win.rate(),
		"lat_p50_us":          nsToUs(percentile(lat, 0.50)),
		"lat_p99_us":          nsToUs(percentile(lat, 0.99)),
		"server_cpu_us_per_q": us(cpu) / answered,
	}
	rep.refRTTUs = win.refRTTUs()
	slow := rep.refRTTUs / refNominalUs
	e := rep.endToEnd
	for name, v := range rep.asMeasured {
		e[name] = v / slow
	}
	e["q_per_s"] = rep.asMeasured["q_per_s"] * slow
	e["server_rss_mb"] = float64(rss) / (1 << 20)
	e["right_share"] = rightShare(p, right)

	// What the written-down interactions say the cache must have done.
	dc := delta(before.counters, after.counters)
	hitRatio := 0.0
	if dc.Hits+dc.Misses > 0 {
		hitRatio = float64(dc.Hits) / float64(dc.Hits+dc.Misses)
	}
	switch {
	case w.cache < 0:
		rep.expect(dc.Hits == 0, "%s runs with the cache off but counted %d hits", w.name, dc.Hits)
	case w.distinct > 0:
		rep.expect(dc.Misses == 0 && hitRatio >= 0.99, "%s asks only pre-warmed questions but missed %d times (hit ratio %.4f)", w.name, dc.Misses, hitRatio)
	default:
		rep.expect(hitRatio >= 0.03 && hitRatio <= 0.25, "%s should hit a 256-entry cache on 3-25 %% of requests, hit ratio is %.4f", w.name, hitRatio)
		// A rotation needs 16 MiB of appended answers: a few seconds of misses.
		rep.expect(window < 10*time.Second || dc.Rotations >= 1, "%s rotated no cache segment in %v", w.name, window)
	}
	rep.expect(dc.Deduped == 0 && dc.Rejected == 0, "%s: singleflight (%d) or admission (%d) engaged; two closed-loop clients must not reach either", w.name, dc.Deduped, dc.Rejected)

	if cfg.trace {
		r := &run{cfg: cfg, h: h, oracle: oracle, p: p, d: d, plans: pl, rep: rep,
			before: before, after: after, dc: dc, hitRatio: hitRatio}
		if err := r.tracedPass(ctx, traced); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

func delta(a, b serverCounters) serverCounters {
	return serverCounters{
		Served: b.Served - a.Served, Hits: b.Hits - a.Hits, Misses: b.Misses - a.Misses,
		Evictions: b.Evictions - a.Evictions, Rotations: b.Rotations - a.Rotations,
		Compaction: b.Compaction - a.Compaction, Deduped: b.Deduped - a.Deduped, Rejected: b.Rejected - a.Rejected,
	}
}

// tracedPass runs the second, traced pass over HTTP and the in-process
// boundary measurements, and fills in the per-layer metrics.
func (r *run) tracedPass(ctx context.Context, duration time.Duration) error {
	cfg, h, rep, p, d, before, after, dc := r.cfg, r.h, r.rep, r.p, r.d, r.before, r.after, r.dc
	w, win := cfg.w, rep.window
	rec := newRecorder(clients)
	tr, err := runClients(ctx, d, p, w, r.plans, loadOpts{duration: duration, trace: rec, seed: cfg.seed + 1})
	if err != nil {
		return err
	}
	rep.count(tr)
	if tr.answered() == 0 || len(tr.samples) == 0 {
		return fmt.Errorf("%s: no question answered in the traced pass: %s", w.name, rep.firstFail)
	}

	// The in-process boundaries need two shard servers whatever the
	// workload; the cluster workload's own are reused.
	shards := d.shardAddrs()
	if !w.cluster {
		procs, _, err := h.startShards(ctx)
		defer stopAll(procs)
		if err != nil {
			return err
		}
		for _, s := range procs {
			shards = append(shards, s.addr)
		}
	}
	m := metricSet{}
	inprocUsPerQ, err := measureLayers(ctx, layerEnv{
		h: h, oracle: r.oracle, p: p, w: w, shards: shards, reps: cfg.reps, rec: rec, plan: r.plans[0],
	}, m)
	if err != nil {
		return err
	}
	rep.perLayer = m

	answered := float64(win.answered())
	lat := sortedCopy(win.latencies(nil))
	tailUs, _ := tail(lat)
	m["loadgen.samples"] = float64(len(lat))
	m["loadgen.lat_tail_us"] = nsToUs(tailUs)
	m["loadgen.mismatch_count"] = float64(rep.mismatches)
	m["loadgen.ref_rtt_us"] = rep.refRTTUs
	m["loadgen.trace_overhead_pct"] = 100 * (1 - tr.rate()/win.rate())
	for c := class(0); c < numClasses; c++ {
		ofClass := sortedCopy(tr.latencies(func(s *sample) bool { return !w.batch && s.class == c }))
		m["loadgen."+classNames[c]+"_p50_us"] = nsToUs(percentile(ofClass, 0.50))
	}

	meanReqUs := 0.0
	for i := range tr.samples {
		meanReqUs += nsToUs(float64(tr.samples[i].lat))
	}
	meanReqUs /= float64(len(tr.samples))
	m["http.ask_self_us"], m["http.batch_self_us_per_q"] = 0, 0
	if w.batch {
		perQ := float64(tr.attempted) / float64(tr.requests)
		m["http.batch_self_us_per_q"] = meanReqUs/perQ - inprocUsPerQ
	} else {
		m["http.ask_self_us"] = meanReqUs - inprocUsPerQ
	}
	m["http.resp_bytes_per_q"] = float64(tr.bytes) / float64(max(tr.attempted, 1))
	m["http.frontend_cpu_us_per_q"] = us(after.usage[0].cpu-before.usage[0].cpu) / answered
	var shardCPU time.Duration
	for i := 1; i < len(after.usage); i++ {
		shardCPU += after.usage[i].cpu - before.usage[i].cpu
	}
	m["shardrpc.shard_cpu_us_per_q"] = us(shardCPU) / answered

	m["serve.hit_ratio"] = r.hitRatio
	m["serve.evictions_per_q"] = float64(dc.Evictions) / float64(max(dc.Served, 1))
	m["serve.deduped"] = float64(dc.Deduped)
	m["serve.rejected"] = float64(dc.Rejected)
	m["persist.write_bytes_per_miss"] = 0
	if dc.Misses > 0 {
		m["persist.write_bytes_per_miss"] = float64(after.usage[0].writeBytes-before.usage[0].writeBytes) / float64(dc.Misses)
	}
	m["persist.rotations"] = float64(dc.Rotations)
	m["persist.compactions"] = float64(dc.Compaction)
	m["boot.ready_ms"] = mean(d.readyMs)

	rep.expect(m["core.parse_us"]+m["core.match_us"] > m["rdf.probe_us"],
		"parse+match (%.2f us) should outweigh the in-memory probe (%.2f us)", m["core.parse_us"]+m["core.match_us"], m["rdf.probe_us"])
	rep.expect(m["shardrpc.rpc_overhead_us_per_q"] > 5*m["rdf.probe_us"],
		"shard RPC overhead per question (%.2f us) should be over 5x the in-memory probe (%.2f us)", m["shardrpc.rpc_overhead_us_per_q"], m["rdf.probe_us"])

	rep.spans = rec.count()
	rep.tracePath = filepath.Join(h.outDir, "trace-"+w.name+".jsonl")
	return rec.writeJSONL(rep.tracePath)
}
