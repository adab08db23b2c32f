package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/kbqa"
)

// This file measures single layers from outside, by calling the public API
// of repro/kbqa at successively deeper boundaries on one goroutine:
// Server.Query contains System.Query, which reports Result.Timings. The
// difference between two boundaries given the same questions is the self
// time of the layer between them.

// cost is the mean price of one call.
type cost struct{ us, allocs float64 }

func (c cost) minus(o cost) cost { return cost{c.us - o.us, c.allocs - o.allocs} }

// measure prices each fn over reps passes of the questions. Time is taken
// call by call with the fns alternating on every question, so that drift,
// garbage collections and the background work of a cache land on all of
// them alike; only then do small differences between fns mean anything.
// Allocations are the process's malloc count across whole passes, so
// nothing else may run meanwhile. An untimed pass comes first.
func measure(reps int, qs []string, fns ...func(q string)) []cost {
	out := make([]cost, len(fns))
	for _, q := range qs {
		for _, fn := range fns {
			fn(q)
		}
	}
	for r := 0; r < reps; r++ {
		for _, q := range qs {
			for i, fn := range fns {
				start := time.Now()
				fn(q)
				out[i].us += us(time.Since(start))
			}
		}
	}
	var ms runtime.MemStats
	for i, fn := range fns {
		runtime.ReadMemStats(&ms)
		mallocs := ms.Mallocs
		for _, q := range qs {
			fn(q)
		}
		runtime.ReadMemStats(&ms)
		out[i].allocs = float64(ms.Mallocs-mallocs) / float64(len(qs))
		out[i].us /= float64(reps * len(qs))
	}
	return out
}

// asker adapts an Answerer to measure; a typed refusal is a valid outcome
// of a question, anything else ends the measurement.
func asker(ctx context.Context, a kbqa.Answerer, failed *error) func(string) {
	return func(q string) {
		if _, err := a.Query(ctx, q); err != nil && !kbqa.IsUnanswerable(err) && *failed == nil {
			*failed = fmt.Errorf("in-process query %q: %w", q, err)
		}
	}
}

func (p *pool) texts(idx []int) []string {
	out := make([]string, len(idx))
	for i, qi := range idx {
		out[i] = p.qs[qi].text
	}
	return out
}

func worldOptions() kbqa.Options { return kbqa.Options{Flavor: worldFlavor, Seed: worldSeed} }

// saveImage writes the oracle's knowledge base as a snapshot image and
// returns its size.
func saveImage(oracle *kbqa.System, path string) (int64, error) {
	if err := oracle.SaveKBImage(path); err != nil {
		return 0, err
	}
	st, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// stageMeans is the mean of Result.Timings over the answered questions.
type stageMeans struct{ parse, match, probe, other float64 }

func stageTimings(ctx context.Context, sys *kbqa.System, qs []string) (stageMeans, error) {
	var m stageMeans
	n := 0.0
	for _, q := range qs {
		res, err := sys.Query(ctx, q)
		if err != nil {
			if kbqa.IsUnanswerable(err) {
				continue
			}
			return m, fmt.Errorf("in-process query %q: %w", q, err)
		}
		tm := res.Timings
		m.parse += us(tm.Parse)
		m.match += us(tm.Match)
		m.probe += us(tm.Probe)
		m.other += us(tm.Total - tm.Parse - tm.Match - tm.Probe)
		n++
	}
	if n == 0 {
		return m, fmt.Errorf("stage timings: none of %d questions was answered", len(qs))
	}
	return stageMeans{m.parse / n, m.match / n, m.probe / n, m.other / n}, nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// layerEnv is what the in-process measurements need from the run.
type layerEnv struct {
	h      *harness
	oracle *kbqa.System // the in-memory backing (rdf.ShardedStore)
	p      *pool
	w      workload
	shards []string // addresses of two running kbqa-shard processes
	reps   int      // passes per measurement
	rec    *recorder
	// plan is client 0's request plan in the window; the replay at the
	// in-process boundaries asks the same questions in the same order.
	plan []request
}

// Questions replayed per boundary at the workload's own configuration;
// fewer over shard RPC, where one costs a millisecond.
const (
	replayQuestions        = 2048
	replayQuestionsCluster = 384
	rpcProbeQuestions      = 256
)

// measureLayers fills in every per-layer metric that comes from an
// in-process boundary. It returns the mean in-process Server.Query span of
// the workload's own configuration, per question, for the HTTP self time.
func measureLayers(ctx context.Context, env layerEnv, m metricSet) (inprocUsPerQ float64, err error) {
	p, reps := env.p, env.reps
	var failed error
	var closers []func() error
	defer func() {
		for i := len(closers) - 1; i >= 0; i-- {
			if cerr := closers[i](); cerr != nil && err == nil {
				err = cerr
			}
		}
	}()
	server := func(sys *kbqa.System, o kbqa.ServerOptions) (*kbqa.Server, error) {
		srv, err := sys.Server(o)
		if err == nil {
			closers = append(closers, srv.Close)
		}
		return srv, err
	}

	// boot and snapshot: Build with and without the image, in turn.
	imageDir, err := env.h.tempDir("layers-image")
	if err != nil {
		return 0, err
	}
	imagePath := imageDir + "/kb.img"
	imageLen, err := saveImage(env.oracle, imagePath)
	if err != nil {
		return 0, err
	}
	var plainMs, imageMs []float64
	var sysImage *kbqa.System
	for r := 0; r < reps; r++ {
		start := time.Now()
		plain, err := kbqa.Build(worldOptions())
		if err != nil {
			return 0, err
		}
		plainMs = append(plainMs, msSince(start))
		if err := plain.Close(); err != nil {
			return 0, err
		}
		o := worldOptions()
		o.KBImage = imagePath
		start = time.Now()
		img, err := kbqa.Build(o)
		if err != nil {
			return 0, err
		}
		imageMs = append(imageMs, msSince(start))
		if sysImage == nil {
			sysImage = img
			closers = append(closers, img.Close)
		} else if err := img.Close(); err != nil {
			return 0, err
		}
	}
	m["boot.build_ms"] = median(plainMs)
	m["snapshot.open_ms"] = median(imageMs) - median(plainMs)
	m["snapshot.image_bytes"] = float64(imageLen)

	o := worldOptions()
	o.ShardServers, o.ShardReplicas = env.shards, 2
	sysRPC, err := kbqa.Build(o)
	if err != nil {
		return 0, err
	}
	closers = append(closers, sysRPC.Close)

	// core: System.Query per class, and its own stage timings.
	bfq := p.texts(p.byClass[classBFQ])
	for c, idx := range p.byClass {
		got := measure(reps, p.texts(idx), asker(ctx, env.oracle, &failed))[0]
		m["core."+classNames[c]+"_us"] = got.us
		m["core."+classNames[c]+"_allocs"] = got.allocs
	}
	answered := append(append([]string(nil), bfq...), p.texts(p.byClass[classComplex])...)
	stages, err := stageTimings(ctx, env.oracle, answered)
	if err != nil {
		return 0, err
	}
	m["core.parse_us"], m["core.match_us"], m["core.other_us"] = stages.parse, stages.match, stages.other

	// The three KB backings: the same BFQs, Timings.Probe of each.
	for _, b := range []struct {
		name string
		sys  *kbqa.System
		qs   []string
	}{
		{"rdf", env.oracle, bfq},
		{"snapshot", sysImage, bfq},
		{"shardrpc", sysRPC, bfq[:min(len(bfq), rpcProbeQuestions)]},
	} {
		st, err := stageTimings(ctx, b.sys, b.qs)
		if err != nil {
			return 0, err
		}
		m[b.name+".probe_us"] = st.probe
	}
	m["shardrpc.rpc_overhead_us_per_q"] = m["shardrpc.probe_us"] - m["rdf.probe_us"]
	// A variant scans a whole category over RPC, most of a second: one per
	// pass is all the run can afford.
	variants := p.texts(p.byClass[classVariant])
	variants = variants[:min(len(variants), reps)]
	start := time.Now()
	for _, q := range variants {
		asker(ctx, sysRPC, &failed)(q)
	}
	m["shardrpc.variant_ms"] = msSince(start) / float64(len(variants))

	// serve and obs: the hit path with and without the shipped tracer, and
	// the miss path against the bare engine.
	warm := p.subset(mixFull, warmDistinct)
	warmTexts := p.texts(warm.indexes(mixFull))
	srvHit, err := server(env.oracle, kbqa.ServerOptions{})
	if err != nil {
		return 0, err
	}
	srvTraced, err := server(env.oracle, kbqa.ServerOptions{SlowQueryThreshold: shippedSlowQuery})
	if err != nil {
		return 0, err
	}
	hits := measure(20*reps, warmTexts, asker(ctx, srvHit, &failed), asker(ctx, srvTraced, &failed))
	m["serve.hit_us"], m["serve.hit_allocs"] = hits[0].us, hits[0].allocs
	m["obs.trace_self_us"] = hits[1].us - hits[0].us

	srvOff, err := server(env.oracle, kbqa.ServerOptions{CacheEntries: -1})
	if err != nil {
		return 0, err
	}
	miss := measure(reps, bfq, asker(ctx, srvOff, &failed), asker(ctx, env.oracle, &failed))
	missSelf := miss[0].minus(miss[1])
	m["serve.miss_self_us"], m["serve.miss_self_allocs"] = missSelf.us, missSelf.allocs

	// persist: a cache far smaller than the question cycle misses every
	// time, so each call inserts and evicts; with a directory it also puts.
	cacheDir, err := env.h.tempDir("layers-cache")
	if err != nil {
		return 0, err
	}
	srvMem, err := server(env.oracle, kbqa.ServerOptions{CacheEntries: churnCache})
	if err != nil {
		return 0, err
	}
	srvDisk, err := server(env.oracle, kbqa.ServerOptions{CacheEntries: churnCache, CacheDir: cacheDir})
	if err != nil {
		return 0, err
	}
	put := measure(reps, bfq, asker(ctx, srvDisk, &failed), asker(ctx, srvMem, &failed))
	putSelf := put[0].minus(put[1])
	m["persist.put_self_us"], m["persist.put_self_allocs"] = putSelf.us, putSelf.allocs

	// The workload's own configuration, replayed at both boundaries.
	sys, n := env.oracle, replayQuestions
	so := kbqa.ServerOptions{CacheEntries: env.w.cache, Timeout: shippedTimeout, SlowQueryThreshold: shippedSlowQuery}
	switch {
	case env.w.cluster:
		sys, n = sysRPC, replayQuestionsCluster
	case env.w.image:
		sys = sysImage
		if so.CacheDir, err = env.h.tempDir("layers-replay-cache"); err != nil {
			return 0, err
		}
	}
	srv, err := server(sys, so)
	if err != nil {
		return 0, err
	}
	if env.w.distinct > 0 {
		for _, q := range warmTexts {
			asker(ctx, srv, &failed)(q)
		}
	}
	inprocUsPerQ = replay(ctx, env, srv, sys, n, &failed)
	return inprocUsPerQ, failed
}

// replay asks the window's questions, in the window's order, at the
// Server.Query (or QueryBatch) boundary and then at the System.Query
// boundary, recording a span per call, and returns the mean Server span
// per question.
func replay(ctx context.Context, env layerEnv, srv *kbqa.Server, sys *kbqa.System, n int, failed *error) float64 {
	const writer = 0 // the clients have finished; their buffers are free
	var total time.Duration
	asked := 0
	for _, req := range env.plan {
		if asked >= n {
			break
		}
		texts := env.p.texts(req.qis)
		trace := fmt.Sprintf("%s/%d", env.w.name, req.qis[0])
		start := time.Now()
		if env.w.batch {
			for _, br := range srv.QueryBatch(ctx, texts) {
				if br.Err != nil && !kbqa.IsUnanswerable(br.Err) && *failed == nil {
					*failed = fmt.Errorf("in-process batch %q: %w", br.Question, br.Err)
				}
			}
		} else {
			asker(ctx, srv, failed)(texts[0])
		}
		end := time.Now()
		total += end.Sub(start)
		asked += len(texts)
		env.rec.call(writer, "kbqa.Server.Query", trace, "", start, end)
		for i, q := range texts {
			start := time.Now()
			asker(ctx, sys, failed)(q)
			env.rec.call(writer, "kbqa.System.Query", fmt.Sprintf("%s/%d", env.w.name, req.qis[i]),
				classNames[env.p.qs[req.qis[i]].class], start, time.Now())
		}
	}
	return us(total) / float64(max(asked, 1))
}
