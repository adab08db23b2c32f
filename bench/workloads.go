package main

import (
	"context"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/kbqa"
)

// The world every process loads: kbqa-server has no -scale flag, so the
// default scale (30) is the world the shipped binary serves.
const (
	worldFlavor = "freebase"
	worldSeed   = 42
)

// What kbqa-server ships with: -timeout 5s and -slow-query 500ms.
const (
	shippedTimeout   = 5 * time.Second
	shippedSlowQuery = 500 * time.Millisecond
)

const (
	clients      = 2  // closed loop: one request in flight per client, one keep-alive connection each
	batchSize    = 64 // questions per POST /batch
	warmDistinct = 1024
	churnCache   = 256
)

// workload is one deployment shape plus the traffic sent to it. The server
// processes get their default flags plus only the ones named here.
type workload struct {
	name    string
	batch   bool // POST /batch of batchSize instead of GET /ask
	cluster bool // two kbqa-shard processes behind the frontend
	image   bool // the frontend maps a KB image and persists its cache
	mix     [numClasses]int
	// distinct limits the questions asked in the window to a subset of
	// that many (0: the whole pool).
	distinct int
	// cache is the -cache flag; 0 keeps the server's default (4096).
	cache int
}

var workloads = []workload{
	{name: "mono_batch_cold", batch: true, mix: mixFull, cache: -1},
	{name: "mono_ask_warm", mix: mixFull, distinct: warmDistinct},
	{name: "cluster_ask_cold", cluster: true, mix: mixNoVariant, cache: -1},
	{name: "image_ask_churn", image: true, mix: mixFull, cache: churnCache},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// deployment is one running instance of a workload's shape.
type deployment struct {
	front   *proc
	shards  []*proc
	readyMs []float64 // launch to ready, per process
}

func (d *deployment) procs() []*proc { return append([]*proc{d.front}, d.shards...) }

func (d *deployment) stop() { stopAll(d.procs()) }

func (d *deployment) shardAddrs() []string {
	addrs := make([]string, len(d.shards))
	for i, s := range d.shards {
		addrs[i] = s.addr
	}
	return addrs
}

// startShards launches two kbqa-shard processes that replicate every shard
// (R=2) and waits until both accept connections.
func (h *harness) startShards(ctx context.Context) ([]*proc, []float64, error) {
	addrs, err := freeAddrs(2)
	if err != nil {
		return nil, nil, err
	}
	var shards []*proc
	for i, addr := range addrs {
		p, err := h.start("shard-"+string(rune('a'+i)), "kbqa-shard",
			"-addr", addr, "-servers", strings.Join(addrs, ","), "-replicas", "2")
		if err != nil {
			return shards, nil, err
		}
		p.addr = addr
		shards = append(shards, p)
	}
	var readyMs []float64
	for _, p := range shards {
		if err := p.waitListening(ctx); err != nil {
			return shards, nil, err
		}
		readyMs = append(readyMs, msSince(p.started))
	}
	return shards, readyMs, nil
}

// startReference launches the reference server (see reference/main.go) and
// waits until it accepts connections.
func (h *harness) startReference(ctx context.Context) (*proc, error) {
	addrs, err := freeAddrs(1)
	if err != nil {
		return nil, err
	}
	p, err := h.start("reference", "reference", "-addr", addrs[0])
	if err != nil {
		return nil, err
	}
	p.addr = addrs[0]
	if err := p.waitListening(ctx); err != nil {
		p.stop()
		return nil, err
	}
	return p, nil
}

// launch starts the workload's processes and returns once all are ready.
// oracle writes the KB image the image workload maps.
func (h *harness) launch(ctx context.Context, w workload, oracle *kbqa.System) (*deployment, error) {
	d := &deployment{}
	addrs, err := freeAddrs(1)
	if err != nil {
		return nil, err
	}
	args := []string{"-addr", addrs[0]}
	if w.cache != 0 {
		args = append(args, "-cache", strconv.Itoa(w.cache))
	}
	if w.cluster {
		if d.shards, d.readyMs, err = h.startShards(ctx); err != nil {
			stopAll(d.shards)
			return nil, err
		}
		args = append(args, "-shard-servers", strings.Join(d.shardAddrs(), ","), "-shard-replicas", "2")
	}
	if w.image {
		dir, err := h.tempDir("image")
		if err != nil {
			return nil, err
		}
		image := filepath.Join(dir, "kb.img")
		if _, err = saveImage(oracle, image); err != nil {
			return nil, err
		}
		cacheDir, err := h.tempDir("cache")
		if err != nil {
			return nil, err
		}
		args = append(args, "-kb-image", image, "-cache-dir", cacheDir)
	}
	if d.front, err = h.start("server", "kbqa-server", args...); err != nil {
		stopAll(d.shards)
		return nil, err
	}
	d.front.addr = addrs[0]
	if err := d.front.waitHTTPReady(ctx); err != nil {
		d.stop()
		return nil, err
	}
	d.readyMs = append(d.readyMs, msSince(d.front.started))
	return d, nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }
