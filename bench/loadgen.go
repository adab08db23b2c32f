package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"sync"
	"time"
)

// clientTimeout fails a request the server has not answered in time; the
// server's own deadline is the same 5 s, so a reply that slow is a failure
// either way.
const clientTimeout = 5 * time.Second

// verifyEvery is the share of window replies whose whole body is checked
// against the oracle (every reply's status is checked). Decoding every
// body would make the generator, which shares the cores with the servers,
// a larger part of what is measured.
const verifyEvery = 16

// request is one HTTP request, built before the clock starts.
type request struct {
	url  string
	body []byte // nil: GET /ask; otherwise the POST /batch body
	qis  []int  // pool indexes of the questions asked, in order
}

type batchReply struct {
	Results []askReply `json:"results"`
}

// askRequests turns a stream of pool indexes into GET /ask requests.
func askRequests(p *pool, base string, stream []int) []request {
	reqs := make([]request, len(stream))
	for i, qi := range stream {
		reqs[i] = request{url: base + "/ask?q=" + url.QueryEscape(p.qs[qi].text), qis: stream[i : i+1]}
	}
	return reqs
}

// batchRequests groups a stream into POST /batch requests of up to size
// distinct questions each: a duplicate inside one batch would be answered
// by the server's singleflight instead of the engine.
func batchRequests(p *pool, base string, stream []int, size int) []request {
	var reqs []request
	for len(stream) > 0 {
		var qis []int
		var texts []string
		in := make(map[int]bool, size)
		for len(stream) > 0 && len(qis) < size {
			qi := stream[0]
			stream = stream[1:]
			if !in[qi] {
				in[qi] = true
				qis = append(qis, qi)
				texts = append(texts, p.qs[qi].text)
			}
		}
		body, _ := json.Marshal(map[string][]string{"questions": texts}) // strings always encode
		reqs = append(reqs, request{url: base + "/batch", body: body, qis: qis})
	}
	return reqs
}

// loadOpts selects what one run of the clients does beyond sending.
type loadOpts struct {
	// duration is how long the clients send; 0 sends every request of the
	// plan exactly once.
	duration time.Duration
	// verifyAll checks every reply's body, not one in verifyEvery.
	verifyAll bool
	// trace, when non-nil, records a span tree per request (and decodes
	// every reply to get the server's own stage timings).
	trace *recorder
	// judge, when non-nil, is told the answer to every verified question.
	judge func(qi int, answer string)
	seed  int64
	// ref, when set, is the URL of the reference server: every client then
	// spends the last refShare of every refPeriod asking it instead of the
	// deployment.
	ref string
}

// A fifth of the window goes to the reference, in slices short enough that
// the host is as fast during one as during the requests around it, and long
// enough that a /batch request still in flight when its client's neighbour
// has switched is a small part of the slice.
const (
	refPeriod = 250 * time.Millisecond
	refShare  = 50 * time.Millisecond
)

// sample is one completed request.
type sample struct {
	lat   int64 // ns, until the whole body was read
	class class // of its (first) question
}

// loadResult is what the clients saw.
type loadResult struct {
	elapsed    time.Duration
	samples    []sample
	requests   int
	attempted  int // questions
	failed     int // questions that errored, timed out, or disagreed with the oracle
	mismatches int // the subset of failed that disagreed with the oracle
	bytes      int64
	firstFail  string
	// Each client's time goes either to the deployment or to the reference;
	// both are summed over the clients.
	workNs   int64
	refNs    int64
	refCount int // exchanges with the reference
}

func (r *loadResult) add(o *loadResult) {
	r.workNs += o.workNs
	r.refNs += o.refNs
	r.refCount += o.refCount
	r.samples = append(r.samples, o.samples...)
	r.requests += o.requests
	r.attempted += o.attempted
	r.failed += o.failed
	r.mismatches += o.mismatches
	r.bytes += o.bytes
	if r.firstFail == "" {
		r.firstFail = o.firstFail
	}
}

// latencies returns the latency of every sample pick accepts.
func (r *loadResult) latencies(pick func(*sample) bool) []int64 {
	var out []int64
	for i := range r.samples {
		if pick == nil || pick(&r.samples[i]) {
			out = append(out, r.samples[i].lat)
		}
	}
	return out
}

func (r *loadResult) answered() int { return r.attempted - r.failed }

// rate is the questions answered per second of the time the clients gave
// the deployment: slices spent on the reference do not count.
func (r *loadResult) rate() float64 {
	return float64(r.answered()) * clients / (float64(r.workNs) / 1e9)
}

// refRTTUs is the mean time of one exchange with the reference.
func (r *loadResult) refRTTUs() float64 {
	return nsToUs(float64(r.refNs) / float64(max(r.refCount, 1)))
}

// runClients drives the deployment with one closed-loop client per plan,
// each on its own keep-alive connection. It aborts with the process's log
// tail if a server process dies while it runs.
func runClients(ctx context.Context, d *deployment, p *pool, w workload, plans [][]request, o loadOpts) (*loadResult, error) {
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		watchers sync.WaitGroup
		diedOnce sync.Once
		died     error
	)
	for _, pr := range d.procs() {
		watchers.Add(1)
		go func(pr *proc) {
			defer watchers.Done()
			select {
			case <-pr.done:
				diedOnce.Do(func() { died = pr.died() })
				cancel()
			case <-runCtx.Done():
			}
		}(pr)
	}

	results := make([]*loadResult, len(plans))
	var wg sync.WaitGroup
	start := time.Now()
	for c, plan := range plans {
		wg.Add(1)
		go func(c int, plan []request) {
			defer wg.Done()
			cl := &client{
				p: p, w: w, o: o, id: c,
				rng: rand.New(rand.NewSource(o.seed + int64(c))),
				http: &http.Client{Timeout: clientTimeout, Transport: &http.Transport{
					MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true,
				}},
			}
			defer cl.http.CloseIdleConnections()
			results[c] = cl.run(runCtx, plan)
		}(c, plan)
	}
	wg.Wait()
	elapsed := time.Since(start)
	cancel()
	watchers.Wait()
	if died != nil {
		return nil, died
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	total := &loadResult{elapsed: elapsed}
	for _, r := range results {
		total.add(r)
	}
	return total, nil
}

// client is one closed-loop sender.
type client struct {
	p    *pool
	w    workload
	o    loadOpts
	id   int
	rng  *rand.Rand
	http *http.Client
	buf  bytes.Buffer
	res  loadResult
}

func (cl *client) run(ctx context.Context, plan []request) *loadResult {
	start := time.Now()
	now := start
	for i := 0; ; {
		if cl.o.duration == 0 && i == len(plan) {
			break
		}
		if cl.o.duration > 0 && now.Sub(start) >= cl.o.duration {
			break
		}
		if ctx.Err() != nil {
			break
		}
		// The clients started together, so they switch together.
		if cl.o.ref != "" && now.Sub(start)%refPeriod >= refPeriod-refShare {
			cl.askReference(ctx)
			t := time.Now()
			cl.res.refNs += t.Sub(now).Nanoseconds()
			now = t
			continue
		}
		cl.send(ctx, &plan[i%len(plan)], i)
		i++
		t := time.Now()
		cl.res.workNs += t.Sub(now).Nanoseconds()
		now = t
	}
	return &cl.res
}

// askReference makes one exchange with the reference server the way send
// makes one with the deployment. A failed exchange is not counted, so a
// reference that has gone away leaves refCount at 0 and fails the run.
func (cl *client) askReference(ctx context.Context) {
	hr, err := http.NewRequestWithContext(ctx, http.MethodGet, cl.o.ref, nil)
	if err != nil {
		return
	}
	resp, err := cl.http.Do(hr)
	if err != nil {
		return
	}
	cl.buf.Reset()
	_, err = cl.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err == nil && resp.StatusCode == http.StatusOK {
		cl.res.refCount++
	}
}

func (cl *client) fail(req *request, n int, format string, args ...any) {
	cl.res.failed += n
	if cl.res.firstFail == "" {
		cl.res.firstFail = fmt.Sprintf("%q: ", cl.p.qs[req.qis[0]].text) + fmt.Sprintf(format, args...)
	}
}

// send issues one request, times it until the whole body has been read,
// and checks the reply.
func (cl *client) send(ctx context.Context, req *request, seq int) {
	n := len(req.qis)
	cl.res.requests++
	cl.res.attempted += n
	var hr *http.Request
	var err error
	if req.body != nil {
		hr, err = http.NewRequestWithContext(ctx, http.MethodPost, req.url, bytes.NewReader(req.body))
	} else {
		hr, err = http.NewRequestWithContext(ctx, http.MethodGet, req.url, nil)
	}
	if err != nil {
		cl.fail(req, n, "build request: %v", err)
		return
	}
	start := time.Now()
	resp, err := cl.http.Do(hr)
	if err != nil {
		if ctx.Err() == nil {
			cl.fail(req, n, "%v", err)
		} else {
			cl.res.requests--
			cl.res.attempted -= n // the run was cancelled under the request; it is not a sample
		}
		return
	}
	cl.buf.Reset()
	_, err = cl.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	end := time.Now()
	if err != nil {
		cl.fail(req, n, "read body: %v", err)
		return
	}
	cl.res.bytes += int64(cl.buf.Len())
	cl.res.samples = append(cl.res.samples, sample{lat: end.Sub(start).Nanoseconds(), class: cl.p.qs[req.qis[0]].class})
	cl.check(req, seq, resp.StatusCode, start, end)
}

// check compares the reply in cl.buf with what the oracle predicts: the
// status always, the body when the run verifies or traces this reply.
func (cl *client) check(req *request, seq, status int, start, end time.Time) {
	n := len(req.qis)
	first := &cl.p.qs[req.qis[0]]
	wantStatus := http.StatusOK
	if req.body == nil && !first.want.answered {
		wantStatus = http.StatusNotFound // a typed refusal the oracle also gives is a correct reply
	}
	if status != wantStatus {
		cl.fail(req, n, "status %d, want %d: %.200s", status, wantStatus, cl.buf.Bytes())
		return
	}
	if !cl.o.verifyAll && cl.o.trace == nil && cl.rng.Intn(verifyEvery) != 0 {
		return
	}
	var replies []askReply
	var err error
	if req.body == nil {
		replies = make([]askReply, 1)
		err = json.Unmarshal(cl.buf.Bytes(), &replies[0])
	} else {
		var br batchReply
		err = json.Unmarshal(cl.buf.Bytes(), &br)
		replies = br.Results
	}
	if err != nil || len(replies) != n {
		cl.fail(req, n, "undecodable reply (%v): %.200s", err, cl.buf.Bytes())
		return
	}
	for i, qi := range req.qis {
		q := &cl.p.qs[qi]
		if !q.want.matches(&replies[i]) {
			cl.res.mismatches++
			cl.fail(req, 1, "reply disagrees with the oracle: got %+v, want %+v", replies[i], q.want)
		}
		if cl.o.judge != nil {
			cl.o.judge(qi, replies[i].Answer)
		}
	}
	if cl.o.trace != nil {
		cl.o.trace.request(cl.id, cl.w, cl.p, req, seq, start, end, status, cl.buf.Len(), replies)
	}
}

// nsToUs converts a nanosecond statistic to microseconds.
func nsToUs(ns float64) float64 { return ns / 1e3 }
