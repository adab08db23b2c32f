package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/kbqa"
)

// lockedBuffer collects the server's JSON log lines from handler
// goroutines so the test can read them afterwards.
type lockedBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// tracedServer builds a dedicated server whose tracer captures nothing by
// sampling (rate 0) and everything by the slow path (threshold 1ns).
func tracedServer(t *testing.T, logBuf *lockedBuffer) (*server, *httptest.Server) {
	t.Helper()
	sys, err := kbqa.Build(kbqa.Options{Flavor: "dbpedia", Seed: 21, Scale: 12, PairsPerIntent: 12})
	if err != nil {
		t.Fatal(err)
	}
	var logger *kbqa.Logger
	if logBuf != nil {
		logger = kbqa.NewLogger(logBuf, kbqa.LogDebug)
	}
	s, err := newServer(sys, kbqa.ServerOptions{
		SlowQueryThreshold: time.Nanosecond, // every request is "slow": capture must not depend on sampling luck
		TraceBuffer:        64,
		Logger:             logger,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.mux())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { s.srv.Close() })
	return s, ts
}

func getJSON(t *testing.T, url string, v any) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if v != nil {
		if err := json.Unmarshal(body, v); err != nil {
			t.Fatalf("GET %s: bad JSON %q: %v", url, body, err)
		}
	}
	return resp, body
}

// TestTraceAPIEndToEnd is the tracing integration test: a deliberately
// slow chain question is always captured (sampling off, slow threshold
// 1ns), the X-Kbqa-Trace header resolves to a /debug/traces entry, and
// that trace nests the parse/match/probe stage spans with durations
// exactly equal to the response's Timings, plus per-hop and probe spans
// from the layers below.
func TestTraceAPIEndToEnd(t *testing.T) {
	var logBuf lockedBuffer
	s, ts := tracedServer(t, &logBuf)

	// Find an answerable composed two-hop chain question.
	var resp askResponse
	var header string
	answered := false
	for _, cq := range s.sys.ComplexQuestions(21, 8) {
		r, _ := getJSON(t, ts.URL+"/ask?q="+escapeQuery(cq.Q), &resp)
		header = r.Header.Get("X-Kbqa-Trace")
		if header == "" {
			t.Fatalf("traced request carries no X-Kbqa-Trace header (question %q)", cq.Q)
		}
		if r.StatusCode == http.StatusOK && resp.Answered {
			answered = true
			break
		}
	}
	if !answered {
		t.Fatal("no composed chain question was answerable; cannot exercise the chain path")
	}
	if resp.TraceID == "" || resp.TraceID != header {
		t.Fatalf("body trace_id %q != X-Kbqa-Trace header %q", resp.TraceID, header)
	}
	if len(resp.Steps) < 2 {
		t.Fatalf("chain answer has %d steps, want >= 2: %+v", len(resp.Steps), resp.Steps)
	}
	if resp.Timings == nil || resp.Timings.Total <= 0 {
		t.Fatalf("answered response carries no timings: %+v", resp.Timings)
	}

	// The trace must be in /debug/traces; the handler finishes the trace
	// before the response is written, so no polling is necessary, but
	// retry briefly anyway to stay robust against scheduling.
	var trace *kbqa.TraceSnapshot
	for attempt := 0; attempt < 50 && trace == nil; attempt++ {
		var tr tracesResponse
		getJSON(t, ts.URL+"/debug/traces", &tr)
		if tr.Count != len(tr.Traces) {
			t.Fatalf("count %d != len(traces) %d", tr.Count, len(tr.Traces))
		}
		for i := range tr.Traces {
			if tr.Traces[i].ID == resp.TraceID {
				trace = &tr.Traces[i]
				break
			}
		}
		if trace == nil {
			time.Sleep(10 * time.Millisecond)
		}
	}
	if trace == nil {
		t.Fatalf("trace %s never appeared in /debug/traces", resp.TraceID)
	}
	if !trace.Slow {
		t.Error("1ns-threshold trace not marked slow")
	}

	root := &trace.Root
	if root.Name != "http.ask" {
		t.Errorf("root span = %q, want http.ask", root.Name)
	}
	for attr, want := range map[string]string{"method": "GET", "path": "/ask", "status": "200"} {
		if v, _ := root.Attr(attr); v != want {
			t.Errorf("root %s attr = %q, want %q", attr, v, want)
		}
	}
	if v, _ := root.Attr("question"); v != resp.Question {
		t.Errorf("root question attr = %q, want %q", v, resp.Question)
	}
	if v, ok := root.Attr("client"); !ok || v == "" {
		t.Error("root span has no client attr")
	}

	// The serving pipeline and engine must hang off the HTTP root.
	for _, name := range []string{"serve.cache", "serve.flight", "serve.engine", "engine.answer", "engine.hop", "engine.probe"} {
		if root.Find(name) == nil {
			t.Errorf("trace has no %s span", name)
		}
	}

	// Stage spans mirror the response Timings exactly: both read the same
	// accumulator, so the integers must be equal, not merely close.
	eng := root.Find("engine.answer")
	if eng == nil {
		t.Fatal("no engine.answer span")
	}
	wantStages := map[string]time.Duration{
		"parse": resp.Timings.Parse,
		"match": resp.Timings.Match,
		"probe": resp.Timings.Probe,
	}
	for stage, want := range wantStages {
		ssp := eng.Find(stage)
		if ssp == nil {
			t.Errorf("engine.answer has no %s stage span", stage)
			continue
		}
		if ssp.DurationNanos != want.Nanoseconds() {
			t.Errorf("%s stage span %dns != response timing %dns", stage, ssp.DurationNanos, want.Nanoseconds())
		}
	}
	if total := trace.DurationNanos; total < resp.Timings.Total.Nanoseconds() {
		t.Errorf("trace duration %dns < engine total %dns", total, resp.Timings.Total.Nanoseconds())
	}

	// Every log line is valid JSON; the request was access-logged with the
	// trace ID, and the slow-query path warned.
	var sawAccess, sawSlow bool
	for _, line := range strings.Split(strings.TrimSpace(logBuf.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line is not JSON: %q", line)
		}
		switch rec["msg"] {
		case "request":
			if rec["trace_id"] == resp.TraceID && rec["path"] == "/ask" && rec["status"] == float64(200) {
				sawAccess = true
			}
		case "slow query":
			sawSlow = true
		}
	}
	if !sawAccess {
		t.Errorf("no access-log line for trace %s:\n%s", resp.TraceID, logBuf.String())
	}
	if !sawSlow {
		t.Error("no slow-query log line despite 1ns threshold")
	}
}

// TestTraceUntracedServer pins the off state at the HTTP layer: no
// header, no trace_id, /debug/traces serves an empty (not null) list.
func TestTraceUntracedServer(t *testing.T) {
	s := testServer(t)
	ts := httptest.NewServer(s.mux())
	defer ts.Close()

	q := s.sys.SampleQuestions(1)[0]
	var resp askResponse
	r, _ := getJSON(t, ts.URL+"/ask?q="+escapeQuery(q), &resp)
	if h := r.Header.Get("X-Kbqa-Trace"); h != "" {
		t.Errorf("untraced server sent X-Kbqa-Trace %q", h)
	}
	if resp.TraceID != "" {
		t.Errorf("untraced response carries trace_id %q", resp.TraceID)
	}
	r, body := getJSON(t, ts.URL+"/debug/traces", nil)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("/debug/traces status = %d", r.StatusCode)
	}
	var tr tracesResponse
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatal(err)
	}
	if tr.Count != 0 {
		t.Errorf("untraced server retained %d traces", tr.Count)
	}
	if !strings.Contains(string(body), `"traces":[]`) {
		t.Errorf("traces should be an empty array, not null: %s", body)
	}
}

// TestBatchTraceHeader checks /batch runs under one trace whose ID every
// answered result echoes, and that /debug/traces holds it as the http.batch
// root with one batch.question span per question and nothing of the
// pipeline under it.
func TestBatchTraceHeader(t *testing.T) {
	s, ts := tracedServer(t, nil)
	qs := s.sys.SampleQuestions(3)
	body, _ := json.Marshal(batchRequest{Questions: qs})
	r, err := http.Post(ts.URL+"/batch", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	header := r.Header.Get("X-Kbqa-Trace")
	if header == "" {
		t.Fatal("batch response has no X-Kbqa-Trace header")
	}
	var resp batchResponse
	if err := json.NewDecoder(r.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	for i, item := range resp.Results {
		if item.Answered && item.TraceID != header {
			t.Errorf("result %d trace_id %q != batch trace %q", i, item.TraceID, header)
		}
	}
	var tr tracesResponse
	getJSON(t, ts.URL+"/debug/traces", &tr)
	for i := range tr.Traces {
		if tr.Traces[i].ID == header {
			root := tr.Traces[i].Root
			if root.Name != "http.batch" {
				t.Errorf("batch trace root = %q, want http.batch", root.Name)
			}
			if len(root.Children) != len(qs) {
				t.Fatalf("batch trace root has %d children, want %d", len(root.Children), len(qs))
			}
			for _, c := range root.Children {
				q, _ := c.Attr("question")
				if c.Name != "batch.question" || q == "" {
					t.Errorf("batch trace child %s (question %q), want a batch.question span", c.Name, q)
				}
				for _, g := range c.Children {
					if g.Name != "parse" && g.Name != "match" && g.Name != "probe" || g.Children != nil {
						t.Errorf("batch.question %q has a %s child, want only its stages", q, g.Name)
					}
				}
			}
			return
		}
	}
	t.Fatalf("batch trace %s not retained", header)
}

// TestHealthEndpoints covers /healthz (always ok) and /readyz (503 until
// the boot sequence completes, 200 after).
func TestHealthEndpoints(t *testing.T) {
	s, ts := tracedServer(t, nil)

	var h healthResponse
	r, _ := getJSON(t, ts.URL+"/healthz", &h)
	if r.StatusCode != http.StatusOK || h.Status != "ok" {
		t.Errorf("/healthz = %d %+v, want 200 ok", r.StatusCode, h)
	}
	if h.UptimeSeconds < 0 {
		t.Errorf("negative uptime %f", h.UptimeSeconds)
	}

	// Boot not finished: not ready.
	r, _ = getJSON(t, ts.URL+"/readyz", &h)
	if r.StatusCode != http.StatusServiceUnavailable || h.Status != "starting" {
		t.Errorf("/readyz before boot = %d %q, want 503 starting", r.StatusCode, h.Status)
	}
	s.ready.Store(true)
	r, _ = getJSON(t, ts.URL+"/readyz", &h)
	if r.StatusCode != http.StatusOK || h.Status != "ready" {
		t.Errorf("/readyz after boot = %d %q, want 200 ready", r.StatusCode, h.Status)
	}
	s.ready.Store(false)
	if r, _ = getJSON(t, ts.URL+"/readyz", &h); r.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/readyz after shutdown flip = %d, want 503", r.StatusCode)
	}
}

// TestPprofRoutes checks the profiler is mounted on the real mux.
func TestPprofRoutes(t *testing.T) {
	s := testServer(t)
	ts := httptest.NewServer(s.mux())
	defer ts.Close()
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline", "/debug/pprof/heap?debug=1"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
	}
}

// TestAskTimingsSurfaced: the /ask body carries the per-stage timings of
// the computation even without tracing.
func TestAskTimingsSurfaced(t *testing.T) {
	s := testServer(t)
	q := s.sys.SampleQuestions(2)[1]
	req := httptest.NewRequest(http.MethodGet, "/ask?q="+escapeQuery(q), nil)
	rec := httptest.NewRecorder()
	s.handleAsk(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	var resp askResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Timings == nil {
		t.Fatal("answered response carries no timings")
	}
	if resp.Timings.Total <= 0 {
		t.Errorf("total timing %v, want > 0", resp.Timings.Total)
	}
}

// TestTraceByIDLookup covers the single-trace endpoint: /debug/traces?id=
// returns exactly the identified trace as a bare TraceSnapshot, and a
// 404 JSON error body when the ring does not hold the ID.
func TestTraceByIDLookup(t *testing.T) {
	s, ts := tracedServer(t, nil)
	_ = s

	var ask askResponse
	r, _ := getJSON(t, ts.URL+"/ask?q="+escapeQuery("who directed Inception"), &ask)
	id := r.Header.Get("X-Kbqa-Trace")
	if id == "" {
		t.Fatal("traced request carries no X-Kbqa-Trace header")
	}

	var snap kbqa.TraceSnapshot
	resp, body := getJSON(t, ts.URL+"/debug/traces?id="+id, &snap)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/traces?id=%s: status %d, body %s", id, resp.StatusCode, body)
	}
	if snap.ID != id {
		t.Fatalf("lookup returned trace %q, want %q", snap.ID, id)
	}
	if snap.Root.Name == "" {
		t.Fatalf("single-trace lookup returned an empty root span: %s", body)
	}

	var missErr traceErrorResponse
	resp, body = getJSON(t, ts.URL+"/debug/traces?id=no-such-trace", &missErr)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("bogus id: status %d, want 404 (body %s)", resp.StatusCode, body)
	}
	if !strings.Contains(missErr.Error, "no-such-trace") {
		t.Fatalf("404 body does not name the missing id: %s", body)
	}
}
