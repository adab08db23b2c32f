package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/kbqa"
)

var (
	srvOnce sync.Once
	srv     *server
)

func testServer(t *testing.T) *server {
	t.Helper()
	srvOnce.Do(func() {
		sys, err := kbqa.Build(kbqa.Options{Flavor: "dbpedia", Seed: 42, Scale: 12, PairsPerIntent: 12})
		if err != nil {
			panic(err)
		}
		srv, err = newServer(sys, kbqa.ServerOptions{})
		if err != nil {
			panic(err)
		}
	})
	return srv
}

func TestHandleAskAnswered(t *testing.T) {
	s := testServer(t)
	q := s.sys.SampleQuestions(1)[0]
	req := httptest.NewRequest(http.MethodGet, "/ask?q="+escapeQuery(q), nil)
	rec := httptest.NewRecorder()
	s.handleAsk(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var resp askResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Answered || resp.Answer == "" || resp.Predicate == "" {
		t.Fatalf("response = %+v", resp)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type = %q", ct)
	}
}

func TestHandleAskUnanswered(t *testing.T) {
	s := testServer(t)
	req := httptest.NewRequest(http.MethodGet, "/ask?q=what+is+the+meaning+of+life", nil)
	rec := httptest.NewRecorder()
	s.handleAsk(rec, req)
	if rec.Code != http.StatusNotFound {
		t.Errorf("status = %d, want 404", rec.Code)
	}
	var resp askResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Answered {
		t.Errorf("unanswerable question answered: %+v", resp)
	}
	if resp.Error == "" {
		t.Errorf("404 body carries no error: %+v", resp)
	}
}

func TestHandleAskMissingQuery(t *testing.T) {
	s := testServer(t)
	req := httptest.NewRequest(http.MethodGet, "/ask", nil)
	rec := httptest.NewRecorder()
	s.handleAsk(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("status = %d, want 400", rec.Code)
	}
}

func TestHandleStats(t *testing.T) {
	s := testServer(t)
	rec := httptest.NewRecorder()
	s.handleStats(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	var st kbqa.Stats
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Templates == 0 || st.Entities == 0 {
		t.Errorf("stats = %+v", st)
	}
}

func postBatch(t *testing.T, s *server, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/batch", strings.NewReader(body))
	rec := httptest.NewRecorder()
	s.handleBatch(rec, req)
	return rec
}

func TestHandleBatch(t *testing.T) {
	s := testServer(t)
	qs := s.sys.SampleQuestions(3)
	questions := append(qs, "what is the meaning of life")
	body, _ := json.Marshal(batchRequest{Questions: questions})
	rec := postBatch(t, s, string(body))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	var resp batchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != len(questions) {
		t.Fatalf("got %d results, want %d", len(resp.Results), len(questions))
	}
	for i, r := range resp.Results {
		if r.Question != questions[i] {
			t.Errorf("result %d out of order: %q != %q", i, r.Question, questions[i])
		}
	}
	for _, r := range resp.Results[:len(qs)] {
		if !r.Answered || r.Answer == "" {
			t.Errorf("answerable question unanswered: %+v", r)
		}
	}
	if last := resp.Results[len(questions)-1]; last.Answered || last.Error == "" {
		t.Errorf("unanswerable slot = %+v", last)
	}
}

func TestHandleBatchRejectsBadRequests(t *testing.T) {
	s := testServer(t)
	if rec := postBatch(t, s, `{"questions": []}`); rec.Code != http.StatusBadRequest {
		t.Errorf("empty batch: status = %d, want 400", rec.Code)
	}
	if rec := postBatch(t, s, `{]`); rec.Code != http.StatusBadRequest {
		t.Errorf("bad JSON: status = %d, want 400", rec.Code)
	}
	big, _ := json.Marshal(batchRequest{Questions: make([]string, maxBatchSize+1)})
	if rec := postBatch(t, s, string(big)); rec.Code != http.StatusBadRequest {
		t.Errorf("oversized batch: status = %d, want 400", rec.Code)
	}
	// A negative topk is the same 400, with the same error text, on both
	// endpoints.
	askRec := httptest.NewRecorder()
	s.handleAsk(askRec, httptest.NewRequest(http.MethodGet, "/ask?q=x&topk=-1", nil))
	var askErr, batchErr askResponse
	json.Unmarshal(askRec.Body.Bytes(), &askErr)
	negRec := postBatch(t, s, `{"questions": ["x"], "topk": -1}`)
	json.Unmarshal(negRec.Body.Bytes(), &batchErr)
	if negRec.Code != http.StatusBadRequest || askRec.Code != http.StatusBadRequest ||
		batchErr.Error == "" || batchErr.Error != askErr.Error {
		t.Errorf("negative topk: /batch = %d %q, /ask = %d %q, want 400 with one error text",
			negRec.Code, batchErr.Error, askRec.Code, askErr.Error)
	}
	req := httptest.NewRequest(http.MethodGet, "/batch", nil)
	rec := httptest.NewRecorder()
	s.handleBatch(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /batch: status = %d, want 405", rec.Code)
	}
	huge := `{"questions": ["` + strings.Repeat("x", maxBatchBodyBytes+1) + `"]}`
	if rec := postBatch(t, s, huge); rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status = %d, want 413", rec.Code)
	}
}

func TestHandleMetrics(t *testing.T) {
	s := testServer(t)
	// Generate some traffic so counters are non-trivial.
	q := s.sys.SampleQuestions(1)[0]
	for i := 0; i < 3; i++ {
		rec := httptest.NewRecorder()
		s.handleAsk(rec, httptest.NewRequest(http.MethodGet, "/ask?q="+escapeQuery(q), nil))
	}
	rec := httptest.NewRecorder()
	s.handleMetrics(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var m kbqa.ServerMetrics
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	if m.Served == 0 {
		t.Fatal("no served requests recorded")
	}
	if m.CacheHits+m.CacheMisses != m.Served {
		t.Errorf("hits(%d) + misses(%d) != served(%d)", m.CacheHits, m.CacheMisses, m.Served)
	}
	if m.Stages["total"].Count == 0 {
		t.Errorf("total-stage histogram empty: %+v", m.Stages)
	}
}

// TestBatchAllErroredMapsToErrStatus: a batch where every item failed on a
// serving-layer error must not report 200 to status-code-based clients.
func TestBatchAllErroredMapsToErrStatus(t *testing.T) {
	sys, err := kbqa.Build(kbqa.Options{Flavor: "dbpedia", Seed: 3, Scale: 8, PairsPerIntent: 8})
	if err != nil {
		t.Fatal(err)
	}
	s, err := newServer(sys, kbqa.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s.srv.Close() // draining server: every item gets ErrShuttingDown
	body, _ := json.Marshal(batchRequest{Questions: []string{"a", "b"}})
	rec := postBatch(t, s, string(body))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503: %s", rec.Code, rec.Body.String())
	}
	var resp batchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	for i, r := range resp.Results {
		if r.Error == "" {
			t.Errorf("slot %d carries no error: %+v", i, r)
		}
	}
}

// TestConcurrentMixedTraffic hammers /ask and /batch from 32 goroutines
// through the real mux (run with -race); afterwards the cache counters must
// be consistent: every served request recorded exactly one hit or miss.
func TestConcurrentMixedTraffic(t *testing.T) {
	sys, err := kbqa.Build(kbqa.Options{Flavor: "freebase", Seed: 7, Scale: 10, PairsPerIntent: 10})
	if err != nil {
		t.Fatal(err)
	}
	s, err := newServer(sys, kbqa.ServerOptions{CacheEntries: 64})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.mux())
	defer ts.Close()

	qs := sys.SampleQuestions(8)
	if len(qs) == 0 {
		t.Fatal("no sample questions")
	}
	const goroutines = 32
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				if (g+i)%2 == 0 {
					q := qs[(g+i)%len(qs)]
					resp, err := http.Get(ts.URL + "/ask?q=" + escapeQuery(q))
					if err != nil {
						errs <- err
						return
					}
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						errs <- fmt.Errorf("GET /ask?q=%s: status %d", q, resp.StatusCode)
						return
					}
				} else {
					body, _ := json.Marshal(batchRequest{Questions: qs[:4]})
					resp, err := http.Post(ts.URL+"/batch", "application/json", bytes.NewReader(body))
					if err != nil {
						errs <- err
						return
					}
					resp.Body.Close()
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	m := s.srv.Metrics()
	if m.Served == 0 {
		t.Fatal("no traffic recorded")
	}
	if m.CacheHits+m.CacheMisses != m.Served {
		t.Errorf("hits(%d) + misses(%d) != served(%d)", m.CacheHits, m.CacheMisses, m.Served)
	}
	if m.InFlight != 0 {
		t.Errorf("in-flight gauge = %d after drain, want 0", m.InFlight)
	}
}

// raceEnabled is set by race_test.go under the race detector, which drops
// sync.Pool items at random and so changes allocation counts.
var raceEnabled bool

// discardWriter is a ResponseWriter that allocates nothing of its own.
type discardWriter struct {
	h      http.Header
	status int
}

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardWriter) WriteHeader(code int)        { d.status = code }

// TestWarmAskAllocs counts what a warm /ask allocates in the HTTP shell: the
// mux, the tracer as shipped (-slow-query 500ms, so nothing is retained), an
// info access log, the cache hit and the reply. A count repeats where a
// clock does not. Rendering the reply and the log line by reflection, and
// parsing the query string twice, cost 72 here; appending them costs 27,
// and the ceiling leaves about 10 % headroom over that.
func TestWarmAskAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	sys := testServer(t).sys
	s, err := newServer(sys, kbqa.ServerOptions{
		SlowQueryThreshold: 500 * time.Millisecond,
		Logger:             kbqa.NewLogger(io.Discard, kbqa.LogInfo),
	})
	if err != nil {
		t.Fatal(err)
	}
	mux := s.mux()
	req := httptest.NewRequest(http.MethodGet, "/ask?q="+escapeQuery(sys.SampleQuestions(1)[0]), nil)
	w := &discardWriter{h: http.Header{}}
	ask := func() {
		clear(w.h)
		w.status = 0
		mux.ServeHTTP(w, req)
	}
	ask() // the miss that fills the cache
	if w.status != http.StatusOK || w.h.Get("X-Kbqa-Trace") == "" {
		t.Fatalf("status %d, header %v: want a traced 200", w.status, w.h)
	}
	n := testing.AllocsPerRun(200, ask)
	t.Logf("a warm /ask allocates %v times", n)
	if n > 30 {
		t.Errorf("a warm /ask allocates %v times, ceiling 30", n)
	}
}

func escapeQuery(q string) string {
	out := make([]byte, 0, len(q))
	for i := 0; i < len(q); i++ {
		switch q[i] {
		case ' ':
			out = append(out, '+')
		case '?':
			out = append(out, "%3F"...)
		case '\'':
			out = append(out, "%27"...)
		default:
			out = append(out, q[i])
		}
	}
	return string(out)
}
