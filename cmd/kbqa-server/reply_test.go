package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/kbqa"
)

// The reference rendering: the struct every /ask and /batch body was built
// as, and json.NewEncoder(w).Encode of it, which reply must reproduce byte
// for byte. The JSON-decoding tests of this package read replies back
// through it too.

type askResponse struct {
	Question        string                `json:"question"`
	Answered        bool                  `json:"answered"`
	Answer          string                `json:"answer,omitempty"`
	Values          []string              `json:"values,omitempty"`
	Predicate       string                `json:"predicate,omitempty"`
	Template        string                `json:"template,omitempty"`
	Steps           []kbqa.Step           `json:"steps,omitempty"`
	Variant         *kbqa.VariantAnswer   `json:"variant,omitempty"`
	Interpretations []kbqa.Interpretation `json:"interpretations,omitempty"`
	TraceID         string                `json:"trace_id,omitempty"`
	Timings         *kbqa.QueryTimings    `json:"timings,omitempty"`
	Error           string                `json:"error,omitempty"`
	ErrorCode       string                `json:"error_code,omitempty"`
}

type batchResponse struct {
	Results []askResponse `json:"results"`
}

// toAskResponse is the reference form of one Query outcome.
func toAskResponse(q string, res *kbqa.Result, err error) askResponse {
	if err != nil {
		return askResponse{Question: q, Error: err.Error(), ErrorCode: kbqa.ErrorCode(err)}
	}
	resp := askResponse{Question: q, Answered: true, Interpretations: res.Interpretations, TraceID: res.TraceID}
	tm := res.Timings
	resp.Timings = &tm
	if res.Answer != nil {
		resp.Answer = res.Answer.Value
		resp.Values = res.Answer.Values
		resp.Predicate = res.Answer.Predicate
		resp.Template = res.Answer.Template
		resp.Steps = res.Answer.Steps
	}
	if res.Variant != nil {
		resp.Variant = res.Variant
		resp.Answer = strings.Join(res.Variant.Entities, ", ")
	}
	return resp
}

func encodeReference(t *testing.T, v any) string {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// appended is one outcome as send writes it.
func appended(q string, res *kbqa.Result, err error) string {
	var rp reply
	rp.outcome(q, res, err)
	return string(rp.b) + "\n"
}

// goldenWorld is the default world kbqa's golden gate pins, with the gate's
// questions: the training corpus, composed complex questions and the five
// variant questions.
var goldenWorld = sync.OnceValues(func() (*kbqa.System, []string) {
	sys, err := kbqa.Build(kbqa.Options{Flavor: "freebase", Seed: 42})
	if err != nil {
		panic(err)
	}
	var qs []string
	for _, p := range sys.TrainingCorpus() {
		qs = append(qs, p.Q)
	}
	for _, cq := range sys.ComplexQuestions(17, 20) {
		qs = append(qs, cq.Q)
	}
	return sys, append(qs,
		"Which city has the largest population?",
		"Which city has the 3rd largest population?",
		"Which city has the smallest area?",
		"List cities by population",
		"List countries ordered by area")
})

// hostile are strings every escaping rule of encoding/json applies to.
var hostile = []string{
	"", "<script>a && b</script>", `say "hi"`, `back\slash`,
	"ctl\x00\x01\b\f\n\r\t\x1f\x7f", "sep\u2028and\u2029", "bad\xff\xfeutf8\xc3", "truncated \xe2\x82",
	"ünïcødé ✓ 🙂",
}

// TestReplyMatchesEncoder: every body the appender writes is the body the
// reference struct and encoder wrote — over the golden questions at every
// topk and with and without a trace ID, every error code, every rejection
// the handlers send, hostile strings in every field, and a whole /batch.
func TestReplyMatchesEncoder(t *testing.T) {
	sys, questions := goldenWorld()
	ctx := context.Background()
	compared := 0
	check := func(t *testing.T, q string, res *kbqa.Result, err error) {
		t.Helper()
		compared++
		want := encodeReference(t, toAskResponse(q, res, err))
		if got := appended(q, res, err); got != want {
			t.Fatalf("%q:\n got %s\nwant %s", q, got, want)
		}
	}

	t.Run("golden", func(t *testing.T) {
		variants := 0
		for _, q := range questions {
			for _, k := range []int{-1, 0, 1, 3, 8} {
				var opts []kbqa.QueryOption
				if k >= 0 {
					opts = append(opts, kbqa.WithTopK(k))
				}
				res, err := sys.Query(ctx, q, opts...)
				check(t, q, res, err)
				if err == nil {
					if res.Variant != nil {
						variants++
					}
					traced := *res
					traced.TraceID = "1f2e3d4c5b6a7988"
					check(t, q, &traced, nil)
				}
			}
		}
		if variants != 5*5 {
			t.Fatalf("%d variant replies, want the five variant questions at five topk values", variants)
		}
	})

	t.Run("errors", func(t *testing.T) {
		for _, err := range []error{
			kbqa.ErrNoEntity, kbqa.ErrNoTemplate, kbqa.ErrNoAnswer,
			context.DeadlineExceeded, context.Canceled, kbqa.ErrShuttingDown,
			fmt.Errorf("%w: boom", kbqa.ErrEnginePanic), errors.New("transient"),
		} {
			check(t, "what is the population of norhaven?", nil, err)
		}
	})

	t.Run("hostile", func(t *testing.T) {
		for _, h := range hostile {
			check(t, h, &kbqa.Result{
				Answer: &kbqa.Answer{Value: h, Values: []string{h, "x"}, Predicate: h, Template: h, Score: 0.5,
					Steps: []kbqa.Step{{Question: h, Questions: []string{h, "y"}, Template: h, Predicate: h, Value: h}, {Question: h}}},
				Interpretations: []kbqa.Interpretation{
					{Entity: h, Template: h, Predicate: h, Score: 1.0 / 3, Values: []string{h}},
					{Entity: h, Score: 2.5e-7, Values: []string{}},
				},
				TraceID: h,
				Timings: kbqa.QueryTimings{Parse: 1, Match: 22, Probe: 333, Total: 4444},
			}, nil)
			check(t, h, &kbqa.Result{Variant: &kbqa.VariantAnswer{Kind: h, Entities: []string{h, h}, Values: []string{h, ""}, Predicate: h}}, nil)
			check(t, h, &kbqa.Result{Variant: &kbqa.VariantAnswer{Kind: "listing", Values: []string{}}}, nil)
			check(t, h, &kbqa.Result{Answer: &kbqa.Answer{Steps: []kbqa.Step{}}}, nil)
			check(t, h, &kbqa.Result{}, nil)
			check(t, h, nil, errors.New(h))
		}
		for _, score := range []float64{0, math.Copysign(0, -1), 1, 1e-6, 9.999e-7, 1e-7, 5e-324, 1e20, 1e21, -1.5e300, math.MaxFloat64} {
			check(t, "q", &kbqa.Result{Interpretations: []kbqa.Interpretation{{Score: score}}}, nil)
		}
		// A score JSON cannot carry fails the reply the way the encoder did.
		var rp reply
		rp.outcome("q", &kbqa.Result{Interpretations: []kbqa.Interpretation{{Score: math.NaN()}}}, nil)
		err := json.NewEncoder(&bytes.Buffer{}).Encode(toAskResponse("q", &kbqa.Result{Interpretations: []kbqa.Interpretation{{Score: math.NaN()}}}, nil))
		if rp.err == nil || err == nil || rp.err.Error() != err.Error() {
			t.Fatalf("NaN score: reply error %v, encoder error %v", rp.err, err)
		}
	})

	t.Run("handlers", func(t *testing.T) {
		s, err := newServer(sys, kbqa.ServerOptions{})
		if err != nil {
			t.Fatal(err)
		}
		limited, err := newServer(sys, kbqa.ServerOptions{RateLimit: 0.001, RateBurst: 1})
		if err != nil {
			t.Fatal(err)
		}
		closed, err := newServer(sys, kbqa.ServerOptions{})
		if err != nil {
			t.Fatal(err)
		}
		closed.srv.Close()
		badJSON := json.NewDecoder(strings.NewReader(`{]`)).Decode(&batchRequest{})
		oversized, _ := json.Marshal(batchRequest{Questions: make([]string, maxBatchSize+1)})
		huge := `{"questions": ["` + strings.Repeat("x", maxBatchBodyBytes+1) + `"]}`
		unanswerable := "why is the sky blue at noon"
		_, noAnswer := s.srv.Query(ctx, unanswerable)
		_, xErr := s.srv.Query(ctx, "x")
		for _, c := range []struct {
			s      *server
			method string
			target string
			body   string
			status int
			want   any
		}{
			{s, http.MethodGet, "/ask", "", 400, askResponse{Error: `missing query parameter "q"`}},
			{s, http.MethodGet, "/ask?q=x&topk=bogus", "", 400, askResponse{Question: "x", Error: `bad topk "bogus"`}},
			{s, http.MethodGet, "/ask?q=x&topk=-1", "", 400, askResponse{Question: "x", Error: `bad topk "-1"`}},
			{s, http.MethodGet, "/ask?q=" + strings.ReplaceAll(unanswerable, " ", "+"), "", 404, toAskResponse(unanswerable, nil, noAnswer)},
			{closed, http.MethodGet, "/ask?q=x", "", 503, toAskResponse("x", nil, kbqa.ErrShuttingDown)},
			{limited, http.MethodGet, "/ask?q=x", "", errStatus(xErr), toAskResponse("x", nil, xErr)},
			{limited, http.MethodGet, "/ask?q=x", "", 429, askResponse{Error: "rate limit exceeded", ErrorCode: "rate_limited"}},
			{limited, http.MethodPost, "/batch", `{"questions":["x"]}`, 429, askResponse{Error: "rate limit exceeded", ErrorCode: "rate_limited"}},
			{s, http.MethodGet, "/batch", "", 405, askResponse{Error: "POST only"}},
			{s, http.MethodPost, "/batch", `{]`, 400, askResponse{Error: "bad request body: " + badJSON.Error()}},
			{s, http.MethodPost, "/batch", `{"questions": []}`, 400, askResponse{Error: `empty "questions"`}},
			{s, http.MethodPost, "/batch", string(oversized), 400, askResponse{Error: "batch of 257 exceeds limit 256"}},
			{s, http.MethodPost, "/batch", `{"questions": ["x"], "topk": -1}`, 400, askResponse{Error: `bad topk "-1"`}},
			{s, http.MethodPost, "/batch", huge, 413, askResponse{Error: fmt.Sprintf("request body exceeds %d bytes", maxBatchBodyBytes)}},
			{closed, http.MethodPost, "/batch", `{"questions":["x","y"]}`, 503, batchResponse{Results: []askResponse{
				toAskResponse("x", nil, kbqa.ErrShuttingDown), toAskResponse("y", nil, kbqa.ErrShuttingDown)}}},
		} {
			rec := httptest.NewRecorder()
			c.s.mux().ServeHTTP(rec, httptest.NewRequest(c.method, c.target, strings.NewReader(c.body)))
			compared++
			if want := encodeReference(t, c.want); rec.Code != c.status || rec.Body.String() != want {
				t.Errorf("%s %s: %d %s\nwant %d %s", c.method, c.target, rec.Code, rec.Body, c.status, want)
			}
		}
	})

	t.Run("batch", func(t *testing.T) {
		s, err := newServer(sys, kbqa.ServerOptions{})
		if err != nil {
			t.Fatal(err)
		}
		qs := append(append([]string{}, questions[:40]...), questions[len(questions)-45:]...)
		qs = append(qs, hostile[1:]...)
		body, _ := json.Marshal(batchRequest{Questions: qs, TopK: 8})
		rec := postBatch(t, s, string(body))
		// The batch left every outcome in the cache, so asking again
		// returns the very Results, timings included. The questions are
		// asked as the server decoded them: the request's JSON carried each
		// invalid UTF-8 byte as U+FFFD.
		var sent batchRequest
		if err := json.Unmarshal(body, &sent); err != nil {
			t.Fatal(err)
		}
		items := s.srv.QueryBatch(ctx, sent.Questions, kbqa.WithTopK(8))
		ref := batchResponse{Results: make([]askResponse, len(items))}
		for i, it := range items {
			ref.Results[i] = toAskResponse(it.Question, it.Result, it.Err)
		}
		compared++
		if want := encodeReference(t, ref); rec.Code != http.StatusOK || rec.Body.String() != want {
			t.Fatalf("/batch: %d\n got %s\nwant %s", rec.Code, rec.Body, want)
		}
	})
	t.Logf("%d replies compared", compared)
}
