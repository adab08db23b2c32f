// Command kbqa-server exposes a trained KBQA system over HTTP through the
// production serving runtime (answer cache keyed by the model that computed
// each answer — optionally disk-backed so answers survive restarts —
// singleflight deduplication, per-client rate limiting, admission control,
// batch executor, metrics pipeline) on top of the unified Query API.
//
// Endpoints:
//
//	GET  /ask?q=<question>[&topk=N]  -> JSON answer with ranked
//	     interpretations; failures carry a stable error_code
//	     (no_entity, no_template, no_answer, timeout, ...)
//	POST /batch                      -> {"questions": [...], "topk": N}
//	     -> ordered answers
//	GET  /metrics                    -> JSON counters and latency
//	     histograms; ?format=prometheus (or Accept: text/plain) returns
//	     the Prometheus text exposition
//	GET  /stats                      -> system statistics
//	GET  /healthz                    -> JSON liveness: status, generation
//	     (model swaps since boot), uptime
//	GET  /readyz                     -> JSON readiness: 503 until the boot
//	     sequence (replay, warm) completes, 200 after
//	GET  /debug/traces               -> retained request traces, newest
//	     first (see -trace-sample / -slow-query)
//	GET  /debug/pprof/...            -> the Go runtime profiler
//
// Requests to /ask and /batch run under a trace when tracing is on (by
// default: -slow-query > 0 or -trace-sample > 0): the response carries the
// trace ID in the X-Kbqa-Trace header (and trace_id in the JSON body), and
// sampled or slow traces are retained for /debug/traces with nested
// parse/match/probe, per-hop and per-RPC spans. Logs are structured
// JSON lines on stderr (-log-level selects the floor); every request is
// access-logged with trace_id, client, generation, status and duration.
//
// With -cache-dir the answer cache persists across restarts (append-only
// checksummed segment log: rotation + background merge keep compaction
// off the request path, and the directory is flock-guarded against a
// second server process); -cache-sync bounds durability — an answer is
// durable within that period of being computed; -cache-ttl expires
// entries (expired entries are also dropped from disk by merges);
// -warm N primes the cache with N training-corpus questions at boot;
// -rate-limit R (with -rate-burst B) enforces a per-client token-bucket
// quota, answering 429 with a Retry-After header once a client (identified
// by X-API-Key, else remote address) exhausts its bucket.
//
// -kb-image serves the knowledge base from a snapshot image written by
// kbqa-learn -kb-image; -shard-servers serves it from kbqa-shard processes,
// each holding the whole world, one frame per read phase.
// Either must hold the world -flavor and -seed describe.
//
// The server shuts down gracefully on SIGINT/SIGTERM, draining in-flight
// requests and flushing the persistent cache before exiting; per-request
// deadlines reach the engine's probe loops, so expired requests stop
// working instead of leaking scans.
//
// Usage:
//
//	kbqa-server -addr :8080 -flavor freebase -timeout 2s -cache 4096 \
//	    -cache-dir /var/lib/kbqa/cache -cache-ttl 1h -warm 256 \
//	    -rate-limit 50 -rate-burst 100
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/kbqa"
)

// maxBatchSize caps one /batch request; bigger workloads should page.
const maxBatchSize = 256

// maxBatchBodyBytes bounds the /batch request body before JSON decoding,
// so an oversized payload is rejected instead of buffered into memory.
const maxBatchBodyBytes = 1 << 20

// maxTopK caps client-requested interpretation counts.
const maxTopK = 32

type server struct {
	sys     *kbqa.System
	srv     *kbqa.Server
	log     *kbqa.Logger // nil discards
	limited bool         // a per-client rate limit is configured
	start   time.Time
	ready   atomic.Bool // set once the boot sequence (replay, warm) completes
}

func newServer(sys *kbqa.System, o kbqa.ServerOptions) (*server, error) {
	srv, err := sys.Server(o)
	if err != nil {
		return nil, err
	}
	return &server{sys: sys, srv: srv, log: o.Logger, limited: o.RateLimit > 0, start: time.Now()}, nil
}

// clampTopK validates a client-requested interpretation count for /ask and
// /batch alike: a negative count is refused, one above maxTopK is capped.
func clampTopK(k int) (int, error) {
	if k < 0 {
		return 0, fmt.Errorf("bad topk %q", strconv.Itoa(k))
	}
	return min(k, maxTopK), nil
}

// parseTopK reads the /ask topk parameter; empty keeps the library default.
func parseTopK(raw string) ([]kbqa.QueryOption, error) {
	if raw == "" {
		return nil, nil
	}
	k, err := strconv.Atoi(raw)
	if err == nil {
		k, err = clampTopK(k)
	}
	if err != nil {
		return nil, fmt.Errorf("bad topk %q", raw)
	}
	return []kbqa.QueryOption{kbqa.WithTopK(k)}, nil
}

// handleAsk parses the query string once. The question goes on the
// request's root span (traced's, the span active on entry) first, and the
// quota is charged before the question is checked, so a refused request's
// trace still names its question and an over-quota client is refused
// whatever it sent.
func (s *server) handleAsk(w http.ResponseWriter, r *http.Request) {
	query := r.URL.Query()
	q := query.Get("q")
	if q != "" {
		obs.ActiveSpan(r.Context()).SetAttr("question", q)
	}
	if s.overQuota(w, r, 1) {
		return
	}
	if q == "" {
		s.fail(w, http.StatusBadRequest, "", `missing query parameter "q"`, "")
		return
	}
	opts, err := parseTopK(query.Get("topk"))
	if err != nil {
		s.fail(w, http.StatusBadRequest, q, err.Error(), "")
		return
	}
	res, err := s.srv.Query(r.Context(), q, opts...)
	status := http.StatusOK
	if err != nil {
		status = errStatus(err)
	}
	rp := newReply()
	rp.outcome(q, res, err)
	s.send(w, status, rp)
}

type batchRequest struct {
	Questions []string `json:"questions"`
	// TopK bounds the per-question interpretation count (0 keeps the
	// library default).
	TopK int `json:"topk,omitempty"`
}

func (s *server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.fail(w, http.StatusMethodNotAllowed, "", "POST only", "")
		return
	}
	var req batchRequest
	r.Body = http.MaxBytesReader(w, r.Body, maxBatchBodyBytes)
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		var maxErr *http.MaxBytesError
		if errors.As(err, &maxErr) {
			s.fail(w, http.StatusRequestEntityTooLarge, "", fmt.Sprintf("request body exceeds %d bytes", maxBatchBodyBytes), "")
			return
		}
		s.fail(w, http.StatusBadRequest, "", "bad request body: "+err.Error(), "")
		return
	}
	if len(req.Questions) == 0 {
		s.fail(w, http.StatusBadRequest, "", `empty "questions"`, "")
		return
	}
	if len(req.Questions) > maxBatchSize {
		s.fail(w, http.StatusBadRequest, "", fmt.Sprintf("batch of %d exceeds limit %d", len(req.Questions), maxBatchSize), "")
		return
	}
	topK, err := clampTopK(req.TopK)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "", err.Error(), "")
		return
	}
	// One quota unit per question: a 256-question batch spends the same
	// budget as 256 /ask calls.
	if s.overQuota(w, r, len(req.Questions)) {
		return
	}
	var opts []kbqa.QueryOption
	if topK > 0 {
		opts = append(opts, kbqa.WithTopK(topK))
	}
	items := s.srv.QueryBatch(r.Context(), req.Questions, opts...)
	// The batch is one trace, the one traced opened: every answered item
	// carries its ID.
	tid := obs.TraceID(r.Context())
	rp := newReply()
	rp.b = append(rp.b, `{"results":[`...)
	var firstInfraErr error
	infraErrored := 0
	for i, it := range items {
		if i > 0 {
			rp.b = append(rp.b, ',')
		}
		if it.Err == nil {
			rp.answered(it.Question, it.Result, tid)
			continue
		}
		rp.outcome(it.Question, nil, it.Err)
		if !kbqa.IsUnanswerable(it.Err) {
			infraErrored++
			if firstInfraErr == nil {
				firstInfraErr = it.Err
			}
		}
	}
	// A batch where every item died on a serving-layer error (shutdown,
	// saturation) should look unhealthy to status-code-based clients, the
	// same way /ask does; partial failures and unanswerable questions stay
	// 200 with per-item error codes.
	rp.b = append(rp.b, "]}"...)
	status := http.StatusOK
	if infraErrored == len(items) {
		status = errStatus(firstInfraErr)
	}
	s.send(w, status, rp)
}

// handleMetrics serves the JSON snapshot by default and the Prometheus
// text exposition when asked via ?format=prometheus or an Accept header
// preferring text/plain.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	format := r.URL.Query().Get("format")
	accept := r.Header.Get("Accept")
	if format == "prometheus" || (format == "" && strings.Contains(accept, "text/plain")) {
		w.Header().Set("Content-Type", kbqa.PrometheusContentType)
		if err := s.srv.WriteMetricsPrometheus(w); err != nil {
			s.log.Error("write prometheus metrics", kbqa.LogF("error", err))
		}
		return
	}
	s.writeJSON(w, s.srv.Metrics())
}

func (s *server) handleStats(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, s.sys.Stats())
}

// clientKey identifies the caller for rate limiting, traces and the access
// log: the X-API-Key header when present (keyed quotas shared across a
// client's machines), else the remote host. The header is trusted as-is —
// there is no key registry — so against adversarial clients (who could
// mint a fresh key per request for a fresh bucket) the limiter is a
// fairness mechanism, not a security boundary; put an authenticating proxy
// in front for that.
func clientKey(r *http.Request) string {
	if k := r.Header.Get("X-Api-Key"); k != "" { // X-API-Key spelled canonically, so Get need not rebuild it
		return k
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// overQuota charges n quota units to the request's client; when the quota
// is exhausted it writes the 429 + Retry-After refusal and reports true.
// /ask charges one unit and /batch one per question, so batching does not
// amplify a client's quota 256×. Over-quota requests are refused before
// they reach the serving pipeline; introspection endpoints (/metrics,
// /stats, /healthz) are never charged, so an over-quota client stays
// observable.
func (s *server) overQuota(w http.ResponseWriter, r *http.Request, n int) bool {
	if !s.limited {
		return false
	}
	ok, retry := s.srv.AllowN(clientKey(r), n)
	if ok {
		return false
	}
	secs := int(math.Ceil(retry.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	s.fail(w, http.StatusTooManyRequests, "", "rate limit exceeded", "rate_limited")
	return true
}

// statusRecorder captures the status a handler writes so the access log
// and trace can report it; 0 means the handler never called WriteHeader
// (an implicit 200).
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (sr *statusRecorder) WriteHeader(code int) {
	if sr.status == 0 {
		sr.status = code
	}
	sr.ResponseWriter.WriteHeader(code)
}

// traced wraps an answering handler with the request observability layer:
// when tracing is on, the request runs under a root span named name
// (method/path/client attributes, the question /ask adds, final status),
// the trace ID is echoed as X-Kbqa-Trace before the handler writes, and the
// trace finishes — and is retained if sampled or slow — when the handler
// returns. Every request is also access-logged with request-scoped fields.
func (s *server) traced(name string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		client := clientKey(r)
		ctx, trace := s.srv.Tracer().Start(r.Context(), name)
		if trace != nil {
			root := trace.Root()
			root.SetAttr("method", r.Method)
			root.SetAttr("path", r.URL.Path)
			root.SetAttr("client", client)
			w.Header().Set("X-Kbqa-Trace", trace.ID())
			r = r.WithContext(ctx)
		}
		rec := &statusRecorder{ResponseWriter: w}
		h(rec, r)
		status := rec.status
		if status == 0 {
			status = http.StatusOK
		}
		if trace != nil {
			trace.Root().SetInt("status", int64(status))
			trace.Finish()
		}
		if s.log.Enabled(kbqa.LogInfo) {
			s.log.Info("request",
				kbqa.LogF("method", r.Method), kbqa.LogF("path", r.URL.Path),
				kbqa.LogF("status", status),
				kbqa.LogF("duration_ms", float64(time.Since(start))/float64(time.Millisecond)),
				kbqa.LogF("client", client),
				kbqa.LogF("generation", s.srv.Generation()),
				kbqa.LogF("trace_id", trace.ID()))
		}
	}
}

// healthResponse is the /healthz and /readyz body.
type healthResponse struct {
	Status        string  `json:"status"`
	Generation    uint64  `json:"generation"`
	UptimeSeconds float64 `json:"uptime_seconds"`
}

func (s *server) health(status string) healthResponse {
	return healthResponse{
		Status:        status,
		Generation:    s.srv.Generation(),
		UptimeSeconds: time.Since(s.start).Seconds(),
	}
}

// handleHealthz is the liveness probe: the process is up and can marshal a
// response. It never reports anything but ok — readiness is /readyz's job.
func (s *server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, s.health("ok"))
}

// handleReadyz is the readiness probe: 503 until the boot sequence
// (persistent-cache replay, corpus warming) completes and the listener is
// about to accept traffic, 200 after. Load balancers gate on this so a
// warming server takes no traffic it would answer slowly.
func (s *server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if !s.ready.Load() {
		s.writeJSONStatus(w, http.StatusServiceUnavailable, s.health("starting"))
		return
	}
	s.writeJSON(w, s.health("ready"))
}

// tracesResponse is the /debug/traces body.
type tracesResponse struct {
	Count  int                  `json:"count"`
	Traces []kbqa.TraceSnapshot `json:"traces"`
}

// traceErrorResponse is the /debug/traces?id= miss body.
type traceErrorResponse struct {
	Error string `json:"error"`
}

// handleTraces serves the retained request traces, newest first. Empty
// (not an error) when tracing is off. With ?id=<trace id> it returns that
// single trace, or a 404 JSON body when the ring no longer holds it
// (never retained, or evicted since).
func (s *server) handleTraces(w http.ResponseWriter, r *http.Request) {
	if id := r.URL.Query().Get("id"); id != "" {
		snap, ok := s.srv.FindTrace(id)
		if !ok {
			s.writeJSONStatus(w, http.StatusNotFound,
				traceErrorResponse{Error: fmt.Sprintf("trace %q not found (not retained, or evicted from the ring)", id)})
			return
		}
		s.writeJSON(w, snap)
		return
	}
	traces := s.srv.Traces()
	if traces == nil {
		traces = []kbqa.TraceSnapshot{}
	}
	s.writeJSON(w, tracesResponse{Count: len(traces), Traces: traces})
}

func (s *server) mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/ask", s.traced("http.ask", s.handleAsk))
	mux.HandleFunc("/batch", s.traced("http.batch", s.handleBatch)) // charges per question, see overQuota
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/debug/traces", s.handleTraces)
	// Explicit pprof routes: the debug mux must work without importing
	// net/http/pprof's DefaultServeMux side effects.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// errStatus maps Query errors to HTTP statuses: typed unanswerable
// failures to 404, timeouts to 504, engine bugs to 500 (retrying
// re-triggers them), shutdown and other transient failures to 503.
func errStatus(err error) int {
	switch {
	case kbqa.IsUnanswerable(err):
		return http.StatusNotFound
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return 499 // client closed request
	case errors.Is(err, kbqa.ErrEnginePanic):
		return http.StatusInternalServerError
	default:
		return http.StatusServiceUnavailable
	}
}

func (s *server) writeJSON(w http.ResponseWriter, v interface{}) {
	s.writeJSONStatus(w, http.StatusOK, v)
}

func (s *server) writeJSONStatus(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.log.Error("encode response", kbqa.LogF("error", err))
	}
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	flavor := flag.String("flavor", "freebase", "knowledge base flavor")
	seed := flag.Int64("seed", 42, "generation seed")
	timeout := flag.Duration("timeout", 5*time.Second, "per-request answer deadline; a /batch is one request with one deadline (0 = none)")
	cacheEntries := flag.Int("cache", 0, "answer cache capacity (0 = default 4096, negative disables)")
	cacheDir := flag.String("cache-dir", "", "directory for the persistent answer cache (empty = memory only)")
	cacheTTL := flag.Duration("cache-ttl", 0, "answer cache entry time-to-live (0 = no expiry)")
	cacheSync := flag.Duration("cache-sync", time.Second, "persistent cache fsync period: answers are durable within this of being computed (0 = default 1s, negative = only at flush/shutdown)")
	warm := flag.Int("warm", 0, "warm the cache with N training-corpus questions at boot (0 = off)")
	rateLimit := flag.Float64("rate-limit", 0, "per-client sustained requests/second (0 = unlimited)")
	rateBurst := flag.Int("rate-burst", 0, "per-client burst allowance (0 = ceil of -rate-limit)")
	maxConcurrent := flag.Int("max-concurrent", 0, "max concurrent engine calls (0 = 4×GOMAXPROCS)")
	shardServers := flag.String("shard-servers", "", "comma-separated kbqa-shard addresses; when set, knowledge-base index reads are served remotely (every server must have loaded the same world)")
	flag.Int("shard-replicas", 2, "ignored: every shard server serves the whole world (ROADMAP item 1(d) deletes this flag)")
	kbImage := flag.String("kb-image", "", "serve knowledge-base index reads from this memory-mapped snapshot image (refused unless its world digest equals that of the world the other flags describe; exclusive with -shard-servers)")
	traceSample := flag.Float64("trace-sample", 0, "probability [0,1] that a request trace is retained for /debug/traces")
	slowQuery := flag.Duration("slow-query", 500*time.Millisecond, "always capture and log traces of requests at or above this duration; any value but 0 traces every request (0 = off)")
	traceBuffer := flag.Int("trace-buffer", 0, "retained trace ring size (0 = default 128)")
	logLevel := flag.String("log-level", "info", "log floor: debug, info, warn, or error")
	flag.Parse()

	logger := kbqa.NewLogger(os.Stderr, kbqa.ParseLogLevel(*logLevel))
	fatal := func(msg string, fields ...kbqa.LogField) {
		logger.Error(msg, fields...)
		os.Exit(1)
	}

	logger.Info("building world", kbqa.LogF("flavor", *flavor), kbqa.LogF("seed", *seed))
	var serverList []string
	if *shardServers != "" {
		for _, a := range strings.Split(*shardServers, ",") {
			serverList = append(serverList, strings.TrimSpace(a))
		}
	}
	sys, err := kbqa.Build(kbqa.Options{Flavor: *flavor, Seed: *seed,
		ShardServers: serverList, KBImage: *kbImage})
	if err != nil {
		fatal("build world", kbqa.LogF("error", err))
	}
	defer sys.Close()
	if len(serverList) > 0 {
		logger.Info("distributed knowledge base", kbqa.LogF("servers", *shardServers))
	}
	if *kbImage != "" {
		logger.Info("knowledge base memory-mapped", kbqa.LogF("image", *kbImage))
	}
	st := sys.Stats()
	logger.Info("world ready", kbqa.LogF("templates", st.Templates), kbqa.LogF("predicates", st.Intents))

	s, err := newServer(sys, kbqa.ServerOptions{
		CacheEntries:       *cacheEntries,
		CacheDir:           *cacheDir,
		CacheTTL:           *cacheTTL,
		CacheSyncEvery:     *cacheSync,
		MaxConcurrent:      *maxConcurrent,
		Timeout:            *timeout,
		RateLimit:          *rateLimit,
		RateBurst:          *rateBurst,
		TraceSampleRate:    *traceSample,
		SlowQueryThreshold: *slowQuery,
		TraceBuffer:        *traceBuffer,
		Logger:             logger,
	})
	if err != nil {
		fatal("open serving runtime", kbqa.LogF("error", err))
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	if *cacheDir != "" {
		m := s.srv.Metrics()
		logger.Info("persistent cache replayed", kbqa.LogF("dir", *cacheDir),
			kbqa.LogF("entries", m.CacheEntries))
	}
	if *warm > 0 {
		if *cacheEntries < 0 {
			fatal("-warm needs a cache; remove -warm or enable caching (-cache >= 0)")
		}
		qs := sys.SampleQuestions(*warm)
		start := time.Now()
		// Under the signal context, SIGINT during a long warm aborts it
		// instead of being deferred until after.
		n := s.srv.WarmFromCorpus(ctx, qs)
		logger.Info("cache warmed", kbqa.LogF("warmed", n), kbqa.LogF("asked", len(qs)),
			kbqa.LogF("duration", time.Since(start).Round(time.Millisecond)))
		// Make the warm work durable now: a later startup failure
		// (port in use, say) must not discard it.
		if err := s.srv.Flush(); err != nil {
			logger.Warn("flush warmed cache", kbqa.LogF("error", err))
		}
	}
	// The boot sequence is done; flip /readyz before the listener starts
	// taking traffic.
	s.ready.Store(true)

	httpSrv := &http.Server{
		Addr:         *addr,
		Handler:      s.mux(),
		ReadTimeout:  5 * time.Second,
		WriteTimeout: 30 * time.Second,
	}

	errCh := make(chan error, 1)
	go func() {
		logger.Info("listening", kbqa.LogF("addr", *addr))
		errCh <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errCh:
		// Flush the cache (warm work included) before dying on a listen
		// failure — exiting on the spot would skip the graceful path below.
		s.srv.Close()
		fatal("serve", kbqa.LogF("error", err))
	case <-ctx.Done():
	}

	logger.Info("shutting down")
	s.ready.Store(false)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		logger.Error("shutdown", kbqa.LogF("error", err))
	}
	// Close drains in-flight queries, then flushes the persistent cache so
	// the next boot replays everything this process answered.
	if err := s.srv.Close(); err != nil {
		logger.Error("close answer cache", kbqa.LogF("error", err))
	}
	logger.Info("bye")
}
