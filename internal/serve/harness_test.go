package serve

// The end-to-end serving harness: a deterministic tiny world behind a
// counting engine, a disk-backed Runtime, and a real HTTP frontend
// (httptest) with the same rate-limit semantics cmd/kbqa-server applies.
// The TestHarness* tests are what CI runs twice (-run TestHarness
// -count=2) to prove the whole stack — answers, restart survival,
// model-swap invalidation, rate limiting — is restart-deterministic.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// harnessWorldSize is the number of QA pairs in the generated world.
const harnessWorldSize = 24

// harnessWorld deterministically generates the harness's tiny QA world: a
// map from question to answer standing in for a trained engine over a
// knowledge base.
func harnessWorld(modelVersion int) map[string]string {
	m := make(map[string]string, harnessWorldSize)
	for i := 0; i < harnessWorldSize; i++ {
		m[fmt.Sprintf("what is the p%d of e%d?", i, i)] = fmt.Sprintf("v%d@m%d", i, modelVersion)
	}
	return m
}

// harnessModel is one trained "model" of the harness: the tag its answers
// are keyed under (the fingerprint the frontend hands Do) and the answers.
type harnessModel struct {
	tag     string
	answers map[string]string
}

func newHarnessModel(version int) *harnessModel {
	return &harnessModel{tag: fmt.Sprintf("m%d", version), answers: harnessWorld(version)}
}

// harness is one serving "process": counting engine → disk-backed Runtime
// → HTTP mux. Restarts are simulated by closing one harness and opening
// another over the same cache directory. The model sits behind an atomic
// pointer so a test can "retrain" (swap it) while the server runs; each
// request reads it once and both keys and computes with it, the way
// kbqa.Server does.
type harness struct {
	rt          *Runtime[string]
	ts          *httptest.Server
	model       atomic.Pointer[harnessModel]
	engineCalls atomic.Int64
}

type harnessReply struct {
	Answer string `json:"answer"`
	OK     bool   `json:"ok"`
}

// newHarness boots a harness over dir running model version. The model
// is consulted (and counted) on every engine call; limiter, when non-nil,
// guards /ask the way cmd/kbqa-server guards its endpoints.
func newHarness(t *testing.T, dir string, version int, limiter *Limiter) *harness {
	return newHarnessDisk(t, dir, version, limiter, testLog{})
}

// newHarnessDisk is newHarness with explicit disk options, for tests that
// shrink the rotation threshold or enable periodic sync.
func newHarnessDisk(t *testing.T, dir string, version int, limiter *Limiter, disk testLog) *harness {
	t.Helper()
	h := &harness{}
	h.model.Store(newHarnessModel(version))
	disk.ModelTag = h.model.Load().tag
	rt, err := Open(Options[string]{}, disk.options(dir))
	if err != nil {
		t.Fatal(err)
	}
	disk.tune(rt.disk)
	h.rt = rt

	mux := http.NewServeMux()
	mux.HandleFunc("/ask", func(w http.ResponseWriter, r *http.Request) {
		if limiter != nil {
			client := r.Header.Get("X-API-Key")
			if client == "" {
				client = r.RemoteAddr
			}
			if ok, retry := limiter.AllowN(client, 1, time.Now()); !ok {
				h.rt.CountRateLimited()
				w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(retry.Seconds()))))
				w.WriteHeader(http.StatusTooManyRequests)
				return
			}
		}
		m := h.model.Load()
		ans, ok, err := h.rt.Do(r.Context(), r.URL.Query().Get("q"), m.tag,
			func(_ context.Context, q string) (string, StageTimings, bool, error) {
				h.engineCalls.Add(1)
				a, ok := m.answers[q]
				return a, StageTimings{}, ok, nil
			})
		if err != nil {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		json.NewEncoder(w).Encode(harnessReply{Answer: ans, OK: ok})
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		WritePrometheus(w, h.rt.Metrics())
	})
	h.ts = httptest.NewServer(mux)
	return h
}

// shutdown is the graceful kill: stop accepting, drain, flush to disk.
func (h *harness) shutdown(t *testing.T) {
	t.Helper()
	h.ts.Close()
	if err := h.rt.Close(); err != nil {
		t.Fatalf("harness close: %v", err)
	}
}

// ask performs one HTTP request, with optional client identity for the
// rate-limited harness.
func (h *harness) ask(t *testing.T, q, apiKey string) (harnessReply, *http.Response) {
	t.Helper()
	reply, resp, err := h.askE(q, apiKey)
	if err != nil {
		t.Fatal(err)
	}
	return reply, resp
}

// askE is ask without the testing.T, for worker goroutines (t.Fatal only
// works from the test's own goroutine).
func (h *harness) askE(q, apiKey string) (harnessReply, *http.Response, error) {
	req, err := http.NewRequest(http.MethodGet, h.ts.URL+"/ask?q="+escapeQ(q), nil)
	if err != nil {
		return harnessReply{}, nil, err
	}
	if apiKey != "" {
		req.Header.Set("X-API-Key", apiKey)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return harnessReply{}, nil, err
	}
	defer resp.Body.Close()
	var reply harnessReply
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
			return harnessReply{}, resp, err
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return reply, resp, nil
}

func (h *harness) prometheus(t *testing.T) string {
	t.Helper()
	resp, err := http.Get(h.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func escapeQ(q string) string { return url.QueryEscape(q) }

// TestHarnessRestartServesFromDisk: ask everything, kill the process,
// reboot over the same cache directory — every answer must come back
// identical, from disk, with zero engine probes.
func TestHarnessRestartServesFromDisk(t *testing.T) {
	dir := t.TempDir()
	world := harnessWorld(0)

	h1 := newHarness(t, dir, 0, nil)
	first := make(map[string]string, len(world))
	for q := range world {
		reply, resp := h1.ask(t, q, "")
		if resp.StatusCode != http.StatusOK || !reply.OK {
			t.Fatalf("ask(%q) = %d %+v", q, resp.StatusCode, reply)
		}
		if reply.Answer != world[q] {
			t.Fatalf("ask(%q) = %q, want %q", q, reply.Answer, world[q])
		}
		first[q] = reply.Answer
	}
	if n := h1.engineCalls.Load(); n != harnessWorldSize {
		t.Fatalf("engine calls = %d, want %d (one per distinct question)", n, harnessWorldSize)
	}
	// Second pass: all cache hits, still the same process.
	for q := range world {
		if reply, _ := h1.ask(t, q, ""); reply.Answer != first[q] {
			t.Fatalf("second pass diverged on %q", q)
		}
	}
	if n := h1.engineCalls.Load(); n != harnessWorldSize {
		t.Fatalf("warm pass touched the engine: %d calls", n)
	}
	h1.shutdown(t) // the "kill"

	// Reboot over the same cache dir. The world map is rebuilt but the
	// engine must never be consulted: every answer comes from the segment.
	h2 := newHarness(t, dir, 0, nil)
	defer h2.shutdown(t)
	for q := range world {
		reply, resp := h2.ask(t, q, "")
		if resp.StatusCode != http.StatusOK || reply.Answer != first[q] {
			t.Fatalf("post-restart ask(%q) = %d %q, want %q", q, resp.StatusCode, reply.Answer, first[q])
		}
	}
	if n := h2.engineCalls.Load(); n != 0 {
		t.Fatalf("post-restart engine calls = %d, want 0 (all answers from disk)", n)
	}
	m := h2.rt.Metrics()
	if m.CachePersistHits != harnessWorldSize {
		t.Errorf("persist hits = %d, want %d", m.CachePersistHits, harnessWorldSize)
	}
	if got := h2.prometheus(t); !containsLine(got, fmt.Sprintf("kbqa_cache_persist_hits_total %d", harnessWorldSize)) {
		t.Errorf("prometheus exposition missing persist-hit counter:\n%s", got)
	}
}

// TestHarnessRetrainInvalidation: a model swap makes every pre-retrain
// answer unreachable — across a restart too, because every persisted key
// names the model that computed it.
func TestHarnessRetrainInvalidation(t *testing.T) {
	dir := t.TempDir()
	q := fmt.Sprintf("what is the p%d of e%d?", 0, 0)

	h1 := newHarness(t, dir, 0, nil)
	reply, _ := h1.ask(t, q, "")
	if reply.Answer != "v0@m0" {
		t.Fatalf("pre-retrain answer = %q", reply.Answer)
	}

	// "Retrain": swap the model; the next request keys with its tag.
	h1.model.Store(newHarnessModel(1))
	reply, _ = h1.ask(t, q, "")
	if reply.Answer != "v0@m1" {
		t.Fatalf("post-retrain answer = %q, want the new model's v0@m1", reply.Answer)
	}
	h1.shutdown(t)

	// After a restart running m1, m0's entries stay unreachable and m1's
	// replay from disk.
	h2 := newHarness(t, dir, 1, nil)
	defer h2.shutdown(t)
	if n := h2.rt.Metrics().CacheEntries; n != 1 {
		t.Fatalf("post-restart entries = %d, want m1's one", n)
	}
	reply, _ = h2.ask(t, q, "")
	if reply.Answer != "v0@m1" {
		t.Fatalf("post-restart answer = %q, want v0@m1", reply.Answer)
	}
	if n := h2.engineCalls.Load(); n != 0 {
		t.Fatalf("post-restart engine calls = %d, want 0", n)
	}
}

// TestHarnessRateLimit429: an over-quota client gets 429 with a
// Retry-After header and the rejection is counted; a distinct client is
// unaffected.
func TestHarnessRateLimit429(t *testing.T) {
	dir := t.TempDir()
	// Refill is negligible (0.01 rps), so the outcome is deterministic
	// however slowly CI runs: exactly burst=2 requests pass per client.
	h := newHarness(t, dir, 0, NewLimiter(0.01, 2))
	defer h.shutdown(t)

	q := fmt.Sprintf("what is the p%d of e%d?", 1, 1)
	for i := 0; i < 2; i++ {
		if _, resp := h.ask(t, q, "client-a"); resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d inside burst: status %d", i, resp.StatusCode)
		}
	}
	_, resp := h.ask(t, q, "client-a")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota status = %d, want 429", resp.StatusCode)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("Retry-After = %q, want an integer >= 1", resp.Header.Get("Retry-After"))
	}
	if _, resp := h.ask(t, q, "client-b"); resp.StatusCode != http.StatusOK {
		t.Fatalf("distinct client throttled: status %d", resp.StatusCode)
	}
	m := h.rt.Metrics()
	if m.RateLimitRejected != 1 {
		t.Errorf("ratelimit rejected = %d, want 1", m.RateLimitRejected)
	}
	if got := h.prometheus(t); !containsLine(got, "kbqa_ratelimit_rejected_total 1") {
		t.Errorf("prometheus exposition missing ratelimit counter:\n%s", got)
	}
}

// TestHarnessRotationChurn runs the full stack with a rotation threshold
// and sync period small enough that every run exercises segment rotation,
// the background merger, and the periodic fsync concurrently with HTTP
// traffic and retrains (CI runs this under -race); a restart then proves
// the churn lost nothing and resurrected nothing.
func TestHarnessRotationChurn(t *testing.T) {
	dir := t.TempDir()
	disk := testLog{RotateEvery: 1024, SyncEvery: time.Millisecond}
	h := newHarnessDisk(t, dir, 0, nil, disk)

	// Concurrent traffic over every question, interleaved with retrains:
	// each model swap re-answers the world under a new tag, pushing enough
	// appends through the log to rotate several times.
	const versions = 3
	for v := 0; v <= versions; v++ {
		if v > 0 {
			h.model.Store(newHarnessModel(v))
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for q, want := range harnessWorld(v) {
					reply, resp, err := h.askE(q, "")
					if err != nil || resp.StatusCode != http.StatusOK || reply.Answer != want {
						t.Errorf("v%d ask(%q) = %v %q (err %v), want %q", v, q, resp, reply.Answer, err, want)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
	waitFor(t, 5*time.Second, func() bool { return h.rt.Metrics().CacheSegmentRotations > 0 })
	m := h.rt.Metrics()
	if !m.CachePersistent || m.CacheSegmentRotations == 0 {
		t.Fatalf("churn never rotated (persistent=%v rotations=%d); shrink the threshold", m.CachePersistent, m.CacheSegmentRotations)
	}
	if got := h.prometheus(t); !strings.Contains(got, "kbqa_cache_segment_rotations_total") ||
		!strings.Contains(got, "kbqa_cache_sync_age_seconds") {
		t.Errorf("prometheus exposition missing rotation/sync metrics:\n%s", got)
	}
	h.shutdown(t)

	// Reboot: only the final version's answers may exist, all served from
	// disk, none recomputed — across however many segments the churn left.
	h2 := newHarnessDisk(t, dir, versions, nil, disk)
	defer h2.shutdown(t)
	if n := h2.rt.Metrics().CacheEntries; n != harnessWorldSize {
		t.Fatalf("post-restart entries = %d, want the final model's %d", n, harnessWorldSize)
	}
	for q, want := range harnessWorld(versions) {
		reply, resp := h2.ask(t, q, "")
		if resp.StatusCode != http.StatusOK || reply.Answer != want {
			t.Fatalf("post-restart ask(%q) = %d %q, want %q", q, resp.StatusCode, reply.Answer, want)
		}
	}
	if n := h2.engineCalls.Load(); n != 0 {
		t.Fatalf("post-restart engine calls = %d, want 0 (all answers from disk)", n)
	}
}

// containsLine reports whether text contains line exactly (newline-bounded),
// so "..._total 1" can't accidentally match "..._total 10".
func containsLine(text, line string) bool {
	for _, l := range strings.Split(text, "\n") {
		if l == line {
			return true
		}
	}
	return false
}
