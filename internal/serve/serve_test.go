package serve

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// echoAsk answers instantly with a question-derived value; calls counts
// engine invocations.
func echoAsk(calls *atomic.Int64) AskFunc[string] {
	return func(_ context.Context, q string) (string, StageTimings, bool, error) {
		if calls != nil {
			calls.Add(1)
		}
		if q == "unanswerable" {
			return "", StageTimings{}, false, nil
		}
		return "ans:" + q, StageTimings{Parse: time.Microsecond, Match: time.Microsecond, Probe: time.Microsecond}, true, nil
	}
}

// engineRT is a Runtime bound to one engine function and the empty
// fingerprint — the shape most tests drive. Production callers hand Do a
// compute per request; Ask and AskBatch do that with the bound one.
type engineRT[A any] struct {
	*Runtime[A]
	ask AskFunc[A]
}

func withEngine[A any](ask AskFunc[A], o Options[A]) *engineRT[A] {
	return &engineRT[A]{Runtime: New(o), ask: ask}
}

func openWithEngine[A any](ask AskFunc[A], o Options[A], lo LogOptions[A]) (*engineRT[A], error) {
	r, err := Open(o, lo)
	if err != nil {
		return nil, err
	}
	return &engineRT[A]{Runtime: r, ask: ask}, nil
}

func (e *engineRT[A]) Ask(ctx context.Context, q string) (A, bool, error) {
	return e.Do(ctx, q, "", e.ask)
}

func (e *engineRT[A]) AskBatch(ctx context.Context, qs []string) []BatchItem[A] {
	return e.DoBatch(ctx, qs, "", e.ask)
}

// TestRuntimeSurface pins the runtime's shape: eight exported methods, and
// five settable values — every request names its engine call (Do, DoBatch,
// Warm take compute), so there is no stored-engine twin of any of them, and
// a knob with one production value is a constant, not a field.
func TestRuntimeSurface(t *testing.T) {
	rt := reflect.TypeOf((*Runtime[string])(nil))
	var methods []string
	for i := 0; i < rt.NumMethod(); i++ {
		methods = append(methods, rt.Method(i).Name)
	}
	want := []string{"Close", "CountError", "CountRateLimited", "Do", "DoBatch", "Flush", "Metrics", "Warm"}
	if !reflect.DeepEqual(methods, want) {
		t.Errorf("*serve.Runtime exports %v, want exactly %v", methods, want)
	}
	opts := reflect.TypeOf(Options[string]{})
	var fields []string
	for i := 0; i < opts.NumField(); i++ {
		fields = append(fields, opts.Field(i).Name)
	}
	if want := []string{"CacheEntries", "TTL", "MaxConcurrent", "Timeout", "Weigh"}; !reflect.DeepEqual(fields, want) {
		t.Errorf("serve.Options has fields %v, want exactly %v", fields, want)
	}
}

func TestAskCachesAnswers(t *testing.T) {
	var calls atomic.Int64
	r := withEngine(echoAsk(&calls), Options[string]{})
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		ans, ok, err := r.Ask(ctx, "Who Is X?")
		if err != nil || !ok || ans != "ans:Who Is X?" {
			t.Fatalf("ask %d = (%q, %v, %v)", i, ans, ok, err)
		}
	}
	// Restyled question shares the normalized cache key.
	if _, ok, err := r.Ask(ctx, "  who is   x?"); !ok || err != nil {
		t.Fatalf("normalized variant missed: ok=%v err=%v", ok, err)
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("engine calls = %d, want 1", n)
	}
	m := r.Metrics()
	if m.CacheHits != 5 || m.CacheMisses != 1 || m.Served != 6 {
		t.Errorf("hits/misses/served = %d/%d/%d, want 5/1/6", m.CacheHits, m.CacheMisses, m.Served)
	}
}

func TestAskCachesNegativeResults(t *testing.T) {
	var calls atomic.Int64
	r := withEngine(echoAsk(&calls), Options[string]{})
	for i := 0; i < 3; i++ {
		if _, ok, err := r.Ask(context.Background(), "unanswerable"); ok || err != nil {
			t.Fatalf("unanswerable: ok=%v err=%v", ok, err)
		}
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("engine calls = %d, want 1 (negative result not cached)", n)
	}
}

func TestCacheDisabled(t *testing.T) {
	var calls atomic.Int64
	r := withEngine(echoAsk(&calls), Options[string]{CacheEntries: -1})
	for i := 0; i < 3; i++ {
		r.Ask(context.Background(), "q")
	}
	if n := calls.Load(); n != 3 {
		t.Errorf("engine calls = %d, want 3 with cache disabled", n)
	}
	m := r.Metrics()
	if m.CacheHits != 0 || m.CacheMisses != 3 || m.CacheHits+m.CacheMisses != m.Served {
		t.Errorf("inconsistent counters: %+v", m)
	}
}

// TestSingleflightDedup releases a blocked leader only after every
// concurrent asker is launched; however the scheduler interleaves them, the
// engine must run exactly once and every other request must be served by
// the leader's result or the cache.
func TestSingleflightDedup(t *testing.T) {
	const askers = 32
	var calls atomic.Int64
	gate := make(chan struct{})
	started := make(chan struct{}, 1)
	r := withEngine(func(_ context.Context, q string) (string, StageTimings, bool, error) {
		calls.Add(1)
		started <- struct{}{}
		<-gate
		return "ans", StageTimings{}, true, nil
	}, Options[string]{})

	var launched sync.WaitGroup
	var wg sync.WaitGroup
	launched.Add(askers)
	wg.Add(askers)
	for i := 0; i < askers; i++ {
		go func() {
			defer wg.Done()
			launched.Done()
			ans, ok, err := r.Ask(context.Background(), "same question")
			if err != nil || !ok || ans != "ans" {
				t.Errorf("ask = (%q, %v, %v)", ans, ok, err)
			}
		}()
	}
	launched.Wait()
	<-started // the leader is inside the engine
	close(gate)
	wg.Wait()

	if n := calls.Load(); n != 1 {
		t.Errorf("engine calls = %d, want 1", n)
	}
	m := r.Metrics()
	if m.Served != askers {
		t.Errorf("served = %d, want %d", m.Served, askers)
	}
	if m.CacheHits+m.CacheMisses != m.Served {
		t.Errorf("hits(%d) + misses(%d) != served(%d)", m.CacheHits, m.CacheMisses, m.Served)
	}
	// Everyone but the leader either joined the flight or hit the cache.
	if m.Deduped+m.CacheHits != askers-1 {
		t.Errorf("deduped(%d) + hits(%d) = %d, want %d", m.Deduped, m.CacheHits, m.Deduped+m.CacheHits, askers-1)
	}
}

// TestAdmissionBound verifies MaxConcurrent engine calls at most, using a
// high-water mark under 16 distinct (uncacheable-by-dedup) questions.
func TestAdmissionBound(t *testing.T) {
	const limit = 2
	var inEngine, highWater atomic.Int64
	r := withEngine(func(_ context.Context, q string) (string, StageTimings, bool, error) {
		n := inEngine.Add(1)
		for {
			hw := highWater.Load()
			if n <= hw || highWater.CompareAndSwap(hw, n) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
		inEngine.Add(-1)
		return "ans", StageTimings{}, true, nil
	}, Options[string]{MaxConcurrent: limit, CacheEntries: -1})

	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, ok, err := r.Ask(context.Background(), fmt.Sprintf("q%d", i)); !ok || err != nil {
				t.Errorf("q%d: ok=%v err=%v", i, ok, err)
			}
		}(i)
	}
	wg.Wait()
	if hw := highWater.Load(); hw > limit {
		t.Errorf("high-water concurrent engine calls = %d, want <= %d", hw, limit)
	}
}

func TestAdmissionDeadline(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	r := withEngine(func(_ context.Context, q string) (string, StageTimings, bool, error) {
		<-gate
		return "ans", StageTimings{}, true, nil
	}, Options[string]{MaxConcurrent: 1, CacheEntries: -1})

	// Occupy the only slot.
	go r.Ask(context.Background(), "blocker")
	for r.Metrics().InFlight == 0 {
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, _, err := r.Ask(ctx, "queued out")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	m := r.Metrics()
	if m.Rejected == 0 {
		t.Error("rejected counter not bumped")
	}
	if m.CacheHits+m.CacheMisses != m.Served {
		t.Errorf("hits+misses != served after rejection: %+v", m)
	}
}

func TestFollowerHonoursOwnDeadline(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	started := make(chan struct{})
	r := withEngine(func(_ context.Context, q string) (string, StageTimings, bool, error) {
		close(started)
		<-gate
		return "ans", StageTimings{}, true, nil
	}, Options[string]{})

	go r.Ask(context.Background(), "slow question")
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	_, _, err := r.Ask(ctx, "slow question")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("follower err = %v, want deadline exceeded", err)
	}
}

// TestFollowerRetriesAfterLeaderDeadline: a leader that dies on its own
// short deadline must not poison followers whose deadlines are still live —
// they retry as a fresh flight and get the real answer.
func TestFollowerRetriesAfterLeaderDeadline(t *testing.T) {
	gate := make(chan struct{})
	var calls atomic.Int64
	r := withEngine(func(_ context.Context, q string) (string, StageTimings, bool, error) {
		if q == "blocker" {
			<-gate
			return "blocked", StageTimings{}, true, nil
		}
		calls.Add(1)
		return "ans", StageTimings{}, true, nil
	}, Options[string]{MaxConcurrent: 1, CacheEntries: -1})

	// Occupy the only engine slot.
	go r.Ask(context.Background(), "blocker")
	for r.Metrics().InFlight == 0 {
		time.Sleep(time.Millisecond)
	}

	// The leader for "target" queues in admission and dies on its 10ms
	// deadline.
	leaderCtx, cancelLeader := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancelLeader()
	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := r.Ask(leaderCtx, "target")
		leaderDone <- err
	}()

	// A follower with a generous deadline joins the same flight.
	followerDone := make(chan error, 1)
	var followerAns string
	go func() {
		ans, ok, err := r.Ask(context.Background(), "target")
		followerAns = ans
		if err == nil && !ok {
			err = errors.New("follower got no answer")
		}
		followerDone <- err
	}()

	if err := <-leaderDone; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("leader err = %v, want deadline exceeded", err)
	}
	close(gate) // free the slot so the follower's retry can be admitted
	if err := <-followerDone; err != nil {
		t.Fatalf("follower err = %v, want success after retry", err)
	}
	if followerAns != "ans" {
		t.Fatalf("follower answer = %q", followerAns)
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("target engine calls = %d, want 1", n)
	}
}

func TestDefaultTimeoutApplied(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	started := make(chan struct{})
	r := withEngine(func(_ context.Context, q string) (string, StageTimings, bool, error) {
		close(started)
		<-gate
		return "ans", StageTimings{}, true, nil
	}, Options[string]{Timeout: 5 * time.Millisecond})

	go r.Ask(context.Background(), "slow")
	<-started
	// A follower with no deadline of its own inherits Options.Timeout.
	_, _, err := r.Ask(context.Background(), "slow")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded from default timeout", err)
	}
}

func TestBatchPreservesOrder(t *testing.T) {
	r := withEngine(echoAsk(nil), Options[string]{})
	r.batchWorkers = 4
	questions := make([]string, 50)
	for i := range questions {
		questions[i] = fmt.Sprintf("q%d", i)
	}
	questions[7] = "unanswerable"
	items := r.AskBatch(context.Background(), questions)
	if len(items) != len(questions) {
		t.Fatalf("got %d items, want %d", len(items), len(questions))
	}
	for i, it := range items {
		if it.Question != questions[i] {
			t.Errorf("slot %d holds %q, want %q", i, it.Question, questions[i])
		}
		if i == 7 {
			if it.OK {
				t.Error("unanswerable slot reported OK")
			}
			continue
		}
		if !it.OK || it.Answer != "ans:"+questions[i] || it.Err != nil {
			t.Errorf("slot %d = %+v", i, it)
		}
	}
}

func TestBatchWorkerBound(t *testing.T) {
	const workers = 3
	var inFlight, highWater atomic.Int64
	r := withEngine(func(_ context.Context, q string) (string, StageTimings, bool, error) {
		n := inFlight.Add(1)
		for {
			hw := highWater.Load()
			if n <= hw || highWater.CompareAndSwap(hw, n) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		inFlight.Add(-1)
		return "ans", StageTimings{}, true, nil
	}, Options[string]{CacheEntries: -1, MaxConcurrent: -1})
	r.batchWorkers = workers
	questions := make([]string, 24)
	for i := range questions {
		questions[i] = fmt.Sprintf("q%d", i)
	}
	r.AskBatch(context.Background(), questions)
	if hw := highWater.Load(); hw > workers {
		t.Errorf("high-water = %d, want <= %d", hw, workers)
	}
}

func TestBatchContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := withEngine(echoAsk(nil), Options[string]{})
	items := r.AskBatch(ctx, []string{"a", "b", "c"})
	for i, it := range items {
		if it.Err == nil {
			t.Errorf("slot %d has no error after cancellation: %+v", i, it)
		}
	}
}

// TestFlightLeaderPanicContained: a panicking engine call must surface as
// ErrEnginePanic — not tear down the calling goroutine — and must not
// leave a dead flight registered: later requests for the same key run
// fresh instead of blocking forever on an unclosed done channel.
func TestFlightLeaderPanicContained(t *testing.T) {
	first := true
	r := withEngine(func(_ context.Context, q string) (string, StageTimings, bool, error) {
		if first {
			first = false
			panic("pathological question")
		}
		return "ans", StageTimings{}, true, nil
	}, Options[string]{})

	if _, _, err := r.Ask(context.Background(), "q"); !errors.Is(err, ErrEnginePanic) {
		t.Fatalf("leader err = %v, want ErrEnginePanic", err)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		ans, ok, err := r.Ask(context.Background(), "q")
		if err != nil || !ok || ans != "ans" {
			t.Errorf("post-panic ask = (%q, %v, %v)", ans, ok, err)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("key poisoned: post-panic ask blocked")
	}
}

// TestFlightFollowerSeesEnginePanicError: followers of a panicking leader
// get an error wrapping ErrEnginePanic (an internal bug, not a transient),
// and do not retry the poisonous question themselves.
func TestFlightFollowerSeesEnginePanicError(t *testing.T) {
	started := make(chan struct{})
	gate := make(chan struct{})
	var calls atomic.Int64
	r := withEngine(func(_ context.Context, q string) (string, StageTimings, bool, error) {
		if calls.Add(1) == 1 {
			close(started)
		}
		<-gate
		panic("pathological question")
	}, Options[string]{})

	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := r.Ask(context.Background(), "q")
		leaderDone <- err
	}()
	<-started

	followerDone := make(chan error, 1)
	go func() {
		_, _, err := r.Ask(context.Background(), "q")
		followerDone <- err
	}()
	// Wait until the follower is inside Ask (in-flight gauge) and give it a
	// beat to join the flight before releasing the leader.
	for r.Metrics().InFlight < 2 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(5 * time.Millisecond)
	close(gate)
	if err := <-leaderDone; !errors.Is(err, ErrEnginePanic) {
		t.Fatalf("leader err = %v, want ErrEnginePanic", err)
	}
	if err := <-followerDone; !errors.Is(err, ErrEnginePanic) {
		t.Fatalf("follower err = %v, want ErrEnginePanic", err)
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("engine calls = %d, want 1 (follower must not retry a panic)", n)
	}
	m := r.Metrics()
	if m.EnginePanics != 2 || m.Rejected != 0 {
		t.Errorf("panics/rejected = %d/%d, want 2/0 (panics must not masquerade as load-shedding)", m.EnginePanics, m.Rejected)
	}
}

// TestBatchContainsEnginePanic: one poisonous question in a batch must not
// kill the worker pool (an escaped panic on a worker goroutine would take
// down the whole process) — it becomes an ErrEnginePanic item while the
// rest of the batch answers normally.
func TestBatchContainsEnginePanic(t *testing.T) {
	r := withEngine(func(_ context.Context, q string) (string, StageTimings, bool, error) {
		if q == "poison" {
			panic("pathological question")
		}
		return "ans:" + q, StageTimings{}, true, nil
	}, Options[string]{})
	items := r.AskBatch(context.Background(), []string{"a", "poison", "b"})
	if !errors.Is(items[1].Err, ErrEnginePanic) {
		t.Fatalf("poison slot err = %v, want ErrEnginePanic", items[1].Err)
	}
	for _, i := range []int{0, 2} {
		if items[i].Err != nil || !items[i].OK {
			t.Errorf("slot %d = %+v, want clean answer", i, items[i])
		}
	}

	// The worker pool itself (no flight group in front) must contain a
	// panic too: one escaping Do outside the engine call — a panicking
	// normalizer, say — would otherwise kill the process.
	raw := runBatch(context.Background(), []string{"a", "poison"}, 2, func(_ context.Context, q string) (string, bool, error) {
		if q == "poison" {
			panic("pathological question")
		}
		return "ans", true, nil
	})
	if !errors.Is(raw[1].Err, ErrEnginePanic) {
		t.Fatalf("runBatch poison slot err = %v, want ErrEnginePanic", raw[1].Err)
	}
	if raw[0].Err != nil || !raw[0].OK {
		t.Errorf("runBatch clean slot = %+v", raw[0])
	}
}

// TestCloseFailsFast: after Close, Do and every item of a batch fail with
// ErrShuttingDown without an engine call, counted once per question.
func TestCloseFailsFast(t *testing.T) {
	var calls atomic.Int64
	r := withEngine(echoAsk(&calls), Options[string]{})
	r.Close()
	r.Close() // idempotent
	if _, _, err := r.Ask(context.Background(), "q"); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("err = %v, want ErrShuttingDown", err)
	}
	qs := []string{"a", "b", "c"}
	for i, it := range r.AskBatch(context.Background(), qs) {
		if it.Question != qs[i] || !errors.Is(it.Err, ErrShuttingDown) {
			t.Errorf("batch slot %d = %+v, want %q with ErrShuttingDown", i, it, qs[i])
		}
	}
	if n := calls.Load(); n != 0 {
		t.Errorf("engine calls = %d, want 0", n)
	}
	m := r.Metrics()
	if got := m.Errors[CodeShuttingDown]; got != 1+uint64(len(qs)) {
		t.Errorf("%s errors = %d, want %d (one per question)", CodeShuttingDown, got, 1+len(qs))
	}
	if m.Served != 0 {
		t.Errorf("served = %d, want 0", m.Served)
	}
}

func TestMetricsSnapshot(t *testing.T) {
	r := withEngine(echoAsk(nil), Options[string]{})
	ctx := context.Background()
	r.Ask(ctx, "q1")
	r.Ask(ctx, "q1")
	r.Ask(ctx, "q2")
	m := r.Metrics()
	if m.Served != 3 || m.CacheHits != 1 || m.CacheMisses != 2 {
		t.Errorf("served/hits/misses = %d/%d/%d, want 3/1/2", m.Served, m.CacheHits, m.CacheMisses)
	}
	if got := m.HitRate; got < 0.3 || got > 0.34 {
		t.Errorf("hit rate = %v, want ~1/3", got)
	}
	if m.Stages[StageTotal].Count != 3 {
		t.Errorf("total histogram count = %d, want 3", m.Stages[StageTotal].Count)
	}
	// Stage histograms record only engine calls (misses), not cache hits.
	if m.Stages[StageParse].Count != 2 {
		t.Errorf("parse histogram count = %d, want 2", m.Stages[StageParse].Count)
	}
	if m.CacheEntries != 2 {
		t.Errorf("cache entries = %d, want 2", m.CacheEntries)
	}
	if m.InFlight != 0 {
		t.Errorf("in-flight = %d, want 0", m.InFlight)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h histogram
	for i := 0; i < 90; i++ {
		h.observe(10 * time.Microsecond) // bucket (5µs, 25µs]
	}
	for i := 0; i < 10; i++ {
		h.observe(20 * time.Millisecond) // bucket (10ms, 50ms]
	}
	s := h.snapshot()
	if s.Count != 100 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.P50Millis < 0.005 || s.P50Millis > 0.025 {
		t.Errorf("p50 = %vms, want within (0.005, 0.025]", s.P50Millis)
	}
	if s.P99Millis < 10 || s.P99Millis > 50 {
		t.Errorf("p99 = %vms, want within (10, 50]", s.P99Millis)
	}
	if s.MeanMillis <= 0 {
		t.Errorf("mean = %v", s.MeanMillis)
	}
}

// TestConcurrentMixedLoad mixes Ask and DoBatch from 32 goroutines over a
// capacity-starved cache (forcing evictions) — run with -race. Afterwards
// the counters must balance exactly.
func TestConcurrentMixedLoad(t *testing.T) {
	var calls atomic.Int64
	r := withEngine(echoAsk(&calls), Options[string]{})
	r.cache = newAnswerCache[string](4, 8)
	questions := make([]string, 32)
	for i := range questions {
		questions[i] = fmt.Sprintf("question %d", i)
	}
	const goroutines = 32
	var wg sync.WaitGroup
	var batchRequests atomic.Uint64
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; i < 20; i++ {
				if (g+i)%3 == 0 {
					batch := questions[(g+i)%16 : (g+i)%16+8]
					items := r.AskBatch(ctx, batch)
					batchRequests.Add(uint64(len(items)))
					for j, it := range items {
						if it.Err != nil || !it.OK {
							t.Errorf("batch slot %d = %+v", j, it)
							return
						}
					}
				} else {
					q := questions[(g*7+i)%len(questions)]
					ans, ok, err := r.Ask(ctx, q)
					if err != nil || !ok || ans != "ans:"+q {
						t.Errorf("ask %q = (%q, %v, %v)", q, ans, ok, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()

	m := r.Metrics()
	if m.CacheHits+m.CacheMisses != m.Served {
		t.Errorf("hits(%d) + misses(%d) != served(%d)", m.CacheHits, m.CacheMisses, m.Served)
	}
	if m.InFlight != 0 {
		t.Errorf("in-flight = %d after drain", m.InFlight)
	}
	if m.CacheEvictions == 0 {
		t.Error("capacity-starved cache recorded no evictions")
	}
	if m.Stages[StageTotal].Count != m.Served {
		t.Errorf("total histogram count %d != served %d", m.Stages[StageTotal].Count, m.Served)
	}
}
