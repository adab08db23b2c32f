package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// deadlines is an engine that answers at once and records the deadline
// each call saw. Each call sleeps a millisecond first, so two deadlines
// armed by two calls in turn never read the same instant.
type deadlines struct {
	mu   sync.Mutex
	seen []time.Time
}

func (d *deadlines) ask(ctx context.Context, q string) (string, StageTimings, bool, error) {
	at, ok := ctx.Deadline()
	if !ok {
		return "", StageTimings{}, false, fmt.Errorf("compute(%q) ran without a deadline", q)
	}
	d.mu.Lock()
	d.seen = append(d.seen, at)
	d.mu.Unlock()
	time.Sleep(time.Millisecond)
	return "ans:" + q, StageTimings{}, true, nil
}

// take returns the deadlines recorded since the last take.
func (d *deadlines) take() []time.Time {
	d.mu.Lock()
	defer d.mu.Unlock()
	seen := d.seen
	d.seen = nil
	return seen
}

func questionsN(n int) []string {
	qs := make([]string, n)
	for i := range qs {
		qs[i] = fmt.Sprintf("q%d", i)
	}
	return qs
}

func checkAnswered(t *testing.T, what string, items []BatchItem[string]) {
	t.Helper()
	for i, it := range items {
		if it.Err != nil || !it.OK {
			t.Errorf("%s: slot %d = %+v", what, i, it)
		}
	}
}

// TestBatchIsOneRequestWithOneDeadline: under Options.Timeout a batch arms
// one deadline, which every question's engine call sees; a batch that
// brings a deadline keeps it; Do and Warm arm one per question.
func TestBatchIsOneRequestWithOneDeadline(t *testing.T) {
	var d deadlines
	qs := questionsN(8)
	r := New(Options[string]{CacheEntries: -1, Timeout: time.Minute})
	r.batchWorkers = 4
	ctx := context.Background()

	checkAnswered(t, "DoBatch", r.DoBatch(ctx, qs, "", d.ask))
	seen := d.take()
	if len(seen) != len(qs) {
		t.Fatalf("DoBatch made %d engine calls, want %d", len(seen), len(qs))
	}
	for i, at := range seen {
		if !at.Equal(seen[0]) {
			t.Errorf("DoBatch: call %d saw deadline %v, call 0 saw %v: want one deadline per batch", i, at, seen[0])
		}
	}

	bctx, cancel := context.WithTimeout(ctx, time.Hour)
	defer cancel()
	want, _ := bctx.Deadline()
	checkAnswered(t, "DoBatch under a deadline", r.DoBatch(bctx, qs, "", d.ask))
	for i, at := range d.take() {
		if !at.Equal(want) {
			t.Errorf("DoBatch under a deadline: call %d saw %v, want the caller's %v", i, at, want)
		}
	}

	for _, q := range qs[:2] {
		if _, _, err := r.Do(ctx, q, "", d.ask); err != nil {
			t.Fatalf("Do(%q): %v", q, err)
		}
	}
	if seen := d.take(); len(seen) != 2 || !seen[0].Before(seen[1]) {
		t.Errorf("two Do calls saw deadlines %v, want two, armed in turn", seen)
	}

	w := New(Options[string]{Timeout: time.Minute})
	w.batchWorkers = 1
	if n := w.Warm(ctx, qs, "", d.ask); n != len(qs) {
		t.Fatalf("Warm warmed %d of %d", n, len(qs))
	}
	seen = d.take()
	for i := 1; i < len(seen); i++ {
		if !seen[i-1].Before(seen[i]) {
			t.Errorf("Warm: call %d saw %v, call %d saw %v: want one deadline per question", i-1, seen[i-1], i, seen[i])
		}
	}
}

// TestCloseWaitsForBatch: a batch in flight holds one drain ticket for all
// its questions, so Close waits for it, and a question that starts after
// Close was called is still answered.
func TestCloseWaitsForBatch(t *testing.T) {
	qs := questionsN(2)
	started := make(chan string, len(qs))
	release := make(chan struct{})
	block := func(_ context.Context, q string) (string, StageTimings, bool, error) {
		started <- q
		<-release
		return "ans:" + q, StageTimings{}, true, nil
	}
	r := New(Options[string]{CacheEntries: -1})
	r.batchWorkers = 1
	batch := make(chan []BatchItem[string], 1)
	go func() { batch <- r.DoBatch(context.Background(), qs, "", block) }()
	<-started

	closed := make(chan error, 1)
	go func() { closed <- r.Close() }()
	// Close has flipped the runtime to shutting down once a new request
	// is refused.
	for {
		if _, _, err := r.Do(context.Background(), "probe", "", echoAsk(nil)); errors.Is(err, ErrShuttingDown) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case err := <-closed:
		t.Fatalf("Close returned (%v) while a batch held its ticket", err)
	case <-time.After(10 * time.Millisecond):
	}
	close(release)
	checkAnswered(t, "the draining batch", <-batch)
	if err := <-closed; err != nil {
		t.Errorf("Close: %v", err)
	}
}

// TestBatchAllocsPerQuestion pins what a /batch of 64 distinct questions
// allocates in the runtime with the cache off and Options.Timeout set: the
// per-question pipeline plus the batch's one deadline and worker pool. A
// deadline armed per question adds its timer context to every question.
func TestBatchAllocsPerQuestion(t *testing.T) {
	const n = 64
	qs := questionsN(n)
	r := New(Options[string]{CacheEntries: -1, Timeout: time.Minute})
	r.batchWorkers = 2
	trivial := func(context.Context, string) (string, StageTimings, bool, error) {
		return "ans", StageTimings{}, true, nil
	}
	ctx := context.Background()
	allocs := testing.AllocsPerRun(50, func() { r.DoBatch(ctx, qs, "fp", trivial) })
	t.Logf("a /batch of %d: %.0f allocations, %.2f per question", n, allocs, allocs/n)
	if allocs > 203 {
		t.Errorf("a /batch of %d: %.0f allocations, ceiling 203", n, allocs)
	}
}
