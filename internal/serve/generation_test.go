package serve

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestGenerationKeysCache: bumping the generation makes the resident entry
// unreachable — the same question pays a fresh engine call and caches
// under the new generation, while the in-memory store still physically
// holds the old entry (no stop-the-world flush).
func TestGenerationKeysCache(t *testing.T) {
	var calls atomic.Int64
	r := withEngine(echoAsk(&calls), Options[string]{})
	ctx := context.Background()
	r.Ask(ctx, "q")
	r.Ask(ctx, "q")
	if n := calls.Load(); n != 1 {
		t.Fatalf("engine calls = %d, want 1 before the bump", n)
	}
	if g := r.BumpGeneration(""); g != 1 {
		t.Fatalf("BumpGeneration = %d, want 1", g)
	}
	r.Ask(ctx, "q")
	if n := calls.Load(); n != 2 {
		t.Fatalf("engine calls = %d, want 2 (old generation unreachable)", n)
	}
	m := r.Metrics()
	if m.Generation != 1 {
		t.Errorf("snapshot generation = %d, want 1", m.Generation)
	}
	if m.CacheEntries != 2 {
		t.Errorf("cache entries = %d, want 2 (old entry lingers until LRU turnover)", m.CacheEntries)
	}
}

// TestGenerationTTLExpiry: an entry older than Options.TTL is a miss and
// is recomputed in place.
func TestGenerationTTLExpiry(t *testing.T) {
	var calls atomic.Int64
	r := withEngine(echoAsk(&calls), Options[string]{TTL: time.Nanosecond})
	ctx := context.Background()
	r.Ask(ctx, "q")
	time.Sleep(time.Millisecond)
	r.Ask(ctx, "q")
	if n := calls.Load(); n != 2 {
		t.Fatalf("engine calls = %d, want 2 (entry expired)", n)
	}
	m := r.Metrics()
	if m.CacheHits != 0 || m.CacheMisses != 2 {
		t.Errorf("hits/misses = %d/%d, want 0/2", m.CacheHits, m.CacheMisses)
	}

	// And with a generous TTL the second ask is a hit.
	var calls2 atomic.Int64
	r2 := withEngine(echoAsk(&calls2), Options[string]{TTL: time.Hour})
	r2.Ask(ctx, "q")
	r2.Ask(ctx, "q")
	if n := calls2.Load(); n != 1 {
		t.Fatalf("engine calls = %d, want 1 under long TTL", n)
	}
}

// TestTTLExpiredReadFreesSlot: a TTL miss must purge the dead entry — an
// expired entry otherwise pins an LRU slot until capacity pressure happens
// to displace it — and the purge is counted as an eviction.
func TestTTLExpiredReadFreesSlot(t *testing.T) {
	var calls atomic.Int64
	r := withEngine(echoAsk(&calls), Options[string]{TTL: time.Nanosecond})
	ctx := context.Background()
	r.Ask(ctx, "q")
	time.Sleep(time.Millisecond)
	r.Ask(ctx, "q") // expired read: purge, then recompute in place
	m := r.Metrics()
	if m.CacheEvictions != 1 {
		t.Errorf("evictions = %d, want 1 (the expired entry was purged, not displaced)", m.CacheEvictions)
	}
	if m.CacheEntries != 1 {
		t.Errorf("entries = %d, want 1 (the recompute refilled the freed slot)", m.CacheEntries)
	}
	if n := calls.Load(); n != 2 {
		t.Errorf("engine calls = %d, want 2", n)
	}
}

// TestWarmFromCorpus: warming primes the cache (later traffic hits), and
// with caching disabled it is a no-op that never touches the engine.
func TestWarmFromCorpus(t *testing.T) {
	var calls atomic.Int64
	r := withEngine(echoAsk(&calls), Options[string]{})
	qs := []string{"q1", "q2", "unanswerable"}
	if warmed := r.Warm(context.Background(), qs, "", r.ask); warmed != 3 {
		t.Fatalf("warmed = %d, want 3 (negative answers warm too)", warmed)
	}
	for _, q := range qs {
		r.Ask(context.Background(), q)
	}
	if n := calls.Load(); n != 3 {
		t.Errorf("engine calls = %d, want 3 (all traffic served warm)", n)
	}

	var coldCalls atomic.Int64
	cold := withEngine(echoAsk(&coldCalls), Options[string]{CacheEntries: -1})
	if warmed := cold.Warm(context.Background(), qs, "", cold.ask); warmed != 0 {
		t.Errorf("cache-less warm reported %d resident entries", warmed)
	}
	if n := coldCalls.Load(); n != 0 {
		t.Errorf("cache-less warm touched the engine %d times", n)
	}
}

// TestGenerationInvalidationRace is the retrain-correctness invariant under
// -race: queries hammer the runtime from many goroutines while the "model"
// is repeatedly retrained (model swap, then generation bump — the order
// kbqa.System.Learn uses). Once a retrain to version v has completed, no
// subsequently started query may be served an answer computed by a model
// older than v, cached or not.
func TestGenerationInvalidationRace(t *testing.T) {
	var model atomic.Uint64 // the "engine state"
	ask := func(_ context.Context, q string) (string, StageTimings, bool, error) {
		return fmt.Sprintf("v%d", model.Load()), StageTimings{}, true, nil
	}
	r := withEngine(ask, Options[string]{})
	defer r.Close()

	var floor atomic.Uint64 // min model version a newly started query may see
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				lo := floor.Load()
				ans, ok, err := r.Ask(context.Background(), "the question")
				if err != nil || !ok {
					t.Errorf("ask = (%q, %v, %v)", ans, ok, err)
					return
				}
				var v uint64
				if _, err := fmt.Sscanf(ans, "v%d", &v); err != nil {
					t.Errorf("unparseable answer %q", ans)
					return
				}
				if v < lo {
					t.Errorf("post-retrain query served a pre-retrain answer: model v%d, floor v%d", v, lo)
					return
				}
			}
		}()
	}

	const retrains = 200
	for i := uint64(1); i <= retrains; i++ {
		model.Store(i)       // swap the model...
		r.BumpGeneration("") // ...then invalidate, as Learn's hook does
		floor.Store(i)       // from here on, nobody may see < i
		if i%50 == 0 {
			time.Sleep(time.Millisecond) // let queries interleave
		}
	}
	close(stop)
	wg.Wait()
	if g := r.Generation(); g != retrains {
		t.Fatalf("generation = %d, want %d", g, retrains)
	}
}
