package serve

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestGenerationKeysCache: the fingerprint leads the key, so a caller that
// starts it with the model's identity gets one keyspace per model — a new
// model's first ask pays an engine call, while the in-memory store still
// physically holds the old entry (no stop-the-world flush), and a swap back
// to the old model hits it again.
func TestGenerationKeysCache(t *testing.T) {
	var calls atomic.Int64
	r := withEngine(echoAsk(&calls), Options[string]{})
	ctx := context.Background()
	r.Do(ctx, "q", "m0", r.ask)
	r.Do(ctx, "q", "m0", r.ask)
	if n := calls.Load(); n != 1 {
		t.Fatalf("engine calls = %d, want 1 under one model", n)
	}
	r.Do(ctx, "q", "m1", r.ask)
	if n := calls.Load(); n != 2 {
		t.Fatalf("engine calls = %d, want 2 (a new model misses)", n)
	}
	r.Do(ctx, "q", "m0", r.ask)
	if n := calls.Load(); n != 2 {
		t.Fatalf("engine calls = %d, want 2 (the old model's entry is still keyed by it)", n)
	}
	if m := r.Metrics(); m.CacheEntries != 2 {
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

// TestGenerationInvalidationRace: with the model's identity at the front of
// the fingerprint, a retrain needs no flush. Eight goroutines ask while the
// "engine state" is swapped 200 times; each reads the model once, keys its
// ask by it and computes with it, so a query started after a swap sees that
// model or a later one, and every answer is the one computed under the
// fingerprint it was asked with — never another model's entry.
func TestGenerationInvalidationRace(t *testing.T) {
	var model atomic.Uint64 // the "engine state"
	r := withEngine(echoAsk(new(atomic.Int64)), Options[string]{})
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
				v := model.Load()
				fp := fmt.Sprintf("v%d", v)
				ask := func(context.Context, string) (string, StageTimings, bool, error) {
					return fp, StageTimings{}, true, nil
				}
				ans, ok, err := r.Do(context.Background(), "the question", fp, ask)
				if err != nil || !ok {
					t.Errorf("ask = (%q, %v, %v)", ans, ok, err)
					return
				}
				if ans != fp {
					t.Errorf("ask keyed by %s served %q, another model's answer", fp, ans)
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
		model.Store(i) // swap the model: its identity is the new fingerprint
		floor.Store(i) // from here on, nobody may see < i
		if i%50 == 0 {
			time.Sleep(time.Millisecond) // let queries interleave
		}
	}
	close(stop)
	wg.Wait()
	if m := r.Metrics(); m.CacheHits == 0 {
		t.Error("no ask hit the cache between two swaps")
	}
}
