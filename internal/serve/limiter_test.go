package serve

import (
	"fmt"
	"testing"
	"time"
)

func TestLimiterBurstThenRefill(t *testing.T) {
	l := NewLimiter(1, 2) // 1 rps, burst 2
	now := time.Unix(1000, 0)

	for i := 0; i < 2; i++ {
		if ok, _ := l.AllowN("c", 1, now); !ok {
			t.Fatalf("request %d inside burst rejected", i)
		}
	}
	ok, retry := l.AllowN("c", 1, now)
	if ok {
		t.Fatal("request beyond burst allowed")
	}
	if retry <= 0 || retry > time.Second {
		t.Fatalf("retryAfter = %v, want (0, 1s]", retry)
	}

	// One token refills after one second.
	if ok, _ := l.AllowN("c", 1, now.Add(time.Second)); !ok {
		t.Fatal("refilled token rejected")
	}
	// ... and it was spent: an immediate repeat is rejected again.
	if ok, _ := l.AllowN("c", 1, now.Add(time.Second)); ok {
		t.Fatal("second request on one refilled token allowed")
	}
}

// TestLimiterAllowNDebt: a batch admission charges its full weight, so
// batching cannot multiply a client's sustained rate — after an n-question
// batch the client owes n seconds of refill (rate 1) before the next
// admission.
func TestLimiterAllowNDebt(t *testing.T) {
	l := NewLimiter(1, 2)
	now := time.Unix(0, 0)
	if ok, _ := l.AllowN("c", 10, now); !ok {
		t.Fatal("first batch refused despite positive balance")
	}
	// Balance is now 2-10 = -8: nothing is admitted until it refills past 1.
	ok, retry := l.AllowN("c", 1, now)
	if ok {
		t.Fatal("admitted at negative balance")
	}
	if retry < 9*time.Second {
		t.Fatalf("retryAfter = %v, want >= 9s (8s debt + 1 token)", retry)
	}
	if ok, _ := l.AllowN("c", 1, now.Add(8*time.Second)); ok {
		t.Fatal("admitted while still in debt")
	}
	if ok, _ := l.AllowN("c", 1, now.Add(10*time.Second)); !ok {
		t.Fatal("refused after the debt refilled")
	}
}

func TestLimiterClientsIndependent(t *testing.T) {
	l := NewLimiter(1, 1)
	now := time.Unix(0, 0)
	if ok, _ := l.AllowN("a", 1, now); !ok {
		t.Fatal("a's first request rejected")
	}
	if ok, _ := l.AllowN("a", 1, now); ok {
		t.Fatal("a's second request allowed")
	}
	if ok, _ := l.AllowN("b", 1, now); !ok {
		t.Fatal("b throttled by a's spending")
	}
}

func TestLimiterBurstCapsRefill(t *testing.T) {
	l := NewLimiter(100, 5)
	now := time.Unix(0, 0)
	// A long idle period must not bank more than burst tokens.
	later := now.Add(time.Hour)
	allowed := 0
	for i := 0; i < 50; i++ {
		if ok, _ := l.AllowN("c", 1, later); ok {
			allowed++
		}
	}
	if allowed != 5 {
		t.Fatalf("allowed %d requests after idle, want burst 5", allowed)
	}
}

func TestLimiterDefaultBurst(t *testing.T) {
	l := NewLimiter(2.5, 0) // burst defaults to ⌈2.5⌉ = 3
	now := time.Unix(0, 0)
	allowed := 0
	for i := 0; i < 10; i++ {
		if ok, _ := l.AllowN("c", 1, now); ok {
			allowed++
		}
	}
	if allowed != 3 {
		t.Fatalf("allowed %d, want default burst 3", allowed)
	}
}

// TestLimiterBoundedUnderKeyFlood: a flood of distinct client keys must not
// grow limiter memory without bound, and pruning must not throttle an
// active client.
func TestLimiterBoundedUnderKeyFlood(t *testing.T) {
	l := NewLimiter(1, 1)
	now := time.Unix(0, 0)
	// The clock advances with the flood, so buckets go idle (fully
	// refilled) and are mass-pruned once a shard fills, keeping the
	// pruning amortized instead of O(shard) per insert.
	for i := 0; i < limiterShardCount*maxBucketsPerShard*2; i++ {
		l.AllowN(fmt.Sprintf("client-%d", i), 1, now.Add(time.Duration(i)*time.Millisecond))
	}
	total := 0
	for i := range l.shards {
		s := &l.shards[i]
		s.mu.Lock()
		total += len(s.buckets)
		s.mu.Unlock()
	}
	if total > limiterShardCount*maxBucketsPerShard {
		t.Fatalf("%d buckets resident, want <= %d", total, limiterShardCount*maxBucketsPerShard)
	}
}
