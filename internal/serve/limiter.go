package serve

import (
	"sync"
	"time"
)

// limiterShardCount spreads client buckets over independently locked shards
// so the per-request AllowN check doesn't serialize the whole frontend.
const limiterShardCount = 16

// maxBucketsPerShard bounds limiter memory under a flood of distinct client
// keys; when a shard is full, idle (fully refilled) buckets are pruned, and
// as a last resort an arbitrary one is dropped — a dropped client merely
// starts from a fresh full bucket.
const maxBucketsPerShard = 4096

// Limiter is a per-client token-bucket rate limiter, the quota layer in
// front of admission control: admission protects the engine from aggregate
// overload, the limiter protects it from any single client. Each client key
// (API key, remote address, …) owns a bucket of burst tokens refilled at
// rate tokens/second; a question costs one token. AllowN takes the clock as
// an argument so policies are testable without sleeping.
type Limiter struct {
	rate   float64 // tokens per second
	burst  float64
	shards [limiterShardCount]limiterShard
}

type limiterShard struct {
	mu      sync.Mutex
	buckets map[string]*bucket
}

type bucket struct {
	tokens float64
	last   time.Time
}

// NewLimiter builds a limiter granting each client perSecond sustained
// requests per second with the given burst allowance (burst < 1 defaults to
// ⌈perSecond⌉, minimum 1). perSecond must be positive.
func NewLimiter(perSecond float64, burst int) *Limiter {
	if burst < 1 {
		burst = int(perSecond)
		if float64(burst) < perSecond {
			burst++
		}
		if burst < 1 {
			burst = 1
		}
	}
	return &Limiter{rate: perSecond, burst: float64(burst)}
}

// AllowN reports whether a request worth n tokens from client may proceed
// at time now; when it may not, retryAfter is how long until the bucket
// holds a full token again (the Retry-After hint). A batch of n questions
// must not out-run the quota 256 requests at a time. Admission needs only
// a positive balance, but the full n is charged, driving the balance as
// far negative as the batch is big; the client then refills back above
// zero at the sustained rate before anything else is admitted. A client's
// long-run throughput is therefore rate questions/second regardless of
// how they are batched, at the price of burstiness proportional to the
// largest batch.
func (l *Limiter) AllowN(client string, n int, now time.Time) (ok bool, retryAfter time.Duration) {
	if n < 1 {
		n = 1
	}
	s := &l.shards[fnv1a(client)%limiterShardCount]
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.buckets == nil {
		s.buckets = make(map[string]*bucket)
	}
	b := s.buckets[client]
	if b == nil {
		if len(s.buckets) >= maxBucketsPerShard {
			s.prune(now, l)
		}
		b = &bucket{tokens: l.burst, last: now}
		s.buckets[client] = b
	} else if el := now.Sub(b.last).Seconds(); el > 0 {
		b.tokens += el * l.rate
		if b.tokens > l.burst {
			b.tokens = l.burst
		}
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens -= float64(n)
		return true, 0
	}
	return false, time.Duration((1 - b.tokens) / l.rate * float64(time.Second))
}

// prune drops idle buckets (refilled back to full by now — debt included —
// so indistinguishable from absent). If every client is active, the bucket
// closest to full is dropped instead: forgetting it grants the least free
// quota, and in particular a deep debtor (a client that just spent a big
// batch) is never the one amnestied.
func (s *limiterShard) prune(now time.Time, l *Limiter) {
	pruned := false
	richest, richTokens := "", 0.0
	for k, b := range s.buckets {
		// Effective balance: the stored tokens plus what has refilled
		// since the bucket was last touched, saturating at burst.
		eff := b.tokens + now.Sub(b.last).Seconds()*l.rate
		if eff > l.burst {
			eff = l.burst
		}
		if eff >= l.burst {
			delete(s.buckets, k)
			pruned = true
		} else if richest == "" || eff > richTokens {
			richest, richTokens = k, eff
		}
	}
	if !pruned && richest != "" {
		delete(s.buckets, richest)
	}
}
