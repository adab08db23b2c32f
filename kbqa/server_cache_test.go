package kbqa

import (
	"bytes"
	"context"
	"sync"
	"testing"
	"time"
)

// smallSystem builds a private system for tests that retrain it, so the
// shared testSystem fixture is never mutated.
func smallSystem(t *testing.T) *System {
	t.Helper()
	s, err := Build(Options{Flavor: "freebase", Seed: 11, Scale: 8, PairsPerIntent: 10})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestServerPersistentCacheSurvivesRestart: answers cached by one Server
// must be served by a new Server over the same cache directory without
// touching the engine again.
func TestServerPersistentCacheSurvivesRestart(t *testing.T) {
	s := testSystem(t)
	dir := t.TempDir()
	qs := s.SampleQuestions(5)
	ctx := context.Background()

	sv1 := mustServer(t, s, ServerOptions{CacheDir: dir})
	want := make([]*Result, len(qs))
	for i, q := range qs {
		res, err := sv1.Query(ctx, q)
		if err != nil {
			t.Fatalf("Query(%q): %v", q, err)
		}
		want[i] = res
	}
	if err := sv1.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	sv2 := mustServer(t, s, ServerOptions{CacheDir: dir})
	defer sv2.Close()
	for i, q := range qs {
		res, err := sv2.Query(ctx, q)
		if err != nil {
			t.Fatalf("post-restart Query(%q): %v", q, err)
		}
		if res.Answer == nil || want[i].Answer == nil ||
			res.Answer.Value != want[i].Answer.Value ||
			res.Answer.Predicate != want[i].Answer.Predicate {
			t.Errorf("post-restart Query(%q) = %+v, want %+v", q, res.Answer, want[i].Answer)
		}
	}
	m := sv2.Metrics()
	if m.CacheMisses != 0 || m.CachePersistHits != uint64(len(qs)) {
		t.Errorf("misses/persist-hits = %d/%d, want 0/%d (all answers from disk)",
			m.CacheMisses, m.CachePersistHits, len(qs))
	}
}

// TestServerNegativeEntriesPersist: a cached typed failure (negative
// entry) survives the restart too — the rebooted server refuses the same
// question from disk instead of re-probing.
func TestServerNegativeEntriesPersist(t *testing.T) {
	s := testSystem(t)
	dir := t.TempDir()
	ctx := context.Background()
	const q = "what is the meaning of life"

	sv1 := mustServer(t, s, ServerOptions{CacheDir: dir})
	_, err1 := sv1.Query(ctx, q)
	if err1 == nil || !IsUnanswerable(err1) {
		t.Fatalf("err = %v, want a typed unanswerable failure", err1)
	}
	sv1.Close()

	sv2 := mustServer(t, s, ServerOptions{CacheDir: dir})
	defer sv2.Close()
	_, err2 := sv2.Query(ctx, q)
	if err2 == nil || ErrorCode(err2) != ErrorCode(err1) {
		t.Fatalf("post-restart err = %v (code %q), want code %q", err2, ErrorCode(err2), ErrorCode(err1))
	}
	if m := sv2.Metrics(); m.CacheMisses != 0 {
		t.Errorf("negative entry missed the persisted cache: %+v", m)
	}
}

// TestServerCacheDirRejectsDisabledCache: persistence over a disabled
// cache is a configuration contradiction, not a silent no-op.
func TestServerCacheDirRejectsDisabledCache(t *testing.T) {
	s := testSystem(t)
	if _, err := s.Server(ServerOptions{CacheDir: t.TempDir(), CacheEntries: -1}); err == nil {
		t.Fatal("CacheDir with disabled caching accepted")
	}
}

// TestServerLearnBumpsGeneration: Learn and LoadModel must invalidate the
// answer cache the moment they return — the next identical query is a miss
// recomputed on the new engine, even though the old entry is resident.
func TestServerLearnBumpsGeneration(t *testing.T) {
	s := smallSystem(t)
	sv := mustServer(t, s, ServerOptions{})
	defer sv.Close()
	ctx := context.Background()
	q := s.SampleQuestions(1)[0]

	if _, err := sv.Query(ctx, q); err != nil {
		t.Fatalf("Query: %v", err)
	}
	if _, err := sv.Query(ctx, q); err != nil {
		t.Fatalf("Query: %v", err)
	}
	m := sv.Metrics()
	if m.CacheMisses != 1 || m.CacheHits != 1 {
		t.Fatalf("misses/hits = %d/%d, want 1/1 before retrain", m.CacheMisses, m.CacheHits)
	}
	if sv.Generation() != 0 {
		t.Fatalf("generation = %d before retrain", sv.Generation())
	}

	s.Learn(s.TrainingCorpus())
	if sv.Generation() != 1 {
		t.Fatalf("generation = %d after Learn, want 1", sv.Generation())
	}
	if _, err := sv.Query(ctx, q); err != nil {
		t.Fatalf("post-Learn Query: %v", err)
	}
	m = sv.Metrics()
	if m.CacheMisses != 2 {
		t.Fatalf("misses = %d after Learn, want 2 (old entry unreachable)", m.CacheMisses)
	}

	// LoadModel invalidates the same way.
	var buf bytes.Buffer
	if err := s.SaveModel(&buf); err != nil {
		t.Fatal(err)
	}
	if err := s.LoadModel(&buf); err != nil {
		t.Fatal(err)
	}
	if sv.Generation() != 2 {
		t.Fatalf("generation = %d after LoadModel, want 2", sv.Generation())
	}
}

// TestServerQueryLearnRace hammers Query from many goroutines while the
// system retrains repeatedly (run with -race): no query may error on
// anything but a typed unanswerable failure, and once a Learn has
// returned, no query started afterwards may be served from a pre-Learn
// cache entry — verified by the generation counter having advanced past
// every served entry's generation (the serve-level invariant is asserted
// directly in internal/serve's TestGenerationInvalidationRace; here the
// full System/Server plumbing is exercised).
func TestServerQueryLearnRace(t *testing.T) {
	s := smallSystem(t)
	sv := mustServer(t, s, ServerOptions{})
	defer sv.Close()
	qs := s.SampleQuestions(6)
	if len(qs) == 0 {
		t.Skip("no sample questions")
	}
	corpus := s.TrainingCorpus()

	const retrains = 5
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				_, err := sv.Query(ctx, qs[(g+i)%len(qs)])
				if err != nil && !IsUnanswerable(err) {
					t.Errorf("Query under retrain: %v", err)
					return
				}
			}
		}(g)
	}
	for i := 0; i < retrains; i++ {
		s.Learn(corpus)
	}
	close(stop)
	wg.Wait()

	if g := sv.Generation(); g != retrains {
		t.Fatalf("generation = %d, want %d", g, retrains)
	}
	// The cache must still function after the churn.
	q := qs[0]
	if _, err := sv.Query(context.Background(), q); err != nil && !IsUnanswerable(err) {
		t.Fatalf("post-race Query: %v", err)
	}
}

// TestServerCacheTTL: a TTL of a nanosecond forces recomputation; a
// generous TTL keeps the hit path.
func TestServerCacheTTL(t *testing.T) {
	s := testSystem(t)
	ctx := context.Background()
	q := s.SampleQuestions(1)[0]

	short := mustServer(t, s, ServerOptions{CacheTTL: time.Nanosecond})
	defer short.Close()
	short.Query(ctx, q)
	time.Sleep(time.Millisecond)
	short.Query(ctx, q)
	if m := short.Metrics(); m.CacheMisses != 2 {
		t.Errorf("short TTL misses = %d, want 2", m.CacheMisses)
	}

	long := mustServer(t, s, ServerOptions{CacheTTL: time.Hour})
	defer long.Close()
	long.Query(ctx, q)
	long.Query(ctx, q)
	if m := long.Metrics(); m.CacheHits != 1 {
		t.Errorf("long TTL hits = %d, want 1", m.CacheHits)
	}
}

// TestServerWarmFromCorpus: warming primes the cache so traffic hits it,
// and reports how many questions ended resident.
func TestServerWarmFromCorpus(t *testing.T) {
	s := testSystem(t)
	sv := mustServer(t, s, ServerOptions{})
	defer sv.Close()
	qs := s.SampleQuestions(8)

	warmed := sv.WarmFromCorpus(context.Background(), qs)
	if warmed != len(qs) {
		t.Fatalf("warmed = %d, want %d", warmed, len(qs))
	}
	for _, q := range qs {
		if _, err := sv.Query(context.Background(), q); err != nil {
			t.Fatalf("Query(%q) after warm: %v", q, err)
		}
	}
	m := sv.Metrics()
	if m.CacheHits != uint64(len(qs)) {
		t.Errorf("hits = %d, want %d (all traffic served warm)", m.CacheHits, len(qs))
	}
}

// TestServerRateLimit: the per-client token bucket refuses the over-quota
// client with a Retry-After hint, counts the rejection, and leaves other
// clients untouched.
func TestServerRateLimit(t *testing.T) {
	s := testSystem(t)
	// Negligible refill: deterministic regardless of scheduler pauses.
	sv := mustServer(t, s, ServerOptions{RateLimit: 0.001, RateBurst: 2})
	defer sv.Close()

	for i := 0; i < 2; i++ {
		if ok, _ := sv.AllowN("client-a", 1); !ok {
			t.Fatalf("request %d inside burst refused", i)
		}
	}
	ok, retry := sv.AllowN("client-a", 1)
	if ok {
		t.Fatal("over-quota request allowed")
	}
	if retry <= 0 {
		t.Fatalf("retryAfter = %v, want > 0", retry)
	}
	if ok, _ := sv.AllowN("client-b", 1); !ok {
		t.Fatal("distinct client throttled")
	}
	if m := sv.Metrics(); m.RateLimitRejected != 1 {
		t.Errorf("ratelimit rejected = %d, want 1", m.RateLimitRejected)
	}

	// Without a configured limit every request is allowed.
	unlimited := mustServer(t, s, ServerOptions{})
	defer unlimited.Close()
	for i := 0; i < 100; i++ {
		if ok, _ := unlimited.AllowN("anyone", 1); !ok {
			t.Fatal("unlimited server refused a request")
		}
	}
}

// TestServerStaleModelCacheRefusedAcrossRestart: a cache written by a
// retrained model must not be served by a fresh boot running the seed
// model — the persisted model tag catches the mismatch and the generation
// advances past the stale entries.
func TestServerStaleModelCacheRefusedAcrossRestart(t *testing.T) {
	opts := Options{Flavor: "freebase", Seed: 13, Scale: 8, PairsPerIntent: 10}
	dir := t.TempDir()
	ctx := context.Background()

	s1, err := Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	sv1 := mustServer(t, s1, ServerOptions{CacheDir: dir})
	q := s1.SampleQuestions(1)[0]
	corpus := s1.TrainingCorpus()
	s1.Learn(corpus[:len(corpus)/2]) // a genuinely different model
	if sv1.Generation() != 1 {
		t.Fatalf("generation = %d after Learn, want 1", sv1.Generation())
	}
	if _, err := sv1.Query(ctx, q); err != nil && !IsUnanswerable(err) {
		t.Fatal(err)
	}
	if err := sv1.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": a fresh process builds the same world, which learns the
	// seed model — not the retrained one the cache holds.
	s2, err := Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	sv2 := mustServer(t, s2, ServerOptions{CacheDir: dir})
	defer sv2.Close()
	if g := sv2.Generation(); g != 2 {
		t.Fatalf("fresh-boot generation = %d, want 2 (advanced past the retrained entries)", g)
	}
	if _, err := sv2.Query(ctx, q); err != nil && !IsUnanswerable(err) {
		t.Fatal(err)
	}
	m := sv2.Metrics()
	if m.CachePersistHits != 0 || m.CacheMisses != 1 {
		t.Errorf("persist-hits/misses = %d/%d, want 0/1 (stale model's answers refused)",
			m.CachePersistHits, m.CacheMisses)
	}

	// The inverse ordering — Learn before Server construction — is caught
	// the same way: the cache sv2 just wrote belongs to s2's seed model,
	// and a system that retrained first presents a different tag.
	s3, err := Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	s3.Learn(corpus[:len(corpus)/2])
	sv2.Close() // flush sv2's seed-model entries first
	sv3 := mustServer(t, s3, ServerOptions{CacheDir: dir})
	defer sv3.Close()
	if m := sv3.Metrics(); m.CacheEntries != 0 {
		t.Errorf("pre-construction Learn: %d seed-model entries replayed into the retrained system", m.CacheEntries)
	}
}

// TestServerCloseDeregistersRetrainHook: a closed server must not be
// retained (or notified) by the system — churning servers on a long-lived
// system leaks nothing.
func TestServerCloseDeregistersRetrainHook(t *testing.T) {
	s := smallSystem(t)
	for i := 0; i < 5; i++ {
		sv := mustServer(t, s, ServerOptions{})
		if err := sv.Close(); err != nil {
			t.Fatal(err)
		}
	}
	s.mu.RLock()
	n := len(s.retrain)
	s.mu.RUnlock()
	if n != 0 {
		t.Fatalf("%d retrain hooks still registered after all servers closed", n)
	}
	// A live server's hook still fires after dead ones are gone.
	sv := mustServer(t, s, ServerOptions{})
	defer sv.Close()
	s.Learn(s.TrainingCorpus())
	if g := sv.Generation(); g != 1 {
		t.Fatalf("surviving server generation = %d after Learn, want 1", g)
	}
}
