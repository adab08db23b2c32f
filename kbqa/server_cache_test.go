package kbqa

import (
	"bytes"
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/decompose"
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

// TestServerLearnBumpsGeneration: a Learn or LoadModel that changes the
// model must invalidate the answer cache the moment it returns — the next
// identical query is a miss recomputed on the new engine, even though the
// old entry is resident — and each swap counts as one generation.
func TestServerLearnBumpsGeneration(t *testing.T) {
	s := smallSystem(t)
	sv := mustServer(t, s, ServerOptions{})
	defer sv.Close()
	ctx := context.Background()
	q := s.SampleQuestions(1)[0]
	var full bytes.Buffer
	if err := s.SaveModel(&full); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 2; i++ {
		if _, err := sv.Query(ctx, q); err != nil {
			t.Fatalf("Query: %v", err)
		}
	}
	m := sv.Metrics()
	if m.CacheMisses != 1 || m.CacheHits != 1 {
		t.Fatalf("misses/hits = %d/%d, want 1/1 before retrain", m.CacheMisses, m.CacheHits)
	}
	if sv.Generation() != 0 {
		t.Fatalf("generation = %d before retrain", sv.Generation())
	}

	corpus := s.TrainingCorpus()
	s.Learn(corpus[:len(corpus)/2]) // a genuinely different model
	if sv.Generation() != 1 {
		t.Fatalf("generation = %d after Learn, want 1", sv.Generation())
	}
	if _, err := sv.Query(ctx, q); err != nil && !IsUnanswerable(err) {
		t.Fatalf("post-Learn Query: %v", err)
	}
	if m := sv.Metrics(); m.CacheMisses != 2 {
		t.Fatalf("misses = %d after Learn, want 2 (old entry unreachable)", m.CacheMisses)
	}

	// LoadModel invalidates the same way: the full-corpus model over the
	// half-corpus statistics is a third state.
	if err := s.LoadModel(&full); err != nil {
		t.Fatal(err)
	}
	if sv.Generation() != 2 {
		t.Fatalf("generation = %d after LoadModel, want 2", sv.Generation())
	}
	if _, err := sv.Query(ctx, q); err != nil && !IsUnanswerable(err) {
		t.Fatalf("post-LoadModel Query: %v", err)
	}
	if m := sv.Metrics(); m.CacheMisses != 3 || m.Generation != 2 {
		t.Fatalf("misses/generation = %d/%d after LoadModel, want 3/2", m.CacheMisses, m.Generation)
	}
}

// TestServerSameModelSwapKeepsCache: answers are keyed by the content of
// the model that computed them, not by how many swaps happened — a swap
// that republishes the same model and statistics keeps every cached
// answer, and one that changes them does not.
func TestServerSameModelSwapKeepsCache(t *testing.T) {
	s := smallSystem(t)
	sv := mustServer(t, s, ServerOptions{})
	defer sv.Close()
	ctx := context.Background()
	q := s.SampleQuestions(1)[0]
	ask := func(step string, wantMisses uint64) {
		t.Helper()
		if _, err := sv.Query(ctx, q); err != nil && !IsUnanswerable(err) {
			t.Fatalf("%s: Query: %v", step, err)
		}
		if m := sv.Metrics(); m.CacheMisses != wantMisses {
			t.Fatalf("%s: misses = %d, want %d", step, m.CacheMisses, wantMisses)
		}
	}
	ask("first ask", 1)

	var buf bytes.Buffer
	if err := s.SaveModel(&buf); err != nil {
		t.Fatal(err)
	}
	if err := s.LoadModel(&buf); err != nil {
		t.Fatal(err)
	}
	ask("after SaveModel → LoadModel", 1)

	s.Learn(s.TrainingCorpus())
	ask("after Learn on the training corpus", 1)

	corpus := s.TrainingCorpus()
	s.Learn(corpus[:len(corpus)/2])
	ask("after Learn on half the corpus", 2)
	if g := sv.Generation(); g != 3 {
		t.Errorf("generation = %d after three swaps, want 3", g)
	}
}

// TestContentTagCoversStats: the tag a Server keys answers by names the
// decomposition statistics as well as the model — LoadModel keeps the
// statistics and Learn replaces them, so a swap that changes only P(q̌)
// must change keys too.
func TestContentTagCoversStats(t *testing.T) {
	s := smallSystem(t)
	cur := s.cur.Load()
	qs := make([]string, 0, len(s.world.Pairs))
	for _, p := range s.world.Pairs {
		qs = append(qs, p.Q)
	}
	half := decompose.BuildStats(qs[:len(qs)/2], s.world.Symbols.Lexicon.Has)
	if a, b := contentTag(s.digest, cur.model, cur.engine.Stats), contentTag(s.digest, cur.model, half); a == b {
		t.Fatalf("one model over two statistics tags %s both times", a)
	}
	if got := contentTag(s.digest, cur.model, cur.engine.Stats); got != cur.tag || len(got) != 16 {
		t.Errorf("tag %q is not the published %q or not 16 hex digits", got, cur.tag)
	}
}

// TestServerModelSwapRace is the swap-correctness invariant under -race:
// eight goroutines query a Server while its system swaps back and forth
// between two models that answer differently. A query that ran entirely
// between two swaps — no swap in flight when it started, none completed
// before it returned — must return exactly what the model published then
// gives, never the previous model's answer from the cache.
func TestServerModelSwapRace(t *testing.T) {
	s := smallSystem(t)
	sv := mustServer(t, s, ServerOptions{})
	defer sv.Close()
	ctx := context.Background()
	corpus := s.TrainingCorpus()
	models := [2][]QA{corpus, corpus[:len(corpus)/2]}

	// reply renders what System.Query (no cache) gives under the current
	// model, so the two models' answers can be told apart.
	reply := func(res *Result, err error) string {
		switch {
		case err != nil:
			return "error " + ErrorCode(err)
		case res.Answer != nil:
			return "answer " + res.Answer.Value + " via " + res.Answer.Predicate
		default:
			return "variant " + res.Variant.Kind
		}
	}
	// Questions of the held-out half are the ones the models disagree on.
	var asked []string
	for _, p := range corpus[len(corpus)/2:] {
		asked = append(asked, p.Q)
	}
	var want [2]map[string]string
	for m := 1; m >= 0; m-- { // ends on models[0], the system as built
		s.Learn(models[m])
		want[m] = map[string]string{}
		for _, q := range asked {
			want[m][q] = reply(s.Query(ctx, q))
		}
	}
	var qs []string
	for q, a := range want[0] {
		if want[1][q] != a {
			qs = append(qs, q)
		}
	}
	if len(qs) == 0 {
		t.Fatal("the two models answer every sample the same; the race would prove nothing")
	}

	// seq is a seqlock over the swaps: odd while one is in flight, and
	// seq/2 swaps completed.
	var seq atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var checked atomic.Int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := qs[(g+i)%len(qs)]
				before := seq.Load()
				got := reply(sv.Query(ctx, q))
				if before%2 == 1 || seq.Load() != before {
					continue // a swap overlapped the query: either model may answer
				}
				checked.Add(1)
				if m := before / 2 % 2; got != want[m][q] {
					t.Errorf("Query(%q) after swap %d = %q, want model %d's %q (the other model gives %q)",
						q, before/2, got, m, want[m][q], want[1-m][q])
					return
				}
			}
		}(g)
	}
	// settle waits until the goroutines have checked a few more queries
	// under the model published now.
	settle := func() {
		want := checked.Load() + 16
		for deadline := time.Now().Add(10 * time.Second); checked.Load() < want && time.Now().Before(deadline); {
			runtime.Gosched()
		}
	}
	const swaps = 6
	for i := 1; i <= swaps; i++ {
		settle()
		seq.Add(1)
		s.Learn(models[i%2])
		seq.Add(1)
	}
	settle()
	close(stop)
	wg.Wait()
	if checked.Load() == 0 {
		t.Fatal("no query ran between two swaps")
	}
	if g := sv.Generation(); g != 2+swaps {
		t.Errorf("generation = %d, want %d", g, 2+swaps)
	}
}

// TestServerQueryLearnRace: eight goroutines query a Server while its
// system retrains five times on the full corpus; no query fails, every
// Learn counts as a swap, and the cache still answers after the churn.
func TestServerQueryLearnRace(t *testing.T) {
	s := smallSystem(t)
	sv := mustServer(t, s, ServerOptions{})
	defer sv.Close()
	qs := s.SampleQuestions(6)
	if len(qs) == 0 {
		t.Fatal("no sample questions")
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
// model — every persisted key starts with the tag of the model that
// computed it, and replay keeps only the booting model's.
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
