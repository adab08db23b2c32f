package kbqa

import (
	"context"
	"errors"
	"sync"
	"testing"
)

// mustServer builds a Server or fails the test; the constructor only
// errors on persistence options.
func mustServer(t testing.TB, s *System, o ServerOptions) *Server {
	t.Helper()
	sv, err := s.Server(o)
	if err != nil {
		t.Fatal(err)
	}
	return sv
}

func TestServerAskMatchesSystemAsk(t *testing.T) {
	s := testSystem(t)
	sv := mustServer(t, s, ServerOptions{})
	defer sv.Close()
	ctx := context.Background()
	for _, q := range s.SampleQuestions(10) {
		want, wantOK := ask(ctx, s, q)
		for i := 0; i < 2; i++ { // second round is served from the cache
			got, gotOK := ask(ctx, sv, q)
			if gotOK != wantOK || got.Value != want.Value || got.Predicate != want.Predicate {
				t.Errorf("Ask(%q) round %d = (%+v, %v), want (%+v, %v)", q, i, got, gotOK, want, wantOK)
			}
		}
	}
	m := sv.Metrics()
	if m.CacheHits == 0 {
		t.Error("second round should have hit the cache")
	}
	if m.CacheHits+m.CacheMisses != m.Served {
		t.Errorf("hits(%d) + misses(%d) != served(%d)", m.CacheHits, m.CacheMisses, m.Served)
	}
}

func TestServerAskBatchOrder(t *testing.T) {
	s := testSystem(t)
	sv := mustServer(t, s, ServerOptions{})
	defer sv.Close()
	qs := s.SampleQuestions(8)
	qs = append(qs, "what is the meaning of life")
	items := sv.QueryBatch(context.Background(), qs, WithoutVariants(), WithTopK(0))
	if len(items) != len(qs) {
		t.Fatalf("got %d items, want %d", len(items), len(qs))
	}
	for i, it := range items {
		if it.Question != qs[i] {
			t.Errorf("slot %d out of order: %q != %q", i, it.Question, qs[i])
		}
		if it.Err != nil && !IsUnanswerable(it.Err) {
			t.Errorf("slot %d error: %v", i, it.Err)
		}
	}
	if last := items[len(items)-1]; last.Result != nil || !IsUnanswerable(last.Err) {
		t.Errorf("unanswerable question reported as (%+v, %v)", last.Result, last.Err)
	}
}

// TestSystemAskHonorsCancellation: the BFQ-only option set must honour the
// caller's context like the default one does.
func TestSystemAskHonorsCancellation(t *testing.T) {
	s := testSystem(t)
	q := s.SampleQuestions(1)[0]
	ctx, cancel := context.WithCancel(context.Background())
	if _, ok := ask(ctx, s, q); !ok {
		t.Fatalf("sanity: %q unanswered under a live context", q)
	}
	cancel()
	if _, err := s.Query(ctx, q, WithoutVariants(), WithTopK(0)); !errors.Is(err, context.Canceled) {
		t.Errorf("Query under a cancelled context: err = %v", err)
	}
}

// TestServerConcurrentParity exercises the full serving pipeline from many
// goroutines (run with -race): answers must match the single-threaded
// baseline and the cache counters must balance.
func TestServerConcurrentParity(t *testing.T) {
	s := testSystem(t)
	sv := mustServer(t, s, ServerOptions{CacheEntries: 32})
	defer sv.Close()
	qs := s.SampleQuestions(12)
	baseline := make([]Answer, len(qs))
	baselineOK := make([]bool, len(qs))
	for i, q := range qs {
		baseline[i], baselineOK[i] = ask(context.Background(), s, q)
	}

	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx := context.Background()
			for i := range qs {
				got, ok := ask(ctx, sv, qs[(g+i)%len(qs)])
				want := baseline[(g+i)%len(qs)]
				wantOK := baselineOK[(g+i)%len(qs)]
				if ok != wantOK || got.Value != want.Value {
					t.Errorf("g%d: ask(%q) = (%q, %v), want (%q, %v)",
						g, qs[(g+i)%len(qs)], got.Value, ok, want.Value, wantOK)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	m := sv.Metrics()
	if m.CacheHits+m.CacheMisses != m.Served {
		t.Errorf("hits(%d) + misses(%d) != served(%d)", m.CacheHits, m.CacheMisses, m.Served)
	}
	if m.Stages["total"].Count != m.Served {
		t.Errorf("total stage count %d != served %d", m.Stages["total"].Count, m.Served)
	}
}
