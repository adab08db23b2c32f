package kbqa

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestServerQueryMatchesSystemQuery(t *testing.T) {
	s := testSystem(t)
	sv := mustServer(t, s, ServerOptions{})
	defer sv.Close()
	ctx := context.Background()
	for _, q := range s.SampleQuestions(8) {
		want, wantErr := s.Query(ctx, q, WithTopK(3))
		for round := 0; round < 2; round++ { // second round is a cache hit
			got, err := sv.Query(ctx, q, WithTopK(3))
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("Query(%q) round %d err = %v, system err = %v", q, round, err, wantErr)
			}
			if err != nil {
				continue
			}
			if got.Answer == nil || !reflect.DeepEqual(*got.Answer, *want.Answer) ||
				!reflect.DeepEqual(got.Interpretations, want.Interpretations) {
				t.Fatalf("Query(%q) round %d diverges:\n server: %+v\n system: %+v", q, round, got, want)
			}
		}
	}
	if m := sv.Metrics(); m.CacheHits == 0 {
		t.Error("second round should have hit the cache")
	}
}

// TestServerQueryFingerprintSeparation: the same question under different
// options must not share a cache entry — each option set sees its own
// interpretation count.
func TestServerQueryFingerprintSeparation(t *testing.T) {
	s := testSystem(t)
	sv := mustServer(t, s, ServerOptions{})
	defer sv.Close()
	ctx := context.Background()
	q := s.SampleQuestions(1)[0]

	one, err := sv.Query(ctx, q, WithTopK(1))
	if err != nil {
		t.Fatal(err)
	}
	wide, err := sv.Query(ctx, q, WithTopK(8))
	if err != nil {
		t.Fatal(err)
	}
	if len(one.Interpretations) != 1 {
		t.Errorf("k=1 returned %d interpretations", len(one.Interpretations))
	}
	if len(wide.Interpretations) < 1 {
		t.Errorf("k=8 returned no interpretations: %+v", wide)
	}
	// Two distinct cache entries were created, one per fingerprint; had the
	// k=8 call hit the k=1 entry it would carry a single interpretation
	// whenever the question has more than one candidate.
	if m := sv.Metrics(); m.CacheEntries < 2 {
		t.Errorf("fingerprints shared a cache entry: %+v", m)
	}
	// Both answers agree regardless of K.
	if !reflect.DeepEqual(one.Answer, wide.Answer) {
		t.Errorf("answer depends on K: %+v vs %+v", one.Answer, wide.Answer)
	}
}

// TestServerQueryTypedErrorsCached: unanswerable questions return typed
// errors, the negative result is cached (one engine call), and the error
// code lands in the labelled metrics.
func TestServerQueryTypedErrorsCached(t *testing.T) {
	s := testSystem(t)
	sv := mustServer(t, s, ServerOptions{})
	defer sv.Close()
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := sv.Query(ctx, "why is the sky blue at noon"); !errors.Is(err, ErrNoEntity) {
			t.Fatalf("round %d err = %v, want ErrNoEntity", i, err)
		}
	}
	m := sv.Metrics()
	if m.CacheHits < 2 {
		t.Errorf("negative result not cached: %+v", m)
	}
	if m.Errors[CodeNoEntity] != 3 {
		t.Errorf("no_entity count = %d, want 3: %+v", m.Errors[CodeNoEntity], m.Errors)
	}

	var b strings.Builder
	if err := sv.WriteMetricsPrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `kbqa_query_errors_total{code="no_entity"} 3`) {
		t.Errorf("Prometheus exposition missing the labelled error counter:\n%s", b.String())
	}
}

func TestServerQueryBatch(t *testing.T) {
	s := testSystem(t)
	sv := mustServer(t, s, ServerOptions{})
	defer sv.Close()
	qs := append(s.SampleQuestions(6), "what is the meaning of life")
	items := sv.QueryBatch(context.Background(), qs, WithTopK(2))
	if len(items) != len(qs) {
		t.Fatalf("got %d items, want %d", len(items), len(qs))
	}
	for i, it := range items[:6] {
		if it.Question != qs[i] {
			t.Errorf("slot %d out of order: %q != %q", i, it.Question, qs[i])
		}
		if it.Err != nil || it.Result == nil || it.Result.Answer == nil {
			t.Errorf("slot %d = %+v", i, it)
			continue
		}
		if len(it.Result.Interpretations) == 0 || len(it.Result.Interpretations) > 2 {
			t.Errorf("slot %d interpretations = %d, want 1..2", i, len(it.Result.Interpretations))
		}
	}
	last := items[len(items)-1]
	if last.Err == nil || !IsUnanswerable(last.Err) {
		t.Errorf("unanswerable slot = %+v, want typed error", last)
	}
}

// TestServerQueryWithTimeout: WithTimeout is armed on the request context
// before the serving pipeline, so it bounds queueing (cache, flight,
// admission) as well as the engine call.
func TestServerQueryWithTimeout(t *testing.T) {
	s := testSystem(t)
	sv := mustServer(t, s, ServerOptions{CacheEntries: -1})
	defer sv.Close()
	q := s.SampleQuestions(1)[0]
	if _, err := sv.Query(context.Background(), q, WithTimeout(time.Nanosecond)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if _, err := sv.Query(context.Background(), q, WithTimeout(time.Minute)); err != nil {
		t.Fatalf("generous timeout failed: %v", err)
	}
}

// TestServerImplementsAnswerer: a Server chains like any other Answerer.
func TestServerImplementsAnswerer(t *testing.T) {
	s := testSystem(t)
	sv := mustServer(t, s, ServerOptions{})
	defer sv.Close()
	var _ Answerer = sv
	var _ Answerer = s
	syn, err := s.Baseline("synonym")
	if err != nil {
		t.Fatal(err)
	}
	hybrid := Chain(sv, syn)
	q := s.SampleQuestions(1)[0]
	res, err := hybrid.Query(context.Background(), q)
	if err != nil || res.Answer == nil {
		t.Fatalf("chained server lost the answer: %v %+v", err, res)
	}
}
