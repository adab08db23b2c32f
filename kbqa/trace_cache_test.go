package kbqa

import (
	"context"
	"testing"
	"time"
)

// TestCacheHitCarriesOnlyOwnTraceID pins that a reply's TraceID is the
// request's own or absent: a traced server persists an answer, and an
// untraced server replaying the same cache directory must serve it with no
// ID — the leader's ID never enters the cache. A traced hit on the second
// boot of a traced server gets that request's ID, not the persisted one.
func TestCacheHitCarriesOnlyOwnTraceID(t *testing.T) {
	s := testSystem(t)
	dir := t.TempDir()
	ctx := context.Background()
	q := s.SampleQuestions(1)[0]

	a := mustServer(t, s, ServerOptions{CacheDir: dir, SlowQueryThreshold: time.Hour})
	first, err := a.Query(ctx, q)
	if err != nil {
		t.Fatalf("Query(%q): %v", q, err)
	}
	if first.TraceID == "" {
		t.Fatal("traced server returned no TraceID")
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	b := mustServer(t, s, ServerOptions{CacheDir: dir})
	hit, err := b.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if m := b.Metrics(); m.CacheHits != 1 {
		t.Fatalf("second boot did not answer from the replayed entry: %+v", m)
	}
	if hit.TraceID != "" {
		t.Errorf("untraced cache hit carries TraceID %q (the first boot's request was %q)", hit.TraceID, first.TraceID)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	c := mustServer(t, s, ServerOptions{CacheDir: dir, SlowQueryThreshold: time.Hour})
	defer c.Close()
	own, err := c.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if own.TraceID == "" || own.TraceID == first.TraceID {
		t.Errorf("traced cache hit TraceID = %q, want this request's own (first boot's was %q)", own.TraceID, first.TraceID)
	}
}
