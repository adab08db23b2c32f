package serve

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestWeightedAdmissionEvictsByWeight: a heavy entry must pay for the
// capacity it occupies — admitting one weight-3 answer into a full budget
// displaces three weight-1 entries, and the eviction counter records all
// of them.
func TestWeightedAdmissionEvictsByWeight(t *testing.T) {
	c := newAnswerCache[string](1, 4)
	for i := 0; i < 4; i++ {
		c.Put(fmt.Sprintf("k%d", i), Entry[string]{Val: "v", OK: true})
	}
	if n := c.Len(); n != 4 {
		t.Fatalf("Len = %d, want 4", n)
	}
	c.Put("heavy", Entry[string]{Val: "V", OK: true, Weight: 3})
	if n := c.Len(); n != 2 { // heavy + the surviving MRU light entry
		t.Errorf("Len = %d after heavy admission, want 2", n)
	}
	if ev := c.Evictions(); ev != 3 {
		t.Errorf("Evictions = %d, want 3 (one per displaced light entry)", ev)
	}
	if _, hit := c.Get("heavy"); !hit {
		t.Error("heavy entry not resident after admission")
	}
	if _, hit := c.Get("k3"); !hit {
		t.Error("MRU light entry should have survived the heavy admission")
	}
}

// TestWeightedAdmissionRefusesOversized: an entry heavier than the whole
// shard budget is refused (admitting it would flush every neighbor and
// still not fit), and a stale resident copy under the same key is dropped
// rather than served with outdated contents.
func TestWeightedAdmissionRefusesOversized(t *testing.T) {
	c := newAnswerCache[string](1, 4)
	c.Put("k", Entry[string]{Val: "small", OK: true})
	c.Put("k", Entry[string]{Val: "huge", OK: true, Weight: 5})
	if _, hit := c.Get("k"); hit {
		t.Error("oversized refresh left a resident copy (stale or giant)")
	}
	c.Put("other", Entry[string]{Val: "v", OK: true})
	if _, hit := c.Get("other"); !hit {
		t.Error("cache stopped admitting after an oversized refusal")
	}
}

// TestWeightedAdmissionRefreshAdjustsBudget: refreshing a key with a
// different weight must account the delta, not double-count — shrinking a
// heavy entry frees room for more light ones.
func TestWeightedAdmissionRefreshAdjustsBudget(t *testing.T) {
	c := newAnswerCache[string](1, 4)
	c.Put("a", Entry[string]{Val: "v", Weight: 3})
	c.Put("a", Entry[string]{Val: "v", Weight: 1}) // shrink in place
	for i := 0; i < 3; i++ {
		c.Put(fmt.Sprintf("k%d", i), Entry[string]{Val: "v"})
	}
	if n := c.Len(); n != 4 {
		t.Errorf("Len = %d, want 4 (shrunken entry freed its budget)", n)
	}
	if ev := c.Evictions(); ev != 0 {
		t.Errorf("Evictions = %d, want 0", ev)
	}
	// Delete must release the weight too.
	c.Put("b", Entry[string]{Val: "v", Weight: 2})
	c.Delete("b")
	c.Put("c", Entry[string]{Val: "v", Weight: 2})
	if _, hit := c.Get("c"); !hit {
		t.Error("delete did not release the deleted entry's weight")
	}
}

// TestHistogramExemplar: a traced observation becomes the family's
// exemplar, an untraced one never clobbers it, and the Prometheus
// exposition renders it as a comment line of its own — format 0.0.4 allows
// nothing but an integer timestamp after a sample's value.
func TestHistogramExemplar(t *testing.T) {
	var m metrics
	m.observeStages(StageTimings{Parse: time.Millisecond, Match: time.Millisecond, Probe: time.Millisecond}, "trace-abc")
	m.total.observeTraced(4*time.Millisecond, "trace-abc")
	m.total.observeTraced(2*time.Millisecond, "") // untraced: must not clobber

	snap := m.snapshot()
	for _, stage := range []string{StageParse, StageMatch, StageProbe, StageTotal} {
		h := snap.Stages[stage]
		if h.ExemplarTraceID != "trace-abc" {
			t.Errorf("stage %s exemplar = %q, want trace-abc", stage, h.ExemplarTraceID)
		}
	}
	if s := snap.Stages[StageTotal].ExemplarSeconds; s != 0.004 {
		t.Errorf("total exemplar seconds = %v, want 0.004", s)
	}

	var b strings.Builder
	if err := WritePrometheus(&b, snap); err != nil {
		t.Fatal(err)
	}
	want := "{stage=\"total\",le=\"+Inf\"} 2\n" +
		"kbqa_stage_latency_seconds_sum{stage=\"total\"} 0.006\n" +
		"kbqa_stage_latency_seconds_count{stage=\"total\"} 2\n" +
		"# exemplar kbqa_stage_latency_seconds{stage=\"total\",trace_id=\"trace-abc\"} 0.004\n"
	if !strings.Contains(b.String(), want) {
		t.Errorf("exposition missing exemplar %q:\n%s", want, b.String())
	}
}

// gateCodec is JSONCodec except for the value "gate", whose encode blocks
// until release is closed — it holds a merge in progress at its base write.
type gateCodec struct{ entered, release chan struct{} }

func (c gateCodec) Encode(s string) ([]byte, error) {
	if s == "gate" {
		select {
		case c.entered <- struct{}{}:
		default:
		}
		<-c.release
	}
	return JSONCodec[string]{}.Encode(s)
}
func (gateCodec) Decode(b []byte) (string, error) { return JSONCodec[string]{}.Decode(b) }

// TestDiskStoreBackpressurePausesRotation: a rotation that falls due while
// the merger is still merging the previous sealed segment waits — the
// active segment grows past the threshold, no second sealed file appears —
// and the pause surfaces through PersistStats, the metrics snapshot and
// the exposition. The merge is held at its base write by an entry resident
// in memory only, whose encode blocks; releasing it clears the pause.
func TestDiskStoreBackpressurePausesRotation(t *testing.T) {
	dir := t.TempDir()
	codec := gateCodec{entered: make(chan struct{}, 1), release: make(chan struct{})}
	s := openTestLog(t, dir, testLog{RotateEvery: 256, Codec: codec})
	defer s.Close()
	release := sync.OnceFunc(func() { close(codec.release) })
	defer release() // before Close, even when the test fails early
	s.answerCache.Put("gate", Entry[string]{Val: "gate", OK: true})

	val := strings.Repeat("x", 64)
	for i := 0; i < 4; i++ { // ~400B: the first rotation falls due
		s.Put(fmt.Sprintf("k%d", i), Entry[string]{Val: val, OK: true})
	}
	<-codec.entered            // the merge is writing the base, and holds
	for i := 4; i < 104; i++ { // ~10KB more, past the writer's 4KB buffer
		s.Put(fmt.Sprintf("k%d", i), Entry[string]{Val: val, OK: true})
	}
	st := s.PersistStats()
	if st.CacheSegmentRotations != 1 {
		t.Errorf("Rotations = %d while the first merge holds, want 1", st.CacheSegmentRotations)
	}
	if !st.CacheRotationPaused {
		t.Error("RotationPaused = false, want true while the merge holds")
	}
	sealed, err := filepath.Glob(filepath.Join(dir, sealedPrefix+"*"+sealedSuffix))
	if err != nil || len(sealed) != 1 {
		t.Errorf("sealed files = %v (err %v), want exactly one", sealed, err)
	}
	if fi, err := os.Stat(filepath.Join(dir, segName)); err != nil || fi.Size() <= 256 {
		t.Errorf("active segment did not grow past the threshold: %v %v", fi, err)
	}

	r := withEngine(echoAsk(nil), Options[string]{})
	defer r.Close()
	r.cache, r.disk = s.answerCache, s.log
	snap := r.Metrics()
	if !snap.CachePersistent || !snap.CacheRotationPaused {
		t.Errorf("snapshot CachePersistent=%v CacheRotationPaused=%v, want true/true",
			snap.CachePersistent, snap.CacheRotationPaused)
	}
	var b strings.Builder
	if err := WritePrometheus(&b, snap); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "\nkbqa_cache_rotation_paused 1\n") {
		t.Error("exposition missing kbqa_cache_rotation_paused 1")
	}

	release()
	s.settle(t)
	if st := s.PersistStats(); st.CacheRotationPaused || st.CacheSegmentRotations != 2 {
		t.Errorf("after release: paused=%v rotations=%d, want false/2", st.CacheRotationPaused, st.CacheSegmentRotations)
	}
}

// TestRuntimeWeighsComputedAnswers: the runtime applies Options.Weigh on the
// miss path, so heavy answers land in the cache with their weight and
// compete accordingly.
func TestRuntimeWeighsComputedAnswers(t *testing.T) {
	r := withEngine(func(ctx context.Context, q string) (string, StageTimings, bool, error) {
		return strings.Repeat(q, 3), StageTimings{}, true, nil
	}, Options[string]{Weigh: func(a string) int { return len(a) / 3 }}) // == len(question)
	defer r.Close()
	r.cache = newAnswerCache[string](1, 4)

	if _, _, err := r.Ask(context.Background(), "ab"); err != nil { // weight 2
		t.Fatal(err)
	}
	if _, _, err := r.Ask(context.Background(), "xy"); err != nil { // weight 2: budget full
		t.Fatal(err)
	}
	if _, _, err := r.Ask(context.Background(), "pq"); err != nil { // displaces the LRU
		t.Fatal(err)
	}
	m := r.Metrics()
	if m.CacheEntries != 2 {
		t.Errorf("CacheEntries = %d, want 2 (two weight-2 answers fill the 4-unit budget)", m.CacheEntries)
	}
	if m.CacheEvictions != 1 {
		t.Errorf("CacheEvictions = %d, want 1", m.CacheEvictions)
	}
}
