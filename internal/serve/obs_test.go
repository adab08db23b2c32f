package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// syncBuffer is a goroutine-safe bytes.Buffer for capturing merger logs
// written from the background goroutine while the test reads them.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// sampleLine is the strict text-format 0.0.4 grammar for one sample line:
// metric name, optional label set, a float value, optionally an integer
// timestamp — and nothing else (no trailing exemplar or comment).
var (
	promLabel  = `[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"`
	sampleLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{(?:` + promLabel + `(?:,` + promLabel + `)*)?\})? ` +
		`((?:[-+]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][-+]?[0-9]+)?|[-+]?Inf|NaN))(?: -?[0-9]+)?$`)
)

// TestPrometheusWellFormed parses every line of the exposition: each sample
// line must match the text format, each metric family must declare HELP and
// TYPE exactly once before its samples, histogram buckets must be cumulative
// and monotone, and the +Inf bucket must equal the series count — including
// when observations landed in the overflow bucket.
func TestPrometheusWellFormed(t *testing.T) {
	r := withEngine(echoAsk(nil), Options[string]{})
	defer r.Close()
	ctx := context.Background()
	for _, q := range []string{"a", "b", "a"} {
		if _, _, err := r.Ask(ctx, q); err != nil {
			t.Fatal(err)
		}
	}
	r.CountError("no_answer")
	// Force the overflow bucket: an observation beyond the last real bound
	// (1s) must surface only in +Inf, never as a fabricated finite bound.
	r.metrics.total.observe(5 * time.Second)

	var b strings.Builder
	if err := WritePrometheus(&b, r.Metrics()); err != nil {
		t.Fatal(err)
	}
	text := b.String()

	help := map[string]int{}
	typed := map[string]string{}
	// bucketCum tracks per-series cumulative bucket counts keyed by the full
	// label set minus le; counts/sums record the matching _count samples.
	lastCum := map[string]uint64{}
	infCount := map[string]uint64{}
	seriesCount := map[string]uint64{}

	for ln, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if line == "" {
			t.Fatalf("line %d: empty line in exposition", ln+1)
		}
		if strings.HasPrefix(line, "# HELP ") {
			name := strings.Fields(line)[2]
			help[name]++
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			name, kind := f[2], f[3]
			if _, dup := typed[name]; dup {
				t.Fatalf("line %d: duplicate TYPE for %s", ln+1, name)
			}
			if kind != "counter" && kind != "gauge" && kind != "histogram" {
				t.Fatalf("line %d: unknown type %q", ln+1, kind)
			}
			typed[name] = kind
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("line %d: unrecognized comment %q", ln+1, line)
		}
		m := sampleLine.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("line %d: malformed sample %q", ln+1, line)
		}
		name, labels, raw := m[1], m[2], m[3]
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			t.Fatalf("line %d: unparseable value %q: %v", ln+1, raw, err)
		}
		family := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(name, suf)
			if base != name && typed[base] == "histogram" {
				family = base
			}
		}
		if _, ok := typed[family]; !ok {
			t.Fatalf("line %d: sample %s has no TYPE declaration", ln+1, name)
		}
		if help[family] != 1 {
			t.Fatalf("line %d: family %s has %d HELP lines, want 1", ln+1, family, help[family])
		}
		if typed[family] != "histogram" {
			continue
		}
		// Histogram invariants, per series (labels minus le).
		series := regexp.MustCompile(`,?le="[^"]*"`).ReplaceAllString(labels, "")
		series = strings.Replace(series, "{,", "{", 1)
		switch {
		case strings.HasSuffix(name, "_bucket") && strings.Contains(labels, `le="+Inf"`):
			infCount[series] = uint64(v)
		case strings.HasSuffix(name, "_bucket"):
			if uint64(v) < lastCum[series] {
				t.Fatalf("line %d: bucket counts not monotone for %s: %v < %d", ln+1, series, v, lastCum[series])
			}
			lastCum[series] = uint64(v)
		case strings.HasSuffix(name, "_count"):
			seriesCount[series] = uint64(v)
		}
	}
	for name := range typed {
		if help[name] != 1 {
			t.Errorf("family %s: %d HELP lines, want exactly 1", name, help[name])
		}
	}
	for series, n := range seriesCount {
		if infCount[series] != n {
			t.Errorf("series %s: +Inf bucket %d != count %d", series, infCount[series], n)
		}
		if lastCum[series] > n {
			t.Errorf("series %s: last finite bucket %d exceeds count %d", series, lastCum[series], n)
		}
	}
	for _, want := range []string{"kbqa_build_info{version=", "kbqa_uptime_seconds ", "kbqa_goroutines ", "kbqa_gc_pause_seconds_total "} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if !strings.Contains(text, `kbqa_query_errors_total{code="no_answer"} 1`) {
		t.Errorf("labelled error counter missing:\n%s", text)
	}
}

// TestHistogramOverflowClamp pins the fix for the overflow interpolation
// bug: a quantile landing beyond the last bucket bound is clamped to that
// bound (1000ms) and flagged via Overflow, instead of interpolating toward
// a fabricated 4x bound that was never measured.
func TestHistogramOverflowClamp(t *testing.T) {
	var h histogram
	h.observe(time.Millisecond)
	for i := 0; i < 99; i++ {
		h.observe(10 * time.Second) // deep overflow
	}
	s := h.snapshot()
	if s.Overflow != 99 {
		t.Fatalf("Overflow = %d, want 99", s.Overflow)
	}
	last := upperBoundMillis(len(bucketBounds) - 1)
	for _, q := range []float64{s.P50Millis, s.P90Millis, s.P99Millis} {
		if q > last {
			t.Fatalf("quantile %v exceeds last real bound %v: overflow interpolated", q, last)
		}
	}
	if s.P99Millis != last {
		t.Errorf("P99 = %v, want clamped to %v", s.P99Millis, last)
	}
	for _, bk := range s.Buckets {
		if bk.LEMillis > last {
			t.Errorf("snapshot emitted a bucket bound %v beyond the last real bound", bk.LEMillis)
		}
	}
	// The JSON form must round-trip: +Inf would fail to encode, which is
	// why the overflow is a count, not a bucket.
	if _, err := json.Marshal(s); err != nil {
		t.Fatalf("snapshot not JSON-encodable: %v", err)
	}
}

// TestDoSpans checks the serving pipeline's span shape: a cache miss
// produces serve.cache(hit=false) and a serve.flight(shared=false) wrapping
// serve.admit, serve.engine and serve.persist; the following hit produces
// serve.cache(hit=true) and no flight at all.
func TestDoSpans(t *testing.T) {
	r := withEngine(echoAsk(nil), Options[string]{})
	defer r.Close()
	tracer := obs.NewTracer(obs.Options{SampleRate: 1})

	ask := func() {
		ctx, trace := tracer.Start(context.Background(), "test")
		if _, _, err := r.Ask(ctx, "q"); err != nil {
			t.Fatal(err)
		}
		trace.Finish()
	}
	ask() // miss
	ask() // hit

	snaps := tracer.Snapshot() // newest first
	if len(snaps) != 2 {
		t.Fatalf("captured %d traces, want 2", len(snaps))
	}
	miss, hit := snaps[1].Root, snaps[0].Root

	cs := miss.Find("serve.cache")
	if cs == nil {
		t.Fatal("miss trace has no serve.cache span")
	}
	if v, _ := cs.Attr("hit"); v != "false" {
		t.Errorf("miss trace cache hit attr = %q, want false", v)
	}
	fl := miss.Find("serve.flight")
	if fl == nil {
		t.Fatal("miss trace has no serve.flight span")
	}
	if v, _ := fl.Attr("shared"); v != "false" {
		t.Errorf("leader flight shared attr = %q, want false", v)
	}
	for _, name := range []string{"serve.admit", "serve.engine", "serve.persist"} {
		if fl.Find(name) == nil {
			t.Errorf("flight span missing %s child", name)
		}
	}

	if cs := hit.Find("serve.cache"); cs == nil {
		t.Fatal("hit trace has no serve.cache span")
	} else if v, _ := cs.Attr("hit"); v != "true" {
		t.Errorf("hit trace cache hit attr = %q, want true", v)
	}
	if hit.Find("serve.flight") != nil {
		t.Error("cache hit still entered the flight group")
	}
}

// TestDoBatchSpans checks a traced batch's shape: one batch.question span
// per question directly under the batch's span and nothing of the pipeline
// (no serve.* span, and the engine sees no active span). The span of a
// question that ran the engine carries its stages; a repeat is a cache
// hit with none; a failure carries its error code. One worker keeps the
// order of the questions.
func TestDoBatchSpans(t *testing.T) {
	stages := StageTimings{Parse: 3 * time.Microsecond, Match: 5 * time.Microsecond, Probe: 7 * time.Microsecond}
	r := withEngine(func(ctx context.Context, q string) (string, StageTimings, bool, error) {
		if obs.ActiveSpan(ctx) != nil {
			t.Errorf("the engine ran %q under a span", q)
		}
		if q == "boom" {
			return "", stages, false, errors.New("boom")
		}
		return "ans:" + q, stages, true, nil
	}, Options[string]{})
	defer r.Close()
	r.batchWorkers = 1
	tracer := obs.NewTracer(obs.Options{SampleRate: 1})
	ctx, trace := tracer.Start(context.Background(), "test")
	items := r.AskBatch(ctx, []string{"a", "b", "a", "boom"})
	trace.Finish()
	if items[3].Err == nil {
		t.Fatal("the failing question did not fail")
	}
	root := tracer.Snapshot()[0].Root
	want := []struct {
		attrs  string
		stages bool
	}{
		{"question=a hit=false", true},
		{"question=b hit=false", true},
		{"question=a hit=true", false},
		{"question=boom hit=false error=internal", true},
	}
	if len(root.Children) != len(want) {
		t.Fatalf("the batch's span has %d children, want %d", len(root.Children), len(want))
	}
	for i, c := range root.Children {
		var attrs []string
		for _, a := range c.Attrs {
			attrs = append(attrs, a.Key+"="+a.Value)
		}
		if got := strings.Join(attrs, " "); c.Name != "batch.question" || got != want[i].attrs {
			t.Errorf("child %d = %s %s, want batch.question %s", i, c.Name, got, want[i].attrs)
		}
		if c.StartNanos < root.StartNanos || c.StartNanos+c.DurationNanos > root.StartNanos+root.DurationNanos {
			t.Errorf("child %d at %d for %d ns lies outside the batch's span", i, c.StartNanos, c.DurationNanos)
		}
		var got []string
		for _, g := range c.Children {
			got = append(got, fmt.Sprintf("%s=%d@%d", g.Name, g.DurationNanos, g.StartNanos-c.StartNanos))
		}
		wantStages := ""
		if want[i].stages {
			wantStages = "parse=3000@0 match=5000@0 probe=7000@0"
		}
		if strings.Join(got, " ") != wantStages {
			t.Errorf("child %d has children %v, want %q", i, got, wantStages)
		}
	}
}

// TestMergerTraceAndLog drives the disk log through a rotation and
// checks that the background merge shows up both as a cache.merge trace
// (snapshot/publish/cleanup children) and as an Info log record whose
// trace_id matches the captured trace.
func TestMergerTraceAndLog(t *testing.T) {
	var buf syncBuffer
	logger := obs.NewLogger(&buf, obs.LevelDebug)
	tracer := obs.NewTracer(obs.Options{SampleRate: 1, Logger: logger})
	s := openTestLog(t, t.TempDir(), testLog{RotateEvery: 2048, Log: logger, Tracer: tracer})
	defer s.Close()
	val := strings.Repeat("x", 256)
	for i := 0; i < 64; i++ {
		s.Put("key", Entry[string]{Val: val, OK: true})
	}
	waitFor(t, time.Second, func() bool { return s.PersistStats().CacheSealedBytes == 0 })
	waitFor(t, time.Second, func() bool {
		for _, tr := range tracer.Snapshot() {
			if tr.Root.Name == "cache.merge" {
				return true
			}
		}
		return false
	})

	snaps := tracer.Snapshot()
	var merge *obs.TraceSnapshot
	mergeIDs := map[string]bool{}
	for i := range snaps {
		if snaps[i].Root.Name == "cache.merge" {
			if merge == nil {
				merge = &snaps[i]
			}
			mergeIDs[snaps[i].ID] = true
		}
	}
	if merge == nil {
		t.Fatal("no cache.merge trace captured")
	}
	for _, name := range []string{"merge.snapshot", "merge.publish", "merge.cleanup"} {
		if merge.Root.Find(name) == nil {
			t.Errorf("merge trace missing %s child", name)
		}
	}
	if _, ok := merge.Root.Attr("segments"); !ok {
		t.Error("merge trace missing segments attr")
	}

	var logged bool
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("merger log line is not JSON: %q: %v", line, err)
		}
		if rec["msg"] == "cache merge" {
			logged = true
			if rec["level"] != "info" {
				t.Errorf("cache merge logged at %v, want info", rec["level"])
			}
			if id, _ := rec["trace_id"].(string); !mergeIDs[id] {
				t.Errorf("log trace_id %v matches no captured merge trace %v", rec["trace_id"], mergeIDs)
			}
		}
	}
	if !logged {
		t.Errorf("no 'cache merge' log record in:\n%s", buf.String())
	}
	var rotated bool
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.Contains(line, `"msg":"segment rotated"`) {
			rotated = true
		}
	}
	if !rotated {
		t.Error("no 'segment rotated' debug record")
	}
}
