package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestLoggerEmitsJSONLines(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, LevelDebug)
	l.Info("hello", F("n", 7), F("s", "x\"y"), F("err", errors.New("boom")), F("d", 1500*time.Millisecond))
	l.Debug("second")

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2: %q", len(lines), buf.String())
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("line 0 is not JSON: %v (%q)", err, lines[0])
	}
	if rec["level"] != "info" || rec["msg"] != "hello" {
		t.Fatalf("unexpected record: %v", rec)
	}
	if rec["n"] != float64(7) || rec["s"] != `x"y` {
		t.Fatalf("fields mangled: %v", rec)
	}
	if rec["err"] != "boom" {
		t.Fatalf("error field should render its message: %v", rec["err"])
	}
	if rec["d"] != "1.5s" {
		t.Fatalf("duration field should render as string: %v", rec["d"])
	}
	if _, err := time.Parse(time.RFC3339Nano, rec["ts"].(string)); err != nil {
		t.Fatalf("ts is not RFC3339Nano: %v", err)
	}
}

// referenceValue is how every field value was rendered before the logger
// appended them: by json.Marshal, errors and durations as their strings.
func referenceValue(v any) string {
	switch t := v.(type) {
	case error:
		v = t.Error()
	case time.Duration:
		v = t.String()
	}
	b, err := json.Marshal(v)
	if err != nil {
		b, _ = json.Marshal(fmt.Sprintf("%v", v))
	}
	return string(b)
}

// TestLoggerLinesMatchReflection: whole lines — an access-log record and
// one field of every type the logger appends itself, or hands to
// reflection — are what the reflective renderer wrote.
func TestLoggerLinesMatchReflection(t *testing.T) {
	type point struct{ X, Y int }
	records := [][]Field{
		{F("method", "GET"), F("path", "/ask"), F("status", 200), F("duration_ms", 0.123456),
			F("client", "192.0.2.7"), F("generation", uint64(3)), F("trace_id", "1f2e3d4c5b6a7988")},
		{F("s", "<tag> & \"q\" \\ \x00\n\u2028 bad\xff ü"), F("empty", ""), F("t", true), F("f", false)},
		{F("int", -7), F("int8", int8(-8)), F("int16", int16(16)), F("int32", int32(-32)), F("int64", int64(math.MinInt64)),
			F("uint", uint(7)), F("uint8", uint8(255)), F("uint16", uint16(16)), F("uint32", uint32(32)), F("uint64", uint64(math.MaxUint64))},
		{F("f0", 0.0), F("f1", 1e-7), F("f2", 1e21), F("f3", 123.5), F("nan", math.NaN()), F("inf", math.Inf(-1)), F("f32", float32(0.1))},
		{F("err", errors.New("disk <full>")), F("nilerr", error(nil)), F("d", 1500*time.Millisecond), F("nil", nil),
			F("struct", point{1, 2}), F("list", []string{"a", "<b>"}), F("level", LevelWarn), F("bytes", []byte("hi"))},
	}
	for i, fields := range records {
		var buf bytes.Buffer
		NewLogger(&buf, LevelInfo).Info("request <"+fmt.Sprint(i)+">", fields...)
		line := buf.String()
		ts, _, ok := strings.Cut(strings.TrimPrefix(line, `{"ts":"`), `"`)
		if !ok {
			t.Fatalf("no ts in %q", line)
		}
		want := `{"ts":"` + ts + `","level":"info","msg":` + referenceValue("request <"+fmt.Sprint(i)+">")
		for _, f := range fields {
			want += "," + referenceValue(f.Key) + ":" + referenceValue(f.Value)
		}
		want += "}\n"
		if line != want {
			t.Errorf("record %d:\n got %s\nwant %s", i, line, want)
		}
	}
}

func TestLoggerLevelFiltering(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, LevelWarn)
	l.Debug("no")
	l.Info("no")
	l.Warn("yes")
	l.Error("yes")
	if got := strings.Count(buf.String(), "\n"); got != 2 {
		t.Fatalf("wrote %d records, want 2: %q", got, buf.String())
	}
	if !l.Enabled(LevelError) || l.Enabled(LevelInfo) {
		t.Fatal("Enabled disagrees with filtering")
	}
}

func TestNilLoggerIsSafe(t *testing.T) {
	var l *Logger
	l.Debug("x")
	l.Info("x", F("k", "v"))
	l.Warn("x")
	l.Error("x")
	if l.Enabled(LevelError) {
		t.Fatal("nil logger must report disabled")
	}
}

func TestLoggerConcurrentLinesDoNotInterleave(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, LevelInfo)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				l.Info("tick", F("goroutine", i), F("j", j))
			}
		}(i)
	}
	wg.Wait()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 400 {
		t.Fatalf("got %d lines, want 400", len(lines))
	}
	for i, ln := range lines {
		if !json.Valid([]byte(ln)) {
			t.Fatalf("line %d is not valid JSON: %q", i, ln)
		}
	}
}

func TestParseLevel(t *testing.T) {
	cases := map[string]Level{
		"debug": LevelDebug, "info": LevelInfo, "warn": LevelWarn,
		"warning": LevelWarn, "error": LevelError, "bogus": LevelInfo,
	}
	for in, want := range cases {
		if got := ParseLevel(in); got != want {
			t.Errorf("ParseLevel(%q) = %v, want %v", in, got, want)
		}
	}
	if LevelDebug.String() != "debug" || Level(99).String() == "" {
		t.Fatal("Level.String broken")
	}
}

func TestRuntimeStats(t *testing.T) {
	st := ReadRuntimeStats()
	if st.Goroutines < 1 || st.HeapAllocBytes == 0 || st.HeapSysBytes == 0 {
		t.Fatalf("implausible runtime stats: %+v", st)
	}
	if Version() == "" || !strings.HasPrefix(GoVersion(), "go") {
		t.Fatalf("build info: version=%q go=%q", Version(), GoVersion())
	}
}
