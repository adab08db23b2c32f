package obs

import (
	"bytes"
	"encoding/json"
	"errors"
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
