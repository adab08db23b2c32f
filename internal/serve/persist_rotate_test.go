package serve

// Crash-safety tests for segment rotation + background merge. The
// directory layouts below are exactly what a kill leaves behind at each
// point of the rotate → merge → publish → cleanup pipeline; every one must
// replay to the last-write-wins state — nothing lost, nothing duplicated,
// nothing resurrected.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/safeio"
)

// rawEntry frames one recEntry payload with a JSON-encoded string value,
// matching what a diskLog[string] + JSONCodec writes.
func rawEntry(t testing.TB, key, val string, at time.Time) []byte {
	t.Helper()
	b, err := json.Marshal(val)
	if err != nil {
		t.Fatal(err)
	}
	return encodeEntryPayload(key, b, at.UnixNano(), true)
}

// writeRawSegment renders a segment file byte-for-byte: header + records.
func writeRawSegment(t testing.TB, path string, payloads [][]byte) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := bufio.NewWriter(f)
	writeSegHeader(w)
	for _, p := range payloads {
		if err := safeio.WriteFrame(w, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// segmentBytes renders a segment in memory (for building torn tails).
func segmentBytes(t testing.TB, payloads [][]byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	writeSegHeader(&buf)
	for _, p := range payloads {
		if err := safeio.WriteFrame(&buf, p); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func expectEntries(t *testing.T, s *testStore, want map[string]string) {
	t.Helper()
	if n := s.Len(); n != len(want) {
		t.Errorf("Len = %d, want %d", n, len(want))
	}
	for k, v := range want {
		e, hit := s.Get(k)
		if !hit || e.Val != v {
			t.Errorf("Get(%q) = (%q, %v), want %q", k, e.Val, hit, v)
		}
		if hit && !e.Persisted {
			t.Errorf("Get(%q) not marked replayed-from-disk", k)
		}
	}
}

// TestDiskStoreReplaysSealedBeforeMergePublish is the kill between
// rotation and merge-publish: the base is stale, a sealed segment holds
// the rotated-out appends, the active holds the newest. Replay order
// base → sealed → active must reconstruct last-write-wins exactly.
func TestDiskStoreReplaysSealedBeforeMergePublish(t *testing.T) {
	dir := t.TempDir()
	at := time.Unix(1000, 0)
	writeRawSegment(t, filepath.Join(dir, baseName), [][]byte{
		rawEntry(t, "k1", "base-only", at),
		rawEntry(t, "k2", "stale", at),
	})
	writeRawSegment(t, filepath.Join(dir, sealedName(0)), [][]byte{
		rawEntry(t, "k2", "sealed-supersedes", at),
		rawEntry(t, "k3", "sealed-only", at),
	})
	writeRawSegment(t, filepath.Join(dir, segName), [][]byte{
		rawEntry(t, "k3", "active-supersedes", at),
		rawEntry(t, "k4", "active-only", at),
	})

	s := openTestStore(t, dir)
	expectEntries(t, s, map[string]string{
		"k1": "base-only",
		"k2": "sealed-supersedes",
		"k3": "active-supersedes",
		"k4": "active-only",
	})
	s.Close()

	// The open folded everything into a fresh base; the sealed file must
	// be gone (a lingering one could collide with a later rotation) and a
	// second restart must see the identical state.
	if _, err := os.Stat(filepath.Join(dir, sealedName(0))); err == nil {
		t.Error("sealed segment not cleaned up after boot compaction")
	}
	r := openTestStore(t, dir)
	defer r.Close()
	expectEntries(t, r, map[string]string{
		"k1": "base-only",
		"k2": "sealed-supersedes",
		"k3": "active-supersedes",
		"k4": "active-only",
	})
}

// TestDiskStoreStaleSealedAfterMergePublish is the kill between
// merge-publish and sealed-file cleanup. The merger deletes oldest-first,
// so any survivor is among the newest consumed — its records are exactly
// the ones that won the merge, and replaying it over the base is
// idempotent, never a resurrection.
func TestDiskStoreStaleSealedAfterMergePublish(t *testing.T) {
	dir := t.TempDir()
	at := time.Unix(1000, 0)
	// The published base already holds the merge of sealed 0 (deleted,
	// carried k:v1) and sealed 1 (still on disk).
	writeRawSegment(t, filepath.Join(dir, baseName), [][]byte{
		rawEntry(t, "k", "v2", at),
		rawEntry(t, "j", "w", at),
	})
	writeRawSegment(t, filepath.Join(dir, sealedName(1)), [][]byte{
		rawEntry(t, "k", "v2", at),
	})

	s := openTestStore(t, dir)
	defer s.Close()
	expectEntries(t, s, map[string]string{"k": "v2", "j": "w"})
}

// TestDiskStoreTornActiveTailAfterRotation: a crash mid-append after a
// rotation tears the active segment's tail. The torn record is dropped;
// everything in the base, the sealed segment, and the active prefix
// survives.
func TestDiskStoreTornActiveTailAfterRotation(t *testing.T) {
	dir := t.TempDir()
	at := time.Unix(1000, 0)
	writeRawSegment(t, filepath.Join(dir, baseName), [][]byte{
		rawEntry(t, "k1", "base", at),
	})
	writeRawSegment(t, filepath.Join(dir, sealedName(0)), [][]byte{
		rawEntry(t, "k2", "sealed", at),
	})
	active := segmentBytes(t, [][]byte{
		rawEntry(t, "k3", "kept-prefix", at),
		rawEntry(t, "k4", "torn", at),
	})
	if err := os.WriteFile(filepath.Join(dir, segName), active[:len(active)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	s := openTestStore(t, dir)
	defer s.Close()
	expectEntries(t, s, map[string]string{
		"k1": "base",
		"k2": "sealed",
		"k3": "kept-prefix",
	})
	if _, hit := s.Get("k4"); hit {
		t.Error("torn record served")
	}
}

// TestDiskStoreCrashMidMerge: a kill while the merger is writing its
// output leaves a half-written answers.base.tmp. The tmp was never
// published, so it must contribute nothing; the pre-merge state replays
// intact and the leftover is cleaned up.
func TestDiskStoreCrashMidMerge(t *testing.T) {
	dir := t.TempDir()
	at := time.Unix(1000, 0)
	writeRawSegment(t, filepath.Join(dir, baseName), [][]byte{
		rawEntry(t, "k1", "base", at),
	})
	writeRawSegment(t, filepath.Join(dir, sealedName(0)), [][]byte{
		rawEntry(t, "k2", "sealed", at),
	})
	writeRawSegment(t, filepath.Join(dir, segName), [][]byte{
		rawEntry(t, "k3", "active", at),
	})
	// A torn merge output: valid header, then a record cut mid-payload —
	// and a poison value that must never be served.
	tmp := segmentBytes(t, [][]byte{rawEntry(t, "k1", "half-merged-poison", at)})
	if err := os.WriteFile(filepath.Join(dir, baseName+".tmp"), tmp[:len(tmp)-4], 0o644); err != nil {
		t.Fatal(err)
	}

	s := openTestStore(t, dir)
	expectEntries(t, s, map[string]string{
		"k1": "base",
		"k2": "sealed",
		"k3": "active",
	})
	s.Close()
	if _, err := os.Stat(filepath.Join(dir, baseName+".tmp")); err == nil {
		t.Error("half-written merge output still present after open")
	}
}

// TestDiskStoreMergerFileStepFailures puts a non-empty directory — an
// obstacle even root cannot write through — where the merger's rotation
// renames to, then where its base publish creates. Either failure is
// sticky and loud exactly once, memory keeps serving every entry, and once
// the obstacle is gone a reopen replays what was logged before the failure:
// last write wins and the previous model's entry stays dead.
func TestDiskStoreMergerFileStepFailures(t *testing.T) {
	for _, tc := range []struct{ step, obstacle string }{
		{"rotation rename", sealedName(0)},
		{"base publish", baseName + ".tmp"},
	} {
		t.Run(tc.step, func(t *testing.T) {
			dir := t.TempDir()
			var buf syncBuffer
			s := openTestLog(t, dir, testLog{ModelTag: "m0", Log: obs.NewLogger(&buf, obs.LevelDebug)})
			obstacle := filepath.Join(dir, tc.obstacle)
			if err := os.MkdirAll(filepath.Join(obstacle, "x"), 0o755); err != nil {
				t.Fatal(err)
			}
			at := time.Unix(1000, 0)
			key := func(k string) string { return cacheKey("m1", k) } // the model swapped to
			s.Put(cacheKey("m0", "dead"), Entry[string]{Val: "m0's", OK: true, At: at})
			want := map[string]string{}
			for i := 0; i < 20; i++ {
				k, v := key(fmt.Sprintf("k%d", i%7)), fmt.Sprintf("v%02d", i)
				s.Put(k, Entry[string]{Val: v, OK: true, At: at})
				want[k] = v
			}
			// The last logged put makes a rotation due; nothing is appended
			// after it until the failure is in.
			s.log.setRotateEvery(1)
			s.Put(key("last"), Entry[string]{Val: "logged", OK: true, At: at})
			want[key("last")] = "logged"
			waitFor(t, 5*time.Second, func() bool { return s.Flush() != nil })
			s.Put(key("late"), Entry[string]{Val: "memory-only", OK: true, At: at})

			for k, v := range map[string]string{cacheKey("m0", "dead"): "m0's", key("late"): "memory-only", key("last"): "logged", key("k6"): want[key("k6")]} {
				if e, hit := s.Get(k); !hit || e.Val != v {
					t.Errorf("memory stopped serving %q after the failure: (%q, %v)", k, e.Val, hit)
				}
			}
			flushErr, closeErr := s.Flush(), s.Close()
			if flushErr == nil || !strings.Contains(flushErr.Error(), tc.obstacle) || !errors.Is(closeErr, flushErr) {
				t.Errorf("Flush = %v, Close = %v, want the same sticky error naming %s", flushErr, closeErr, tc.obstacle)
			}
			var errorLines int
			for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
				var rec map[string]any
				if json.Unmarshal([]byte(line), &rec) == nil && rec["level"] == "error" {
					errorLines++
				}
			}
			if errorLines != 1 {
				t.Errorf("%d Error log lines, want the sticky error once:\n%s", errorLines, buf.String())
			}

			if err := os.RemoveAll(obstacle); err != nil {
				t.Fatal(err)
			}
			r := openTestLog(t, dir, testLog{ModelTag: "m1"})
			defer r.Close()
			expectEntries(t, r, want)
		})
	}
}

// TestDiskStoreRotationPipelineEndToEnd drives the real pipeline — many
// rotations, background merges racing appends — and proves a restart
// reconstructs every entry exactly. A poller watches the directory the
// whole time: the merger never lets a second sealed segment exist.
func TestDiskStoreRotationPipelineEndToEnd(t *testing.T) {
	dir := t.TempDir()
	stop, most := make(chan struct{}), make(chan int)
	go func() {
		n := 0
		for {
			select {
			case <-stop:
				most <- n
				return
			default:
			}
			sealed, _ := filepath.Glob(filepath.Join(dir, sealedPrefix+"*"+sealedSuffix))
			n = max(n, len(sealed))
			time.Sleep(50 * time.Microsecond)
		}
	}()
	s := openTestLog(t, dir, testLog{RotateEvery: 2048})
	at := time.Unix(2000, 0)
	want := make(map[string]string, 200)
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("key-%03d", i)
		v := fmt.Sprintf("val-%03d-%s", i, strings.Repeat("x", 40))
		want[k] = v
		s.Put(k, Entry[string]{Val: v, OK: true, At: at})
		// Churn an early key every step so merges must pick the last write.
		s.Put("key-000", Entry[string]{Val: want["key-000"], OK: true, At: at})
	}
	s.settle(t)
	st := s.PersistStats()
	if st.CacheSegmentRotations == 0 {
		t.Fatalf("no rotation across ~%d appended bytes with a 2KB threshold", 200*120)
	}
	// Serving stays correct while the merger churns underneath.
	for k, v := range want {
		if e, hit := s.Get(k); !hit || e.Val != v {
			t.Fatalf("mid-churn Get(%q) = (%q, %v)", k, e.Val, hit)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	if n := <-most; n > 1 {
		t.Errorf("saw %d sealed segments at once, want at most 1", n)
	}

	r := openTestStore(t, dir)
	defer r.Close()
	expectEntries(t, r, want)
}

// TestDiskStoreGenerationBumpSurvivesRotationAndRestart: a model swap
// mid-run leaves both models' entries in memory, so merges carry both into
// the base; the key names the model, so a restart running the new one
// still never resurrects the old one's answers, however many rotations
// happened in between.
func TestDiskStoreGenerationBumpSurvivesRotationAndRestart(t *testing.T) {
	dir := t.TempDir()
	s := openTestLog(t, dir, testLog{ModelTag: "m0", RotateEvery: 1024})
	at := time.Unix(2000, 0)
	pad := strings.Repeat("p", 64)
	for i := 0; i < 30; i++ {
		s.Put(cacheKey("m0", fmt.Sprintf("q-%02d", i)), Entry[string]{Val: pad, OK: true, At: at})
	}
	for i := 0; i < 30; i++ {
		s.Put(cacheKey("m1", fmt.Sprintf("q-%02d", i)), Entry[string]{Val: pad, OK: true, At: at})
	}
	s.settle(t)
	if s.PersistStats().CacheSegmentRotations == 0 {
		t.Fatal("test never rotated; shrink the threshold")
	}
	s.Close()

	r := openTestLog(t, dir, testLog{ModelTag: "m1"})
	defer r.Close()
	if _, hit := r.Get(cacheKey("m0", "q-00")); hit {
		t.Error("the previous model's entry resurrected across rotation + restart")
	}
	if _, hit := r.Get(cacheKey("m1", "q-29")); !hit {
		t.Error("the live model's entry lost")
	}
	if n := r.Len(); n != 30 {
		t.Errorf("Len = %d, want the live model's 30", n)
	}
}

// TestDiskStoreLocksOutSecondOpener: the doc used to admit "no
// cross-process lock"; now a second opener of a live directory fails fast
// instead of corrupting the log, and the lock releases on Close.
func TestDiskStoreLocksOutSecondOpener(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir)
	if _, err := openTestLogE(dir, testLog{}); err == nil {
		t.Fatal("second opener acquired a locked cache directory")
	} else if !strings.Contains(err.Error(), "locked") {
		t.Errorf("lock error %q does not say the directory is locked", err)
	}
	s.Close()
	r := openTestStore(t, dir) // the lock died with the first store
	r.Close()
}

// TestDiskStoreTTLDropsExpiredAtReplay: entries past the cache TTL are
// dropped at boot instead of being replayed into memory — the runtime
// would only ever treat them as misses.
func TestDiskStoreTTLDropsExpiredAtReplay(t *testing.T) {
	dir := t.TempDir()
	s := openTestLog(t, dir, testLog{TTL: time.Hour})
	s.Put("dead", Entry[string]{Val: "expired", OK: true, At: time.Now().Add(-2 * time.Hour)})
	s.Put("live", Entry[string]{Val: "fresh", OK: true, At: time.Now()})
	s.Close()

	r := openTestLog(t, dir, testLog{TTL: time.Hour})
	defer r.Close()
	if _, hit := r.Get("dead"); hit {
		t.Error("TTL-expired entry replayed into memory")
	}
	if e, hit := r.Get("live"); !hit || e.Val != "fresh" {
		t.Errorf("fresh entry lost: %+v hit=%v", e, hit)
	}
}

// TestDiskStoreTTLDropsExpiredAtMerge: the background merge applies the
// same liveness cutoff, so expired entries stop being rewritten from
// segment to segment — they are gone from disk even for a later open that
// does no TTL filtering of its own.
func TestDiskStoreTTLDropsExpiredAtMerge(t *testing.T) {
	dir := t.TempDir()
	s := openTestLog(t, dir, testLog{TTL: time.Hour, RotateEvery: 4096})
	old := time.Now().Add(-2 * time.Hour)
	for i := 0; i < 20; i++ {
		s.Put(fmt.Sprintf("dead-%02d", i), Entry[string]{Val: "expired", OK: true, At: old})
	}
	// Pad with live entries until the dead ones rotate out and merge;
	// 300 × ~115B crosses the 4KB threshold several times over, and the
	// whole set stays well under the memory index's capacity so every
	// surviving key is observable after the reopen.
	pad := strings.Repeat("p", 80)
	now := time.Now()
	for i := 0; i < 300; i++ {
		s.Put(fmt.Sprintf("live-%04d", i), Entry[string]{Val: pad, OK: true, At: now})
	}
	waitFor(t, 2*time.Second, func() bool {
		st := s.PersistStats()
		return st.CacheCompactions >= 2 && st.CacheSealedBytes == 0 // boot + ≥1 merge
	})
	s.Close()

	// Reopen with no TTL: if the merge had kept the expired entries they
	// would replay here. They must not.
	r := openTestLog(t, dir, testLog{})
	defer r.Close()
	for i := 0; i < 20; i++ {
		if _, hit := r.Get(fmt.Sprintf("dead-%02d", i)); hit {
			t.Fatalf("merge rewrote TTL-expired entry dead-%02d to disk", i)
		}
	}
	if _, hit := r.Get("live-0000"); !hit {
		t.Error("live entry lost by the TTL merge filter")
	}
}

// TestDiskStorePeriodicSyncMakesAppendsDurable: with SyncEvery set, an
// appended record reaches the file without any Flush/Close — a SIGKILL
// (simulated by copying the segment files out from under the live store)
// loses at most the last SyncEvery of work, not everything since boot.
func TestDiskStorePeriodicSyncMakesAppendsDurable(t *testing.T) {
	dir := t.TempDir()
	s := openTestLog(t, dir, testLog{SyncEvery: 2 * time.Millisecond})
	defer s.Close()
	headerSize, err := os.Stat(filepath.Join(dir, segName))
	if err != nil {
		t.Fatal(err)
	}
	s.Put("k", Entry[string]{Val: "durable-without-flush", OK: true, At: time.Now()})
	waitFor(t, time.Second, func() bool {
		fi, err := os.Stat(filepath.Join(dir, segName))
		return err == nil && fi.Size() > headerSize.Size()
	})
	if age := s.PersistStats().CacheSyncAgeSeconds; age > 1 {
		t.Errorf("sync age = %vs under a 2ms period", age)
	}

	// "Crash": clone the on-disk state while the store still runs (the OS
	// would preserve exactly these bytes through a SIGKILL) and boot over
	// the clone.
	crash := t.TempDir()
	for _, name := range []string{baseName, segName} {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(crash, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	r := openTestStore(t, crash)
	defer r.Close()
	if e, hit := r.Get("k"); !hit || e.Val != "durable-without-flush" {
		t.Fatalf("periodically-synced entry lost in the crash clone: %+v hit=%v", e, hit)
	}
}
