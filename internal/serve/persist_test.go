package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/safeio"
)

// testStore pairs an answer cache with its disk log the way Runtime does
// (memory first, then the log), so the persistence tests drive puts and
// reopen cycles without an engine in the way.
type testStore struct {
	*answerCache[string]
	log *diskLog[string]
}

// testLog is everything a persistence test varies at open: the deployment
// options of LogOptions, the cache TTL, and the rotation threshold tests
// shrink to make rotation and merge happen on small inputs.
type testLog struct {
	Meta, ModelTag string
	SyncEvery      time.Duration
	Codec          Codec[string]
	Log            *obs.Logger
	Tracer         *obs.Tracer
	TTL            time.Duration
	RotateEvery    int64 // 0 keeps defaultRotateEvery
}

func (o testLog) options(dir string) LogOptions[string] {
	return LogOptions[string]{Dir: dir, Meta: o.Meta, ModelTag: o.ModelTag, SyncEvery: o.SyncEvery,
		Codec: o.Codec, Log: o.Log, Tracer: o.Tracer}
}

// tune applies the shrunken rotation threshold to a freshly opened log.
func (o testLog) tune(l *diskLog[string]) {
	if o.RotateEvery != 0 {
		l.setRotateEvery(o.RotateEvery)
	}
}

// setRotateEvery changes the rotation threshold; the next append checks it.
func (l *diskLog[A]) setRotateEvery(n int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.rotateEvery = n
}

func openTestLogE(dir string, o testLog) (*testStore, error) {
	mem := newAnswerCache[string](16, 4096)
	l, err := openDiskLog(mem, o.TTL, o.options(dir))
	if err != nil {
		return nil, err
	}
	o.tune(l)
	return &testStore{answerCache: mem, log: l}, nil
}

func openTestLog(t testing.TB, dir string, o testLog) *testStore {
	t.Helper()
	s, err := openTestLogE(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func openTestStore(t testing.TB, dir, meta string) *testStore {
	t.Helper()
	return openTestLog(t, dir, testLog{Meta: meta})
}

func (s *testStore) Put(key string, e Entry[string]) {
	s.answerCache.Put(key, e)
	s.log.put(key, e)
}

func (s *testStore) PersistStats() (m Snapshot) { s.log.fill(&m); return m }
func (s *testStore) Flush() error               { return s.log.flush() }
func (s *testStore) Close() error               { return s.log.close() }

func TestDiskStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, "m")
	at := time.Unix(100, 200)
	s.Put("k1", Entry[string]{Val: "v1", OK: true, At: at})
	s.Put("k2", Entry[string]{Val: "", OK: false, At: at}) // negative entry
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r := openTestStore(t, dir, "m")
	defer r.Close()
	if n := r.Len(); n != 2 {
		t.Fatalf("reopened Len = %d, want 2", n)
	}
	e, hit := r.Get("k1")
	if !hit || e.Val != "v1" || !e.OK || !e.Persisted || !e.At.Equal(at) {
		t.Errorf("k1 = %+v hit=%v, want replayed v1/ok/persisted at %v", e, hit, at)
	}
	e, hit = r.Get("k2")
	if !hit || e.OK || !e.Persisted {
		t.Errorf("negative entry k2 = %+v hit=%v, want replayed !ok", e, hit)
	}
}

func TestDiskStoreLastWriteWinsAndCompacts(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, "m")
	for i := 0; i < 3; i++ {
		s.Put("k", Entry[string]{Val: string(rune('a' + i)), OK: true})
	}
	s.Close()
	sizeBefore := storeSize(t, dir)

	r := openTestStore(t, dir, "m")
	if e, hit := r.Get("k"); !hit || e.Val != "c" {
		t.Errorf("k = %+v hit=%v, want last write c", e, hit)
	}
	if n := r.Len(); n != 1 {
		t.Errorf("Len = %d, want 1", n)
	}
	r.Close()
	if sizeAfter := storeSize(t, dir); sizeAfter >= sizeBefore {
		t.Errorf("boot compaction did not shrink the log: %d -> %d", sizeBefore, sizeAfter)
	}
}

// TestDiskStoreGenerationSurvivesRestartAndDropsDeadEntries: one process
// logs answers of two models (a swap in between); a restart running the
// second keeps exactly its entries, and its boot compaction leaves the
// first model's out of the base for good.
func TestDiskStoreGenerationSurvivesRestartAndDropsDeadEntries(t *testing.T) {
	dir := t.TempDir()
	s := openTestLog(t, dir, testLog{Meta: "m", ModelTag: "m0"})
	s.Put(cacheKey("m0", "q"), Entry[string]{Val: "stale", OK: true})
	s.Put(cacheKey("m1", "q"), Entry[string]{Val: "fresh", OK: true})
	s.Close()

	r := openTestLog(t, dir, testLog{Meta: "m", ModelTag: "m1"})
	if _, hit := r.Get(cacheKey("m0", "q")); hit {
		t.Error("the previous model's entry survived the restart")
	}
	if e, hit := r.Get(cacheKey("m1", "q")); !hit || e.Val != "fresh" {
		t.Errorf("live entry = %+v hit=%v", e, hit)
	}
	r.Close()

	r2 := openTestStore(t, dir, "m") // no tag: replay keeps everything logged
	defer r2.Close()
	if n := r2.Len(); n != 1 {
		t.Errorf("Len = %d, want 1 (the dead model's entry left the base)", n)
	}
}

// TestDiskStoreDropsCorruptTail simulates a crash mid-write: whatever valid
// prefix exists must replay, the torn or corrupt tail must be dropped, and
// open must never panic.
func TestDiskStoreDropsCorruptTail(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, "m")
	for _, k := range []string{"a", "b", "c"} {
		s.Put(k, Entry[string]{Val: "v-" + k, OK: true})
	}
	s.Close()
	clean, err := os.ReadFile(filepath.Join(dir, segName))
	if err != nil {
		t.Fatal(err)
	}

	t.Run("garbage appended", func(t *testing.T) {
		dir := t.TempDir()
		writeSeg(t, dir, append(append([]byte{}, clean...), "!!garbage!!"...))
		r := openTestStore(t, dir, "m")
		defer r.Close()
		if n := r.Len(); n != 3 {
			t.Errorf("Len = %d, want all 3 records before the garbage", n)
		}
	})

	t.Run("torn tail", func(t *testing.T) {
		dir := t.TempDir()
		writeSeg(t, dir, clean[:len(clean)-5]) // cut into the last record
		r := openTestStore(t, dir, "m")
		defer r.Close()
		if n := r.Len(); n != 2 {
			t.Errorf("Len = %d, want 2 (torn third record dropped)", n)
		}
		if _, hit := r.Get("c"); hit {
			t.Error("torn record served")
		}
		if e, hit := r.Get("b"); !hit || e.Val != "v-b" {
			t.Errorf("record before the tear lost: %+v hit=%v", e, hit)
		}
	})

	t.Run("bit flip", func(t *testing.T) {
		dir := t.TempDir()
		flipped := append([]byte{}, clean...)
		flipped[len(flipped)-3] ^= 0xff // corrupt the last record's payload
		writeSeg(t, dir, flipped)
		r := openTestStore(t, dir, "m")
		defer r.Close()
		if n := r.Len(); n != 2 {
			t.Errorf("Len = %d, want 2 (checksum-failed record dropped)", n)
		}
	})

	t.Run("mangled header", func(t *testing.T) {
		dir := t.TempDir()
		writeSeg(t, dir, []byte("not a segment at all"))
		r := openTestStore(t, dir, "m")
		defer r.Close()
		if n := r.Len(); n != 0 {
			t.Errorf("Len = %d, want 0 for a foreign file", n)
		}
	})
}

// TestDiskStoreMetaMismatch: a segment written under one lineage must not
// replay into a system with another.
func TestDiskStoreMetaMismatch(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, "flavor-a")
	s.Put("k", Entry[string]{Val: "v", OK: true})
	s.Close()

	r := openTestStore(t, dir, "flavor-b")
	if n := r.Len(); n != 0 {
		t.Errorf("foreign segment replayed %d entries", n)
	}
	r.Put("k2", Entry[string]{Val: "v2", OK: true})
	r.Close()

	// The discard is durable: the compacted segment now carries lineage b.
	r2 := openTestStore(t, dir, "flavor-b")
	defer r2.Close()
	if e, hit := r2.Get("k2"); !hit || e.Val != "v2" {
		t.Errorf("rewritten segment lost its entry: %+v hit=%v", e, hit)
	}
}

// TestDiskStoreModelTagMismatchInvalidates: entries persisted under one
// model tag must not be served by a process whose model carries another.
func TestDiskStoreModelTagMismatchInvalidates(t *testing.T) {
	dir := t.TempDir()
	a, b := cacheKey("model-a", "k"), cacheKey("model-b", "k")
	s := openTestLog(t, dir, testLog{Meta: "w", ModelTag: "model-a"})
	s.Put(a, Entry[string]{Val: "a's answer", OK: true})
	s.Close()

	// Same world, different model: the cache is refused, durably.
	r := openTestLog(t, dir, testLog{Meta: "w", ModelTag: "model-b"})
	if n := r.Len(); n != 0 {
		t.Errorf("foreign model's entries replayed: %d", n)
	}
	r.Put(b, Entry[string]{Val: "b's answer", OK: true})
	r.Close()

	// Reopening under model-b again is a clean match.
	r2 := openTestLog(t, dir, testLog{Meta: "w", ModelTag: "model-b"})
	defer r2.Close()
	if n := r2.Len(); n != 1 {
		t.Errorf("matching reopen Len = %d, want 1", n)
	}
	if e, hit := r2.Get(b); !hit || e.Val != "b's answer" {
		t.Errorf("matching reopen lost the entry: %+v hit=%v", e, hit)
	}
}

// TestDiskStoreRetrainedTagSurvivesRestart: a process that swapped from m0
// to m1 logged answers of both; a restart under m1 replays m1's, and a
// later restart under m0 finds none of m1's.
func TestDiskStoreRetrainedTagSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	s := openTestLog(t, dir, testLog{Meta: "w", ModelTag: "m0"})
	s.Put(cacheKey("m0", "k"), Entry[string]{Val: "v0", OK: true})
	s.Put(cacheKey("m1", "k1"), Entry[string]{Val: "v1", OK: true})
	s.Close()

	// Boot running the retrained model: its entries replay, m0's do not.
	r := openTestLog(t, dir, testLog{Meta: "w", ModelTag: "m1"})
	if e, hit := r.Get(cacheKey("m1", "k1")); !hit || e.Val != "v1" {
		t.Errorf("retrained model's entry lost: %+v hit=%v", e, hit)
	}
	if n := r.Len(); n != 1 {
		t.Errorf("retrained boot Len = %d, want 1", n)
	}
	r.Close()

	// Boot running the seed model again: the retrained answers are refused.
	r2 := openTestLog(t, dir, testLog{Meta: "w", ModelTag: "m0"})
	defer r2.Close()
	if n := r2.Len(); n != 0 {
		t.Errorf("seed-model boot replayed %d retrained entries", n)
	}
}

// TestDiskStoreRefusesOlderLayout: a directory written in the KBQASEG1
// layout — a generation record, then entries carrying a generation — is
// refused by its magic, never misread as the current layout: it opens with
// no entries and no error, and the boot compaction leaves a current base.
func TestDiskStoreRefusesOlderLayout(t *testing.T) {
	dir := t.TempDir()
	v1 := func(payloads ...[]byte) []byte {
		var buf bytes.Buffer
		buf.WriteString("KBQASEG1")
		buf.Write(binary.LittleEndian.AppendUint32(nil, 1))
		buf.WriteString("m")
		for _, p := range payloads {
			if err := safeio.WriteFrame(&buf, p); err != nil {
				t.Fatal(err)
			}
		}
		return buf.Bytes()
	}
	genRec := binary.LittleEndian.AppendUint64([]byte{2}, 1)
	entry := binary.LittleEndian.AppendUint64([]byte{1}, 1)                        // gen
	entry = binary.LittleEndian.AppendUint64(entry, uint64(time.Now().UnixNano())) // at
	entry = append(entry, 1)                                                       // ok
	entry = binary.LittleEndian.AppendUint32(entry, 1)
	entry = append(entry, `k"v"`...)
	for _, name := range []string{baseName, segName} {
		if err := os.WriteFile(filepath.Join(dir, name), v1(genRec, entry), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s, err := openTestLogE(dir, testLog{Meta: "m"})
	if err != nil {
		t.Fatalf("open over an older layout: %v", err)
	}
	defer s.Close()
	if n := s.Len(); n != 0 {
		t.Errorf("Len = %d, want 0 from an older layout", n)
	}
	base, err := os.ReadFile(filepath.Join(dir, baseName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(base, []byte(segMagic)) || segMagic != "KBQASEG2" {
		t.Errorf("base after boot starts %q, want the %s header", base[:min(len(base), 8)], segMagic)
	}
}

// pickyCodec fails to encode one specific value, standing in for answers
// JSON cannot represent (NaN scores and the like), and blows another up
// past the record size bound.
type pickyCodec struct{}

// hugeEncoding is what pickyCodec makes of "huge": with any key, a record
// over maxRecordLen. Allocated once — 64MiB is slow under the race detector.
var hugeEncoding = sync.OnceValue(func() []byte { return make([]byte, maxRecordLen) })

func (pickyCodec) Encode(s string) ([]byte, error) {
	switch s {
	case "poison":
		return nil, errBadRecord
	case "huge":
		return hugeEncoding(), nil
	}
	return []byte(s), nil
}
func (pickyCodec) Decode(b []byte) (string, error) { return string(b), nil }

// TestDiskStoreEncodeFailureIsPerEntry: one unencodable answer must cost
// that answer its restart survival — nothing more. Persistence continues
// for every other entry and Flush stays clean.
func TestDiskStoreEncodeFailureIsPerEntry(t *testing.T) {
	dir := t.TempDir()
	s := openTestLog(t, dir, testLog{Codec: pickyCodec{}})
	s.Put("a", Entry[string]{Val: "fine", OK: true})
	s.Put("bad", Entry[string]{Val: "poison", OK: true})
	s.Put("b", Entry[string]{Val: "also fine", OK: true})
	if err := s.Flush(); err != nil {
		t.Fatalf("Flush after a codec failure = %v, want nil (per-entry, not sticky)", err)
	}
	// The unencodable entry still serves from memory in this process.
	if e, hit := s.Get("bad"); !hit || e.Val != "poison" {
		t.Errorf("unencodable entry lost from memory: %+v hit=%v", e, hit)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r := openTestLog(t, dir, testLog{Codec: pickyCodec{}})
	defer r.Close()
	for _, k := range []string{"a", "b"} {
		if _, hit := r.Get(k); !hit {
			t.Errorf("entry %q written after the codec failure was lost", k)
		}
	}
	if _, hit := r.Get("bad"); hit {
		t.Error("unencodable entry reappeared from disk")
	}
}

// TestDiskStoreUnloggableEntryStaysMemoryOnlyAcrossMerge: the merge writes
// the base from memory, and memory can hold entries put refused to log (an
// unencodable value, an oversized record). They must stay what put made
// them — memory-only: the merges publish around them, the drop is counted
// once per put rather than once per merge, and the directory replays clean
// without them.
func TestDiskStoreUnloggableEntryStaysMemoryOnlyAcrossMerge(t *testing.T) {
	dir := t.TempDir()
	s := openTestLog(t, dir, testLog{Codec: pickyCodec{}, RotateEvery: 2048})
	pad := strings.Repeat("p", 80)
	merges := s.PersistStats().CacheCompactions // the boot compaction
	// One rotation and one merge per round: 20 × ~116B against the 2KB
	// threshold.
	for _, refused := range []struct{ key, val string }{{"bad", "poison"}, {"big", "huge"}} {
		s.Put(refused.key, Entry[string]{Val: refused.val, OK: true})
		for i := 0; i < 20; i++ {
			s.Put(fmt.Sprintf("pad-%02d", i), Entry[string]{Val: pad, OK: true})
		}
		waitFor(t, 5*time.Second, func() bool {
			st := s.PersistStats()
			return st.CacheCompactions > merges && st.CacheSealedBytes == 0
		})
		merges = s.PersistStats().CacheCompactions
	}
	for key, val := range map[string]string{"bad": "poison", "big": "huge"} {
		if e, hit := s.Get(key); !hit || e.Val != val {
			t.Errorf("unloggable entry %q lost from memory: hit=%v", key, hit)
		}
	}
	r := withEngine(echoAsk(nil), Options[string]{})
	defer r.Close()
	r.cache, r.disk = s.answerCache, s.log
	if n := r.Metrics().CachePersistDropped; n != 2 {
		t.Errorf("CachePersistDropped = %d after 2 refused puts and %d merges, want 2", n, merges-1)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close = %v, want nil (a refused entry is not a write error)", err)
	}

	re := openTestLog(t, dir, testLog{Codec: pickyCodec{}})
	defer re.Close()
	if n := re.Len(); n != 20 {
		t.Errorf("reopened Len = %d, want the 20 pad entries and nothing else", n)
	}
	for _, key := range []string{"bad", "big"} {
		if _, hit := re.Get(key); hit {
			t.Errorf("memory-only entry %q reappeared from disk", key)
		}
	}
	if e, hit := re.Get("pad-19"); !hit || e.Val != pad {
		t.Errorf("entry logged beside the refused ones lost: hit=%v", hit)
	}
}

// TestDiskStoreRotationBoundsSegment: churning one key must not grow the
// log without bound — the active segment rotates every rotateEvery bytes
// and the background merger folds the sealed segments into a dense base.
func TestDiskStoreRotationBoundsSegment(t *testing.T) {
	dir := t.TempDir()
	s := openTestLog(t, dir, testLog{RotateEvery: 4096})
	val := strings.Repeat("x", 100)
	for i := 0; i < 1000; i++ {
		s.Put("hot key", Entry[string]{Val: val, OK: true})
	}
	s.settle(t)
	st := s.PersistStats()
	if st.CacheSegmentRotations == 0 {
		t.Fatalf("~140KB of appends against a 4KB threshold never rotated: %+v", st)
	}
	if size := storeSize(t, dir); size > 3*4096 {
		t.Errorf("log = %dB after churn and merge, want bounded by the rotation budget", size)
	}
	if st := s.PersistStats(); st.CacheCompactions < 2 { // boot + at least one merge
		t.Errorf("compactions = %d, want the background merger to have run", st.CacheCompactions)
	}
	s.Close()

	r := openTestStore(t, dir, "")
	defer r.Close()
	if e, hit := r.Get("hot key"); !hit || e.Val != val {
		t.Errorf("churned key lost across rotations and merges: hit=%v", hit)
	}
	if n := r.Len(); n != 1 {
		t.Errorf("Len = %d, want 1", n)
	}
}

// TestRuntimeCloseFlushesInFlightWrite is the drain-on-close contract:
// Close must wait out a singleflight computation already in flight and
// flush its cache write to disk — an answer computed during shutdown is
// never lost.
func TestRuntimeCloseFlushesInFlightWrite(t *testing.T) {
	dir := t.TempDir()
	entered := make(chan struct{})
	gate := make(chan struct{})
	r, err := openWithEngine(func(_ context.Context, q string) (string, StageTimings, bool, error) {
		close(entered)
		<-gate
		return "slow answer", StageTimings{}, true, nil
	}, Options[string]{}, LogOptions[string]{Dir: dir, Meta: "m"})
	if err != nil {
		t.Fatal(err)
	}

	askDone := make(chan error, 1)
	go func() {
		_, _, err := r.Ask(context.Background(), "q")
		askDone <- err
	}()
	<-entered // the engine is computing

	closeDone := make(chan error, 1)
	go func() { closeDone <- r.Close() }()
	select {
	case err := <-closeDone:
		t.Fatalf("Close returned before the in-flight computation drained (err=%v)", err)
	case <-time.After(30 * time.Millisecond):
	}

	close(gate)
	if err := <-askDone; err != nil {
		t.Fatalf("in-flight Ask during Close failed: %v", err)
	}
	if err := <-closeDone; err != nil {
		t.Fatalf("Close: %v", err)
	}

	// A new "process" over the same directory serves the drained answer
	// without an engine call.
	r2, err := openWithEngine(func(_ context.Context, q string) (string, StageTimings, bool, error) {
		t.Errorf("engine probed for an answer that should be on disk: %q", q)
		return "", StageTimings{}, false, nil
	}, Options[string]{}, LogOptions[string]{Dir: dir, Meta: "m"})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	ans, ok, err := r2.Ask(context.Background(), "q")
	if err != nil || !ok || ans != "slow answer" {
		t.Fatalf("restarted runtime = (%q, %v, %v), want the drained answer", ans, ok, err)
	}
	if m := r2.Metrics(); m.CachePersistHits != 1 {
		t.Errorf("persist hits = %d, want 1", m.CachePersistHits)
	}
}

// storeSize totals the bytes across every segment file in the log (base,
// sealed, active).
func storeSize(t testing.TB, dir string) int64 {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, de := range ents {
		if de.Name() == lockName {
			continue
		}
		fi, err := de.Info()
		if err != nil {
			t.Fatal(err)
		}
		total += fi.Size()
	}
	return total
}

// settle waits until the merger has caught up with the appends: no sealed
// segment is being merged and no rotation is due.
func (s *testStore) settle(t testing.TB) {
	t.Helper()
	waitFor(t, 5*time.Second, func() bool {
		s.log.mu.Lock()
		defer s.log.mu.Unlock()
		return s.log.sealedBytes.Load() == 0 && s.log.appended < s.log.rotateEvery
	})
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t testing.TB, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(time.Millisecond)
	}
}

func writeSeg(t *testing.T, dir string, b []byte) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, segName), b, 0o644); err != nil {
		t.Fatal(err)
	}
}
