package serve

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/safeio"
)

// diskLog is the optional write-behind half of the answer cache: a log of
// append-only segment files that makes the runtime's answerCache survive a
// restart. Memory is the source of truth — lookups never touch the disk,
// and the log is write-only between opens: every computed answer is
// appended as one length-prefixed, checksummed record (see segment.go), and
// the files are read exactly once, by openDiskLog, to refill the cache with
// the entries of the model this process runs (LogOptions.ModelTag).
//
// The segments form a three-tier log, replayed in write order at open:
//
//	answers.base            dense base: the last published compaction
//	answers.<seq>.sealed    at most one sealed segment, being merged
//	answers.seg             the active segment, the only append target
//
// Requests only append: put frames a record into the buffered writer under
// mu and, once the active segment holds rotateEvery appended bytes, wakes
// the merger. After openDiskLog returns, the merger goroutine (compact.go)
// is the only code that touches a file of the directory. A rotation is one
// merger step: under mu it flushes the writer, renames the active file to
// the next sealed name and starts a fresh active segment; off the lock it
// fsyncs and closes the sealed file, fsyncs the directory, writes the
// resident entries inside the TTL — a snapshot of memory, whichever model
// computed them, not a re-read of its own files — as a new dense base,
// publishes it with an atomic rename, and deletes the sealed file. A
// rotation that falls due while that merge runs waits for it
// (kbqa_cache_rotation_paused), so a second sealed file never exists. A
// crash at any point loses nothing and resurrects nothing: replay of base +
// surviving sealed + active reconstructs the last-write-wins state, and a
// sealed segment that outlives its own merge replays idempotently.
//
// Every durability point runs on the merger: rotations, the periodic fsync
// when SyncEvery is set (an answer is durable within SyncEvery of being
// computed), flush and close. A failed file step is sticky: appends stop,
// memory keeps serving, flush and close report the error, and the next
// open folds whatever the directory holds. The checksummed framing means a
// torn tail is detected and discarded at the next open, never served.
//
// The log is single-writer, enforced: openDiskLog takes an exclusive flock
// on a lock file inside the directory and fails fast when another process
// holds it, instead of letting two writers interleave appends and corrupt
// the log. The lock dies with the process, so a crashed owner never wedges
// the directory.
type diskLog[A any] struct {
	mem   *answerCache[A] // the runtime's cache; compaction snapshots it
	codec Codec[A]
	dir   string
	meta  string
	ttl   time.Duration
	// rotateEvery is the appended-bytes threshold at which the merger
	// rotates the active segment, bounding segment growth and replay.
	rotateEvery int64

	dropped        atomic.Uint64 // entries kept memory-only (unencodable or oversized)
	rotations      atomic.Uint64 // active-segment rotations
	compactions    atomic.Uint64 // completed compaction passes (background + boot)
	sealedBytes    atomic.Int64  // bytes of the sealed segment being merged; 0 when none
	rotationPaused atomic.Bool   // a rotation is due while the sealed segment merges
	lastSync       atomic.Int64  // UnixNano of the last durability point

	lock *os.File // flock'd lock file; held for the log's lifetime

	mu       sync.Mutex // guards everything below
	appended int64      // bytes appended to the active segment
	seq      uint64     // next sealed-segment sequence number
	f        *os.File   // active segment; only the merger replaces or closes it
	w        *bufio.Writer
	writeErr error // sticky: the first append or file-step failure
	closed   bool

	mergeCh    chan struct{}   // a rotation is due
	flushCh    chan chan error // flush requests, answered by the merger
	stopMerger chan struct{}
	mergerDone chan struct{}

	log    *obs.Logger // nil-safe: discards when unset
	tracer *obs.Tracer // nil-safe: inert when unset
}

// LogOptions places the persistent half of the answer cache (Open). It
// holds deployment settings only; the cache's shape — shards, capacity,
// TTL — is the runtime's Options, stated once.
type LogOptions[A any] struct {
	// Dir is the directory holding the segment files and the lock file;
	// created if absent.
	Dir string
	// Meta fingerprints the lineage of the answers (world identity). A
	// segment written under a different Meta is discarded at open instead
	// of replayed — a cache directory can never poison a different system.
	Meta string
	// ModelTag is how the caller leads the fingerprints it hands Do for the
	// model it runs at open: replay keeps only entries whose key starts
	// with it, so answers another model computed are dropped instead of
	// served. No tag may be a prefix of another (a fixed width does it).
	// Empty keeps every entry.
	ModelTag string
	// SyncEvery is the period of the background fsync of the active
	// segment: an answer is durable within SyncEvery of being computed.
	// 0 (or negative) leaves durability to Flush, Close and rotations.
	SyncEvery time.Duration
	// Codec serializes answers into entry records; nil means JSONCodec.
	Codec Codec[A]
	// Log receives the log's structured background events: completed
	// compactions at Info, rotations at Debug, sticky write errors at
	// Error. Nil discards them.
	Log *obs.Logger
	// Tracer captures the background maintenance work — compactions
	// ("cache.merge" with snapshot/publish/cleanup child spans) and
	// periodic syncs ("cache.sync") — in the same ring as request traces,
	// subject to the same sampling and slow-capture rules. Nil disables.
	Tracer *obs.Tracer
}

const (
	// defaultRotateEvery is the appended-bytes rotation threshold.
	defaultRotateEvery = 16 << 20

	// segName is the active segment file inside the log directory.
	segName = "answers.seg"
	// baseName is the dense base segment compaction publishes.
	baseName = "answers.base"
	// sealedPrefix/sealedSuffix frame sealed segment names:
	// answers.<8-digit seq>.sealed.
	sealedPrefix = "answers."
	sealedSuffix = ".sealed"
	// lockName is the cross-process exclusion file.
	lockName = "LOCK"
)

func (l *diskLog[A]) activePath() string { return filepath.Join(l.dir, segName) }
func (l *diskLog[A]) basePath() string   { return filepath.Join(l.dir, baseName) }

func sealedName(seq uint64) string {
	return fmt.Sprintf("%s%08d%s", sealedPrefix, seq, sealedSuffix)
}

// openDiskLog opens (or creates) the log rooted at o.Dir: it replays base +
// sealed + active segments in write order into mem, then compacts the
// survivors into a fresh dense base before serving. Entries of another
// model (no o.ModelTag prefix), entries past ttl, and any torn tail are
// dropped. It fails fast if another process holds the directory.
func openDiskLog[A any](mem *answerCache[A], ttl time.Duration, o LogOptions[A]) (*diskLog[A], error) {
	if o.Codec == nil {
		o.Codec = JSONCodec[A]{}
	}
	if err := os.MkdirAll(o.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: open disk log: %w", err)
	}
	lock, err := acquireDirLock(o.Dir)
	if err != nil {
		return nil, err
	}
	l := &diskLog[A]{
		mem:         mem,
		codec:       o.Codec,
		dir:         o.Dir,
		meta:        o.Meta,
		ttl:         ttl,
		rotateEvery: defaultRotateEvery,
		lock:        lock,
		log:         o.Log,
		tracer:      o.Tracer,
	}
	fail := func(err error) (*diskLog[A], error) {
		//kbqa:nolint errsink — error-path flock release; the open failure is the error that matters
		lock.Close()
		return nil, err
	}

	files, nextSeq := l.segmentFiles()
	l.seq = nextSeq
	live, err := l.replay(files, o.ModelTag)
	if err != nil {
		return fail(err)
	}
	for _, le := range live {
		le.e.Persisted = true
		mem.Put(le.key, le.e)
	}
	// Boot-time compaction: fold everything into a dense base, then start
	// an empty active segment — off any request path by definition.
	if _, err := l.writeBase(mem.entries()); err != nil {
		return fail(err)
	}
	l.compactions.Add(1)
	for _, p := range files {
		// The sealed segments (and any half-written compaction output) are
		// folded into the fresh base now; remove them so a later rotation
		// can never collide with a leftover name.
		if p != l.basePath() && p != l.activePath() {
			os.Remove(p)
		}
	}
	l.mu.Lock()
	err = l.startActiveLocked()
	l.mu.Unlock()
	if err != nil {
		return fail(err)
	}
	// Make the fresh active's directory entry (and the sealed removals)
	// durable, so a later data fsync of the active file cannot report
	// bytes durable in a file a crash then unlinks.
	safeio.SyncDir(l.dir)
	l.lastSync.Store(time.Now().UnixNano())
	l.mergeCh = make(chan struct{}, 1)
	l.flushCh = make(chan chan error)
	l.stopMerger = make(chan struct{})
	l.mergerDone = make(chan struct{})
	go l.merger(o.SyncEvery)
	return l, nil
}

// liveEntry is one key with its entry: a survivor of replay, or a resident
// of the cache snapshotted for compaction.
type liveEntry[A any] struct {
	key string
	e   Entry[A]
}

// segmentFiles lists the segment files to replay, in write order — base,
// sealed ascending by sequence, active; the first and last may not exist —
// plus the next sealed sequence number (one past the highest present, so a
// rotation can never rename onto a leftover sealed file).
func (l *diskLog[A]) segmentFiles() (files []string, nextSeq uint64) {
	files = append(files, l.basePath())
	ents, _ := os.ReadDir(l.dir)
	var seqs []uint64
	for _, de := range ents {
		name := de.Name()
		if !strings.HasPrefix(name, sealedPrefix) || !strings.HasSuffix(name, sealedSuffix) {
			continue
		}
		mid := strings.TrimSuffix(strings.TrimPrefix(name, sealedPrefix), sealedSuffix)
		q, err := strconv.ParseUint(mid, 10, 64)
		if err != nil {
			continue
		}
		seqs = append(seqs, q)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	for _, q := range seqs {
		files = append(files, filepath.Join(l.dir, sealedName(q)))
		nextSeq = q + 1
	}
	return append(files, l.activePath()), nextSeq
}

// replay is the log's only reader, and runs only at open: it scans the
// given segment files in order and returns the live entries — last record
// per key in first-seen order, keys starting with tag only, TTL-live only.
// A missing file, a foreign magic/meta header, or a corrupt prefix
// contributes nothing; a corrupt or torn tail keeps that file's valid
// prefix.
func (l *diskLog[A]) replay(files []string, tag string) ([]liveEntry[A], error) {
	var (
		order []liveEntry[A]
		index = make(map[string]int)
	)
	readFile := func(path string) error {
		f, err := os.Open(path)
		if errors.Is(err, os.ErrNotExist) {
			return nil
		}
		if err != nil {
			return fmt.Errorf("serve: open segment: %w", err)
		}
		defer f.Close()
		br := bufio.NewReader(f)
		if !readSegHeader(br, l.meta) {
			return nil // foreign or mangled segment: contributes nothing
		}
		for {
			payload, err := readRecord(br)
			if err != nil {
				// io.EOF is a clean end; anything else is a torn or corrupt
				// tail — keep the prefix read so far.
				return nil
			}
			key, val, at, ok, err := decodeEntryPayload(payload)
			if err != nil || !strings.HasPrefix(key, tag) {
				continue // a malformed body, or another model's answer
			}
			a, err := l.codec.Decode(val)
			if err != nil {
				continue // codec drift (e.g. a changed answer type)
			}
			e := Entry[A]{Val: a, OK: ok, At: at}
			if i, seen := index[key]; seen {
				order[i].e = e
			} else {
				index[key] = len(order)
				order = append(order, liveEntry[A]{key: key, e: e})
			}
		}
	}
	for _, path := range files {
		if err := readFile(path); err != nil {
			return nil, err
		}
	}
	// Entries past the TTL cutoff will never be served again — drop them
	// here so they stop costing memory and disk.
	now := time.Now()
	live := order[:0]
	for _, le := range order {
		if l.alive(le.e, now) {
			live = append(live, le)
		}
	}
	return live, nil
}

// alive reports whether an entry is inside the liveness cutoff. Entries
// older than the TTL are misses forever at the runtime; persisting and
// replaying them is pure dead weight.
func (l *diskLog[A]) alive(e Entry[A], now time.Time) bool {
	return l.ttl <= 0 || now.Sub(e.At) <= l.ttl
}

// startActiveLocked creates a fresh active segment and buffers its header.
// Called with l.mu held.
func (l *diskLog[A]) startActiveLocked() error {
	f, err := os.Create(l.activePath())
	if err != nil {
		return fmt.Errorf("serve: create active segment: %w", err)
	}
	l.f = f
	l.w = bufio.NewWriter(f)
	writeSegHeader(l.w, l.meta)
	l.appended = 0
	return nil
}

// put appends an entry the runtime has just made resident. Disk failures
// are sticky and surfaced by flush/close; the memory path keeps serving. An
// entry whose value the codec cannot encode, or whose record would exceed
// the reader's size bound (readRecord would reject it as corrupt at the
// next open and drop everything after it with it), is a per-value problem,
// not a log failure: it stays memory-only — losing one entry's restart
// survival, counted in kbqa_cache_persist_dropped_total — and persistence
// continues for everything else.
func (l *diskLog[A]) put(key string, e Entry[A]) {
	val, err := l.codec.Encode(e.Val)
	if err != nil || entryPayloadLen(key, val) > maxRecordLen {
		l.dropped.Add(1)
		return
	}
	payload := encodeEntryPayload(key, val, e.At.UnixNano(), e.OK)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.appendLocked(payload)
}

// appendLocked frames and buffers one record and, once the active segment
// has crossed the rotation threshold, wakes the merger to rotate it; I/O
// errors are sticky. Called with l.mu held.
func (l *diskLog[A]) appendLocked(payload []byte) {
	if l.closed || l.writeErr != nil {
		return
	}
	if err := safeio.WriteFrame(l.w, payload); err != nil {
		l.writeErr = fmt.Errorf("serve: append segment record: %w", err)
		return
	}
	l.appended += int64(8 + len(payload))
	if l.appended < l.rotateEvery {
		return
	}
	if l.sealedBytes.Load() > 0 {
		// The merger is still merging the previous sealed segment: the
		// rotation waits for it and the active segment keeps growing.
		l.rotationPaused.Store(true)
	}
	select {
	case l.mergeCh <- struct{}{}:
	default: // a wake-up is already pending
	}
}

// fill adds the log's point-in-time counters to a metrics snapshot; the
// Snapshot fields document each.
func (l *diskLog[A]) fill(s *Snapshot) {
	s.CachePersistent = true
	s.CachePersistDropped = l.dropped.Load()
	s.CacheSegmentRotations = l.rotations.Load()
	s.CacheCompactions = l.compactions.Load()
	s.CacheSealedBytes = l.sealedBytes.Load()
	s.CacheRotationPaused = l.rotationPaused.Load()
	s.CacheSyncAgeSeconds = time.Since(time.Unix(0, l.lastSync.Load())).Seconds()
}
