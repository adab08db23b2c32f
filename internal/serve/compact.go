package serve

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/obs"
	"repro/internal/safeio"
)

// merger is the goroutine that owns the cache directory once openDiskLog
// returns: it rotates and merges when appends cross the threshold, and runs
// every durability point — the periodic tick, flush and close — so it is
// the only code that renames, creates, fsyncs, closes or deletes a segment
// file. It exits after close's final sync.
func (l *diskLog[A]) merger(syncEvery time.Duration) {
	defer close(l.mergerDone)
	var tickC <-chan time.Time
	if syncEvery > 0 {
		t := time.NewTicker(syncEvery)
		defer t.Stop()
		tickC = t.C
	}
	for {
		select {
		case <-l.stopMerger:
			l.shutdown()
			return
		case <-l.mergeCh:
			l.rotateAndMerge()
		case reply := <-l.flushCh:
			reply <- l.syncPoint()
		case <-tickC:
			l.syncTick()
		}
	}
}

// rotateLocked seals the active segment when a rotation is due: it flushes
// the buffered writer, renames the active file to the next sealed name and
// starts a fresh active segment — metadata work and no fsync, so appends
// never wait out the disk. It returns the sealed file, still open, for the
// merger to fsync and close off the lock; nil when nothing was sealed.
// Called on the merger with l.mu held.
func (l *diskLog[A]) rotateLocked() (path string, sealed *os.File, err error) {
	if l.closed || l.writeErr != nil || l.appended < l.rotateEvery {
		return "", nil, nil
	}
	if err := l.w.Flush(); err != nil {
		return "", nil, fmt.Errorf("serve: flush before rotation: %w", err)
	}
	path = filepath.Join(l.dir, sealedName(l.seq))
	// The rename has to land before the fresh active is created under the
	// same name, with no append in between: the one vetted exception to
	// locksync.
	//kbqa:nolint locksync — O(1) metadata rename on the merger; appends wait out no fsync
	if err := os.Rename(l.activePath(), path); err != nil {
		return "", nil, fmt.Errorf("serve: seal active segment: %w", err)
	}
	l.seq++
	sealed = l.f
	var size int64
	if fi, err := sealed.Stat(); err == nil {
		size = fi.Size()
	}
	if err := l.startActiveLocked(); err != nil {
		// No fresh active: l.f is still the sealed file, which close syncs
		// and closes and the next open folds.
		return "", nil, err
	}
	l.sealedBytes.Store(size)
	l.rotations.Add(1)
	return path, sealed, nil
}

// rotateAndMerge is one rotation, start to finish. Under mu it seals the
// active segment; off the lock it makes the sealed file and the directory
// durable, then replaces the base with a fresh dense one: last write per
// key, TTL-live only, resident only — whichever model computed it, since
// replay sorts models out by key. It reads no segment: every record of the
// sealed file was made resident before it was appended, so what survives
// is by construction what the cache holds now, and the merge snapshots
// that. Dropping what memory evicted bounds the base to the working set
// instead of every key ever asked: without it, a TTL-less server with a
// high-cardinality question stream grows the base, every merge, and every
// boot replay without bound.
//
// The sealed file is deleted only after the base is published, so a crash
// at any point leaves a directory whose replay equals the pre- or
// post-merge state: an entry newer than the rotation is in the base early
// and again in the active segment, which replays after the base to the
// same value. A failed step is sticky and leaves the sealed file for the
// next open to fold.
func (l *diskLog[A]) rotateAndMerge() {
	l.mu.Lock()
	path, sealed, err := l.rotateLocked()
	l.mu.Unlock()
	if err != nil {
		l.setWriteErr(err)
	}
	if sealed == nil {
		return
	}
	size := l.sealedBytes.Load()
	l.log.Debug("segment rotated", obs.F("path", path), obs.F("bytes", size))
	begin := time.Now()
	// The merger is a detached background goroutine with no caller to
	// inherit from; its trace root is deliberately fresh.
	//kbqa:nolint ctxpropagate — background merger owns its trace root
	_, mtr := l.tracer.Start(context.Background(), "cache.merge")
	defer mtr.Finish()
	root := mtr.Root()
	root.SetInt("segments", 1)
	fail := func(err error) {
		root.SetAttr("error", err.Error())
		l.setWriteErr(err)
	}

	// The rotation is a durability point: everything appended before it
	// is in the sealed file, and the directory fsync makes the rename and
	// the fresh active's entry durable before a later fsync of the active
	// can count.
	err = sealed.Sync()
	if cerr := sealed.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fail(fmt.Errorf("serve: sync sealed segment: %w", err))
		return
	}
	safeio.SyncDir(l.dir)
	l.lastSync.Store(time.Now().UnixNano())

	ssp := root.Child("merge.snapshot")
	resident := l.mem.entries()
	ssp.SetInt("records", int64(len(resident)))
	ssp.End()
	psp := root.Child("merge.publish")
	live, err := l.writeBase(resident)
	psp.SetInt("live", int64(live))
	psp.End()
	if err != nil {
		fail(err)
		return
	}
	csp := root.Child("merge.cleanup")
	err = os.Remove(path)
	csp.SetInt("freed_bytes", size)
	csp.End()
	if err != nil {
		fail(fmt.Errorf("serve: delete sealed segment: %w", err))
		return
	}
	l.mu.Lock()
	l.sealedBytes.Store(0)
	l.rotationPaused.Store(false)
	l.mu.Unlock()
	l.compactions.Add(1)
	root.SetInt("live", int64(live))
	root.SetInt("freed_bytes", size)
	mtr.Finish() // before the log line, so its trace_id is already in the ring
	l.log.Info("cache merge",
		obs.F("trace_id", mtr.ID()), obs.F("live", live),
		obs.F("freed_bytes", size), obs.F("duration", time.Since(begin)))
}

// writeBase is the publish step of boot compaction and every merge: it
// renders a cache snapshot into a dense, checksum-clean segment, fsyncs it,
// and atomically renames it over the base, reporting how many entries were
// live. Only entries inside the TTL are live: expired entries will never be
// served again, however long they stay resident. Memory can also hold an
// entry put refused to log (unencodable, oversized); it is skipped here the
// same way and stays memory-only.
func (l *diskLog[A]) writeBase(resident []liveEntry[A]) (live int, err error) {
	err = safeio.PublishFile(l.basePath(), func(w *bufio.Writer) error {
		writeSegHeader(w, l.meta)
		now := time.Now()
		for _, le := range resident {
			if !l.alive(le.e, now) {
				continue
			}
			live++
			val, err := l.codec.Encode(le.e.Val)
			if err != nil || entryPayloadLen(le.key, val) > maxRecordLen {
				continue
			}
			if err := safeio.WriteFrame(w, encodeEntryPayload(le.key, val, le.e.At.UnixNano(), le.e.OK)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return 0, fmt.Errorf("serve: publish base segment: %w", err)
	}
	return live, nil
}

// syncTick is the periodic durability point, traced as cache.sync.
func (l *diskLog[A]) syncTick() {
	// Periodic ticker goroutine: no caller context exists to thread.
	//kbqa:nolint ctxpropagate — background sync tick owns its trace root
	_, str := l.tracer.Start(context.Background(), "cache.sync")
	defer str.Finish()
	if err := l.syncPoint(); err != nil {
		str.Root().SetAttr("error", err.Error())
	}
}

// syncPoint is the log's durability point: flush the buffered writer under
// the mutex (a memcpy), then fsync the active file outside it, so appends
// never wait out a disk sync. It runs on the merger — the only goroutine
// that replaces or closes l.f — and returns the sticky write error.
func (l *diskLog[A]) syncPoint() error {
	l.mu.Lock()
	err := l.w.Flush()
	f := l.f
	l.mu.Unlock()
	if err == nil {
		err = f.Sync()
	}
	if err != nil {
		l.setWriteErr(fmt.Errorf("serve: sync segment: %w", err))
	} else {
		l.lastSync.Store(time.Now().UnixNano())
	}
	return l.err()
}

// setWriteErr records the first failure; surfaced by flush and close like
// append-path errors, and logged at Error the first time.
func (l *diskLog[A]) setWriteErr(err error) {
	l.mu.Lock()
	first := l.writeErr == nil
	if first {
		l.writeErr = err
	}
	l.mu.Unlock()
	if first {
		l.log.Error("persistent store write error", obs.F("error", err))
	}
}

// err returns the sticky write error.
func (l *diskLog[A]) err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.writeErr
}

// flush runs a durability point on the merger and returns the first write
// error seen so far; after close it only reports that error.
func (l *diskLog[A]) flush() error {
	reply := make(chan error, 1)
	select {
	case l.flushCh <- reply:
		return <-reply
	case <-l.mergerDone:
		return l.err()
	}
}

// close stops the merger, whose last step is a final durability point, and
// returns the sticky write error. Idempotent. Further puts are silently
// discarded (memory only).
func (l *diskLog[A]) close() error {
	l.mu.Lock()
	first := !l.closed
	l.closed = true
	l.mu.Unlock()
	if first {
		close(l.stopMerger)
	}
	<-l.mergerDone
	return l.err()
}

// shutdown is the merger's last step: closed is set, so no append touches
// the writer again; flush and fsync it one final time, close the active
// file and release the directory lock.
func (l *diskLog[A]) shutdown() {
	l.syncPoint() // a failure is sticky; close returns it
	if err := l.f.Close(); err != nil {
		l.setWriteErr(fmt.Errorf("serve: close segment: %w", err))
	}
	//kbqa:nolint errsink — advisory flock dies with the fd either way; nothing to recover
	l.lock.Close() // releases the flock
}
