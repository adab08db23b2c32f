package serve

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"os"
	"time"

	"repro/internal/obs"
	"repro/internal/safeio"
)

// merger is the single background maintenance goroutine: it compacts
// sealed segments into the base off the request path, and drives the
// periodic fsync that gives the log its time-based durability bound. It
// exits when close signals stopMerger.
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
			return
		case <-l.mergeCh:
			l.mergeSealed()
		case <-tickC:
			l.syncActive()
		}
	}
}

// mergeSealed replaces the base and every sealed segment present at call
// time with a fresh dense base: last write per key, current generation
// only, TTL-live only, resident only. It reads no segment: every record in
// those files was made resident before it was appended, so what survives is
// by construction what the cache holds now, and the merge snapshots that.
// Dropping what memory evicted bounds the base to the working set instead
// of every key ever asked: without it, a TTL-less server with a
// high-cardinality question stream grows the base, every merge, and every
// boot replay without bound.
//
// The sealed list is captured before the snapshot, the base is published
// with an atomic rename, and only then are the captured files deleted,
// oldest first — so a crash at any point leaves a directory whose replay
// equals the pre- or post-merge state. An entry newer than the captured
// files is in the base early and again in a later segment, which replays
// after the base to the same value. Oldest-first matters: a sealed file
// surviving its own merge is then among the newest consumed, so replaying
// it over the base re-applies writes that won; deleting newest-first could
// leave an older file to clobber the base's newer values.
func (l *diskLog[A]) mergeSealed() {
	l.mu.Lock()
	pending := append([]sealedSeg(nil), l.sealed...)
	// A bump landing after this point filters nothing here, and need not:
	// its record is in a segment that replays after this base.
	gen, tag := l.gen, l.tag
	l.mu.Unlock()
	if len(pending) == 0 {
		return
	}
	begin := time.Now()
	// The merger is a detached background goroutine with no caller to
	// inherit from; its trace root is deliberately fresh.
	//kbqa:nolint ctxpropagate — background merger owns its trace root
	_, mtr := l.tracer.Start(context.Background(), "cache.merge")
	defer mtr.Finish()
	root := mtr.Root()
	root.SetInt("segments", int64(len(pending)))
	ssp := root.Child("merge.snapshot")
	resident := l.mem.entries()
	ssp.SetInt("records", int64(len(resident)))
	ssp.End()
	// No pre-sync of the sealed inputs: the output base is fsynced before
	// the inputs are deleted — the base is the durable copy. The SyncEvery
	// durability bound for still-unmerged sealed bytes is syncActive's job.
	psp := root.Child("merge.publish")
	live, err := l.writeBase(resident, gen, tag)
	if err != nil {
		root.SetAttr("error", err.Error())
		psp.End()
		l.setWriteErr(err)
		return
	}
	psp.SetInt("live", int64(live))
	psp.End()
	csp := root.Child("merge.cleanup")
	removed, freed := 0, int64(0)
	for _, seg := range pending { // oldest first — see above
		if err := os.Remove(seg.path); err != nil {
			break // keep the newest-survive invariant; retried next merge
		}
		removed++
		freed += seg.size
	}
	csp.SetInt("removed", int64(removed))
	csp.SetInt("freed_bytes", freed)
	csp.End()
	l.mu.Lock()
	l.sealed = l.sealed[removed:]
	behind := len(l.sealed)
	l.mu.Unlock()
	l.sealedBytes.Add(-freed)
	if l.maxSealedBehind > 0 && behind < l.maxSealedBehind && l.rotationPaused.Swap(false) {
		l.log.Info("segment rotation resumed", obs.F("sealed_pending", behind))
		// The pause let the active segment grow past the threshold; rotate
		// it here, on the merger's goroutine rather than a request's, so
		// the log re-converges on the rotation budget even if traffic
		// stops. The rotation re-signals the merger to fold it.
		l.mu.Lock()
		if !l.closed && l.writeErr == nil && l.rotateEvery > 0 && l.appended >= l.rotateEvery {
			l.rotateLocked()
		}
		l.mu.Unlock()
	}
	l.compactions.Add(1)
	l.lastSync.Store(time.Now().UnixNano())
	root.SetInt("live", int64(live))
	root.SetInt("freed_bytes", freed)
	l.log.Info("cache merge",
		obs.F("trace_id", mtr.ID()),
		obs.F("segments", len(pending)), obs.F("live", live),
		obs.F("freed_bytes", freed), obs.F("generation", gen),
		obs.F("duration", time.Since(begin)))
}

// writeBase is the publish step of boot compaction and every merge: it
// renders a cache snapshot (plus one generation record) into a dense,
// checksum-clean segment, fsyncs it, and atomically renames it over the
// base, reporting how many entries were live. Only entries of generation
// gen inside the TTL are live: dead generations are unreachable (the
// runtime keys by generation) and expired entries will never be served
// again, however long they stay resident. Memory can also hold an entry
// put refused to log (unencodable, oversized); it is skipped here the same
// way and stays memory-only.
func (l *diskLog[A]) writeBase(resident []liveEntry[A], gen uint64, tag string) (live int, err error) {
	err = safeio.PublishFile(l.basePath(), func(w *bufio.Writer) error {
		writeSegHeader(w, l.meta)
		if err := safeio.WriteFrame(w, encodeGenPayload(gen, tag)); err != nil {
			return err
		}
		now := time.Now()
		for _, le := range resident {
			if le.e.Gen != gen || !l.alive(le.e, now) {
				continue
			}
			live++
			val, err := l.codec.Encode(le.e.Val)
			if err != nil || entryPayloadLen(le.key, val) > maxRecordLen {
				continue
			}
			if err := safeio.WriteFrame(w, encodeEntryPayload(le.key, val, le.e.Gen, le.e.At.UnixNano(), le.e.OK)); err != nil {
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

// syncActive is the periodic durability point: one syncPoint pass,
// retried when a rotation seals the active file mid-sync (the bytes moved
// to a sealed segment the next pass covers). Sealed-sync failures are
// recorded sticky but don't stop the tick — the disk may recover.
func (l *diskLog[A]) syncActive() {
	// Periodic ticker goroutine: no caller context exists to thread.
	//kbqa:nolint ctxpropagate — background sync tick owns its trace root
	_, str := l.tracer.Start(context.Background(), "cache.sync")
	defer str.Finish()
	passes := 0
	for {
		passes++
		retry, err := l.syncPoint(false)
		if !retry {
			sp := str.Root()
			sp.SetInt("passes", int64(passes))
			if err != nil {
				sp.SetAttr("error", err.Error())
			}
			return
		}
	}
}

// syncPoint is the shared durability-point sequence behind the periodic
// sync and flush: flush the buffered writer (under the mutex — a memcpy),
// then fsync un-durable sealed segments, the active file, and any
// directory metadata deferred by rotations — all outside the mutex, so
// appends never wait out a disk sync. Covering unsynced sealed segments
// matters: rotation does not fsync, and the merger may lag, so without it
// a just-sealed segment could sit un-durable past the SyncEvery bound.
//
// retry reports that a rotation closed the active file mid-sync — benign,
// the bytes now live in a sealed segment a subsequent pass covers. strict
// makes a sealed-sync failure abort with the error (flush's contract);
// otherwise it is recorded sticky and the pass continues.
func (l *diskLog[A]) syncPoint(strict bool) (retry bool, err error) {
	l.mu.Lock()
	if l.closed || l.writeErr != nil {
		err := l.writeErr
		l.mu.Unlock()
		return false, err
	}
	if werr := l.w.Flush(); werr != nil {
		l.writeErr = fmt.Errorf("serve: flush segment: %w", werr)
		err := l.writeErr
		l.mu.Unlock()
		return false, err
	}
	f := l.f
	var unsynced []string
	for i := range l.sealed {
		if !l.sealed[i].synced {
			unsynced = append(unsynced, l.sealed[i].path)
		}
	}
	l.mu.Unlock()

	var synced []string
	for _, p := range unsynced {
		serr := syncFile(p)
		if serr == nil {
			synced = append(synced, p)
			continue
		}
		l.setWriteErr(fmt.Errorf("serve: sync sealed segment: %w", serr))
		if strict {
			if len(synced) > 0 {
				l.markSealedSynced(synced)
			}
			return false, serr
		}
	}
	if len(synced) > 0 {
		l.markSealedSynced(synced)
	}
	switch serr := f.Sync(); {
	case serr == nil:
		l.syncDirIfDirty()
		l.lastSync.Store(time.Now().UnixNano())
		return false, nil
	case errors.Is(serr, os.ErrClosed):
		return true, nil
	default:
		// A failing disk must not break the durability contract silently:
		// record it so flush/close surface the failure.
		l.setWriteErr(fmt.Errorf("serve: sync segment: %w", serr))
		return false, serr
	}
}

// syncDirIfDirty pays the directory fsync deferred by rotations (renames
// and creates since the last one), so a durability point covers metadata
// too. A rotation racing the fsync re-sets the flag — at worst one spare
// directory sync next time, never a missed one.
func (l *diskLog[A]) syncDirIfDirty() {
	if l.dirDirty.Swap(false) {
		safeio.SyncDir(l.dir)
	}
}

// markSealedSynced flags the given sealed paths as durable; matched by
// path because the merger may have pruned the list meanwhile.
func (l *diskLog[A]) markSealedSynced(paths []string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := range l.sealed {
		for _, p := range paths {
			if l.sealed[i].path == p {
				l.sealed[i].synced = true
			}
		}
	}
}

// setWriteErr records the first background failure; surfaced by flush and
// close like append-path errors, and logged at Error the first time.
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

// syncFile fsyncs path (a read-only descriptor syncs fine). A missing
// file is success: the merger deleted it, which means its records are
// already durable in the published base.
func syncFile(path string) error {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}

// flush pushes buffered records through to the OS and syncs every segment
// holding un-durable appended data (active plus unmerged sealed),
// returning the first write error seen so far. The fsyncs run outside the
// append mutex — concurrent puts never wait out a disk sync behind a
// flush; only the buffered-writer flush (a memcpy) holds the lock.
func (l *diskLog[A]) flush() error {
	for {
		retry, err := l.syncPoint(true)
		if retry {
			continue
		}
		if err != nil {
			return err
		}
		l.mu.Lock()
		err = l.writeErr
		l.mu.Unlock()
		return err
	}
}

// close stops and drains the background merger (a merge already underway
// completes), folds any remaining sealed segments into the base, then
// flushes, syncs and closes the active segment and releases the directory
// lock. Idempotent. Further puts are silently discarded (memory only).
func (l *diskLog[A]) close() error {
	l.mu.Lock()
	if l.closed {
		err := l.writeErr
		l.mu.Unlock()
		return err
	}
	l.closed = true
	l.mu.Unlock()

	close(l.stopMerger)
	<-l.mergerDone
	l.mergeSealed() // leave a dense directory; crash-safe if it fails

	// From here close is the sole owner of the writer and file: closed is
	// set (appends return early), the merger is drained, and a concurrent
	// close returned above. Flush under the mutex — it orders after any
	// append that won the lock before closed was set — then take the
	// fsync, close, and directory sync (blocking disk I/O) off the
	// critical section: the append mutex never waits on the disk.
	l.mu.Lock()
	flushErr := l.w.Flush()
	f := l.f
	l.mu.Unlock()

	syncErr := f.Sync()
	closeErr := f.Close()
	l.syncDirIfDirty() // dirDirty is atomic; no lock needed
	//kbqa:nolint errsink — advisory flock dies with the fd either way; nothing to recover
	l.lock.Close() // releases the flock

	l.mu.Lock()
	defer l.mu.Unlock()
	if flushErr != nil && l.writeErr == nil {
		l.writeErr = fmt.Errorf("serve: flush segment: %w", flushErr)
	}
	if syncErr != nil && l.writeErr == nil {
		l.writeErr = fmt.Errorf("serve: sync segment: %w", syncErr)
	}
	if closeErr != nil && l.writeErr == nil {
		l.writeErr = fmt.Errorf("serve: close segment: %w", closeErr)
	}
	return l.writeErr
}
