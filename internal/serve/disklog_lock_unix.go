//go:build linux || darwin || freebsd || netbsd || openbsd || dragonfly

package serve

import (
	"fmt"
	"os"
	"path/filepath"
	"syscall"
)

// acquireDirLock takes an exclusive flock on dir/LOCK, failing fast when
// another process holds the directory: two concurrent writers would
// interleave appends and corrupt the log. The lock is advisory but both
// writers would be this code; it is released by Close and dies with the
// process, so a crashed owner never wedges the directory.
func acquireDirLock(dir string) (*os.File, error) {
	f, err := os.OpenFile(filepath.Join(dir, lockName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("serve: open cache lock: %w", err)
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		//kbqa:nolint errsink — error-path close; the flock contention is the error that matters
		f.Close()
		return nil, fmt.Errorf("serve: cache dir %s locked by another process: %w", dir, err)
	}
	// The pid is diagnostic only — the flock is the lock.
	f.Truncate(0)
	fmt.Fprintf(f, "%d\n", os.Getpid())
	return f, nil
}
