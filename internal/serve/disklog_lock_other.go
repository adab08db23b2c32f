//go:build !(linux || darwin || freebsd || netbsd || openbsd || dragonfly)

package serve

import (
	"fmt"
	"os"
	"path/filepath"
)

// acquireDirLock on platforms without flock records the owner pid but
// cannot exclude a second process: single-writer discipline is the
// operator's responsibility there, as it was before the lock existed.
// The flock build (see disklog_lock_unix.go) is the deployment target
// and enforces it.
func acquireDirLock(dir string) (*os.File, error) {
	f, err := os.OpenFile(filepath.Join(dir, lockName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("serve: open cache lock: %w", err)
	}
	f.Truncate(0)
	fmt.Fprintf(f, "%d\n", os.Getpid())
	return f, nil
}
