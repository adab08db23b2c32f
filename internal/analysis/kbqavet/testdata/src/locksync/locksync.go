// Fixture for the locksync analyzer.
package locksync

import (
	"net"
	"net/http"
	"net/url"
	"os"
	"sync"
)

type store struct {
	mu sync.Mutex
	rw sync.RWMutex
	f  *os.File
}

// Direct fsync between Lock and Unlock: the canonical violation.
func (s *store) bad() {
	s.mu.Lock()
	s.f.Sync() // want `blocking \(\*os.File\)\.Sync inside critical section \(s\.mu held\)`
	s.mu.Unlock()
}

// I/O after the unlock is the correct shape.
func (s *store) good() {
	s.mu.Lock()
	s.mu.Unlock()
	s.f.Sync()
}

// A deferred Unlock holds the mutex for the whole body.
func (s *store) deferred() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return os.Rename("a", "b") // want `blocking os\.Rename inside critical section \(s\.mu held\)`
}

// Read locks are critical sections too.
func (s *store) reader() {
	s.rw.RLock()
	s.f.Sync() // want `blocking \(\*os.File\)\.Sync inside critical section \(s\.rw held\)`
	s.rw.RUnlock()
}

// Not under any lock: contributes a blocking fact, no diagnostic here.
func (s *store) flush() {
	s.f.Sync()
}

// Calling a same-package function that blocks is flagged transitively.
func (s *store) transitive() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.flush() // want `call to flush, which performs blocking I/O \(\(\*os.File\)\.Sync\), inside critical section \(s\.mu held\)`
}

// An unlock on one branch does not release the mutex for the
// fall-through path.
func (s *store) branchUnlock(cond bool) {
	s.mu.Lock()
	if cond {
		s.mu.Unlock()
		return
	}
	s.f.Sync() // want `blocking \(\*os.File\)\.Sync inside critical section`
	s.mu.Unlock()
}

// A vetted exception is suppressed AND does not poison callers.
func (s *store) vetted() {
	s.mu.Lock()
	defer s.mu.Unlock()
	//kbqa:nolint locksync — O(1) metadata rename by design (fixture)
	os.Rename("a", "b")
}

func (s *store) callsVetted() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.vetted()
}

type peer struct {
	mu   sync.Mutex
	conn net.Conn
	h    http.Header
}

// A write on a net.Conn can wait on the socket.
func (p *peer) send(b []byte) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.conn.Write(b) // want `blocking \(net\.Conn\)\.Write inside critical section \(p\.mu held\)`
}

// Dialing and HTTP client requests wait on the network too.
func (p *peer) dial() {
	p.mu.Lock()
	defer p.mu.Unlock()
	net.Dial("tcp", "localhost:1")  // want `blocking net\.Dial inside critical section`
	http.Get("http://localhost:1/") // want `blocking net/http\.Get inside critical section`
}

// Pure helpers of net and net/* touch no socket: quiet under a lock.
func (p *peer) helpers() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.h.Set("k", "v")
	_ = url.QueryEscape("a b")
	net.SplitHostPort("localhost:1")
}
