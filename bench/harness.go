package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// clockTick is the unit of utime/stime in /proc/<pid>/stat; USER_HZ is 100
// on every Linux the Go toolchain supports.
const clockTick = 10 * time.Millisecond

// harness owns everything a run leaves outside its own memory: the built
// binaries, the server processes and the temporary directories. cleanup
// undoes all of it and is safe to call on every exit path.
type harness struct {
	root   string // the checkout: holds cmd/ and BENCHMARK.json
	outDir string // bench/out: binaries, logs, traces, temporary directories

	mu      sync.Mutex
	procs   []*proc
	tmpDirs []string
}

// newHarness locates the checkout from the benchmark's own directory, the
// working directory of `go run -C bench .` and of `go test`.
func newHarness() (*harness, error) {
	wd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	root := filepath.Dir(wd)
	for _, need := range []string{"cmd/kbqa-server/main.go", "cmd/kbqa-shard/main.go"} {
		if _, err := os.Stat(filepath.Join(root, need)); err != nil {
			return nil, fmt.Errorf("run from the bench directory of a checkout (go run -C bench .): %w", err)
		}
	}
	h := &harness{root: root, outDir: filepath.Join(wd, "out")}
	if err := os.MkdirAll(filepath.Join(h.outDir, "bin"), 0o755); err != nil {
		return nil, err
	}
	return h, nil
}

func (h *harness) bin(name string) string { return filepath.Join(h.outDir, "bin", name) }

// build compiles the two shipped binaries from the checkout and the
// reference server from the benchmark's own module. It runs on every start:
// the go build cache makes it cheap and it can never measure a stale binary.
func (h *harness) build(ctx context.Context) error {
	binDir := filepath.Join(h.outDir, "bin") + string(filepath.Separator)
	for _, b := range []struct {
		dir  string
		pkgs []string
	}{
		{h.root, []string{"./cmd/kbqa-server", "./cmd/kbqa-shard"}},
		{filepath.Dir(h.outDir), []string{"./reference"}},
	} {
		cmd := exec.CommandContext(ctx, "go", append([]string{"build", "-o", binDir}, b.pkgs...)...)
		cmd.Dir = b.dir
		if out, err := cmd.CombinedOutput(); err != nil {
			return fmt.Errorf("go build %v: %w\n%s", b.pkgs, err, out)
		}
	}
	return nil
}

// tempDir makes a directory under bench/out that cleanup removes.
func (h *harness) tempDir(prefix string) (string, error) {
	dir, err := os.MkdirTemp(h.outDir, prefix+"-")
	if err != nil {
		return "", err
	}
	h.mu.Lock()
	h.tmpDirs = append(h.tmpDirs, dir)
	h.mu.Unlock()
	return dir, nil
}

// proc is one server subprocess.
type proc struct {
	name    string
	addr    string
	cmd     *exec.Cmd
	log     logCapture
	logPath string // written when the process has exited
	started time.Time
	// done is closed once the process has been reaped; waitErr is its exit
	// status and may be read only after done is closed.
	done    chan struct{}
	waitErr error
}

// start launches a built binary with its output captured and, once it has
// exited, written to bench/out/<name>.log. The child is killed if the
// benchmark dies without running cleanup.
func (h *harness) start(name, binary string, args ...string) (*proc, error) {
	logPath := filepath.Join(h.outDir, name+".log")
	cmd := exec.Command(h.bin(binary), args...)
	cmd.Dir = h.outDir
	p := &proc{name: name, cmd: cmd, logPath: logPath, started: time.Now(), done: make(chan struct{})}
	cmd.Stdout = &p.log
	cmd.Stderr = &p.log
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	h.mu.Lock()
	h.procs = append(h.procs, p)
	h.mu.Unlock()
	go func() {
		p.waitErr = cmd.Wait() // returns once the log pipe has been drained
		if err := os.WriteFile(logPath, p.log.bytes(), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "bench: write log:", err)
		}
		close(p.done)
	}()
	return p, nil
}

// logCapture keeps the head and the tail of a child's output in memory. A
// server access-logs every request; sending that straight to a file makes
// the server wait on the disk in bursts (slices of a window then differ by
// 3x), which is the sandbox's disk and not the server. A pipe into memory
// costs the server the same write call without the wait.
type logCapture struct {
	mu      sync.Mutex
	head    []byte
	tail    []byte // ring, valid once head is full
	at      int    // next write position in tail
	wrapped bool
	dropped int64
}

const logKeep = 256 << 10 // bytes kept at each end

func (l *logCapture) Write(b []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(b)
	if room := logKeep - len(l.head); room > 0 {
		take := min(room, len(b))
		l.head = append(l.head, b[:take]...)
		b = b[take:]
	}
	if l.tail == nil && len(b) > 0 {
		l.tail = make([]byte, logKeep)
	}
	for len(b) > 0 {
		c := copy(l.tail[l.at:], b)
		b = b[c:]
		if l.wrapped {
			l.dropped += int64(c)
		}
		if l.at += c; l.at == len(l.tail) {
			l.at, l.wrapped = 0, true
		}
	}
	return n, nil
}

// bytes returns what was kept, with a marker where output was dropped.
func (l *logCapture) bytes() []byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := append([]byte(nil), l.head...)
	if l.wrapped {
		out = append(out, fmt.Sprintf("\n... %d bytes dropped ...\n", l.dropped)...)
		out = append(out, l.tail[l.at:]...)
	}
	return append(out, l.tail[:l.at]...)
}

// stop ends one process: SIGTERM, then SIGKILL if it has not exited in
// time, and returns only once it has been reaped.
func (p *proc) stop() {
	select {
	case <-p.done:
		return
	default:
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // already gone is fine: done closes
	select {
	case <-p.done:
	case <-time.After(5 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
}

// died formats an early exit with the tail of the process's log.
func (p *proc) died() error {
	lines := strings.Split(strings.TrimSpace(string(p.log.bytes())), "\n")
	if len(lines) > 15 {
		lines = lines[len(lines)-15:]
	}
	return fmt.Errorf("%s exited early (%v); last log lines of %s:\n%s", p.name, p.waitErr, p.logPath, strings.Join(lines, "\n"))
}

// stopAll ends the given processes, all at once so that their shutdown
// grace periods overlap.
func stopAll(procs []*proc) {
	var wg sync.WaitGroup
	for _, p := range procs {
		wg.Add(1)
		go func(p *proc) {
			defer wg.Done()
			p.stop()
		}(p)
	}
	wg.Wait()
}

// cleanup stops every process still running and removes every temporary
// directory.
func (h *harness) cleanup() {
	h.mu.Lock()
	procs, dirs := h.procs, h.tmpDirs
	h.procs, h.tmpDirs = nil, nil
	h.mu.Unlock()
	stopAll(procs)
	for _, d := range dirs {
		if err := os.RemoveAll(d); err != nil {
			fmt.Fprintln(os.Stderr, "bench: remove temporary directory:", err)
		}
	}
}

// freeAddrs picks n loopback addresses no one is listening on.
func freeAddrs(n int) ([]string, error) {
	var listeners []net.Listener
	defer func() {
		for _, l := range listeners {
			l.Close()
		}
	}()
	addrs := make([]string, n)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		listeners = append(listeners, l)
		addrs[i] = l.Addr().String()
	}
	return addrs, nil
}

// waitUntil polls probe until it succeeds, the process dies, or ctx ends.
func (p *proc) waitUntil(ctx context.Context, probe func() bool) error {
	deadline := time.After(60 * time.Second)
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		if probe() {
			return nil
		}
		select {
		case <-p.done:
			return p.died()
		case <-ctx.Done():
			return ctx.Err()
		case <-deadline:
			return fmt.Errorf("%s not ready after 60s (log: %s)", p.name, p.logPath)
		case <-tick.C:
		}
	}
}

// waitHTTPReady waits for GET /readyz to answer 200.
func (p *proc) waitHTTPReady(ctx context.Context) error {
	client := &http.Client{Timeout: time.Second}
	defer client.CloseIdleConnections()
	return p.waitUntil(ctx, func() bool {
		resp, err := client.Get("http://" + p.addr + "/readyz")
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	})
}

// waitListening waits for a TCP accept, the readiness of a kbqa-shard.
func (p *proc) waitListening(ctx context.Context) error {
	return p.waitUntil(ctx, func() bool {
		c, err := net.DialTimeout("tcp", p.addr, time.Second)
		if err != nil {
			return false
		}
		c.Close()
		return true
	})
}

// procUsage is what /proc says a process has used so far.
type procUsage struct {
	cpu        time.Duration // utime + stime
	peakRSS    int64         // VmHWM, bytes
	writeBytes int64         // wchar: bytes passed to write(2) and friends
}

func (p *proc) usage() (u procUsage, err error) {
	dir := filepath.Join("/proc", strconv.Itoa(p.cmd.Process.Pid))
	stat, err := os.ReadFile(filepath.Join(dir, "stat"))
	if err != nil {
		return u, err
	}
	// The fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the line, 12 and 13 after the name and state.
	i := bytes.LastIndexByte(stat, ')')
	fields := strings.Fields(string(stat[i+1:]))
	if i < 0 || len(fields) < 14 {
		return u, errors.New("unreadable " + dir + "/stat")
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return u, errors.New("unreadable " + dir + "/stat")
	}
	u.cpu = time.Duration(utime+stime) * clockTick
	if u.peakRSS, err = procField(filepath.Join(dir, "status"), "VmHWM:"); err != nil {
		return u, err
	}
	u.peakRSS *= 1024 // reported in kB
	if u.writeBytes, err = procField(filepath.Join(dir, "io"), "wchar:"); err != nil {
		return u, err
	}
	return u, nil
}

// procField reads the integer after key in a "key: value" proc file.
func procField(path, key string) (int64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, key); ok {
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				break
			}
			return strconv.ParseInt(fields[0], 10, 64)
		}
	}
	return 0, fmt.Errorf("%s: no %s field", path, key)
}
