package shardrpc

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/rdf"
	"repro/internal/safeio"
)

// PoolOptions configures a client Pool.
type PoolOptions struct {
	// Servers lists the index servers, each serving the whole world: at
	// least one, each address non-empty and named once. Required.
	Servers []string
	// Digest is the local world's identity (snapshot.Digest of the local
	// store); every handshake asserts it. Required.
	Digest uint64

	// hedgeAfter, when > 0, pins the hedge delay and disableHedge turns
	// hedging off (failover on error still applies); tests set them for
	// deterministic routing. In production the pool
	// adapts: it hedges after the observed p95 call latency, clamped to
	// [1ms, 250ms] (25ms until enough samples accumulate). Hedging sends
	// the same request to the next server and takes the first answer.
	hedgeAfter   time.Duration
	disableHedge bool
}

const (
	// dialTimeout bounds connection establishment and the handshake.
	dialTimeout = 5 * time.Second
	// callTimeout bounds a call whose context carries no deadline;
	// contexts with deadlines always win.
	callTimeout = 30 * time.Second
	// backoffBase and backoffMax bound the per-server down-marking backoff
	// after failures. A down server is deprioritized, not excluded: it is
	// retried when every server is down, and recovers on first success.
	backoffBase = 100 * time.Millisecond
	backoffMax  = 5 * time.Second
)

// PoolStats counts the pool's lifetime routing decisions.
type PoolStats struct {
	Calls     uint64 `json:"calls"`
	Hedges    uint64 `json:"hedges"`
	Failovers uint64 `json:"failovers"`
	Errors    uint64 `json:"errors"`
}

// Pool is the client of the index servers: it owns one connection pool per
// server, starts each call at the next server in turn, hedges slow calls,
// and fails over across servers. Safe for concurrent use.
type Pool struct {
	opts PoolOptions
	turn atomic.Uint64 // calls so far: call k starts at server k mod len(Servers)

	mu    sync.Mutex
	hosts map[string]*host

	lat latencyWindow

	calls     atomic.Uint64
	hedges    atomic.Uint64
	failovers atomic.Uint64
	errcount  atomic.Uint64
	closed    atomic.Bool
}

// host is the per-server connection pool plus failure state.
type host struct {
	addr string

	mu        sync.Mutex
	free      []*conn
	closed    bool // the pool is closed: a released connection is closed, not kept
	fails     int
	downUntil time.Time
}

// conn is a pooled connection and the reply frame being read off it, which
// an attempt's own goroutine resumes when the hedge deadline cuts the first
// read short.
type conn struct {
	net.Conn
	fr safeio.FrameReader
}

// expire fails the connection's pending and future I/O at once.
func (c *conn) expire() { c.SetDeadline(time.Unix(1, 0)) }

// ErrServerList is wrapped by NewPool's error for a server list that is
// empty or names an address empty or twice: a repeated address would make
// two servers one host, and hedge back to the same server.
var ErrServerList = errors.New("shardrpc: bad server list")

// NewPool builds a pool over o.Servers. Connections are dialed lazily.
func NewPool(o PoolOptions) (*Pool, error) {
	if len(o.Servers) == 0 {
		return nil, fmt.Errorf("%w: a pool needs at least one server", ErrServerList)
	}
	if sorted := slices.Sorted(slices.Values(o.Servers)); sorted[0] == "" || len(slices.Compact(sorted)) < len(o.Servers) {
		return nil, fmt.Errorf("%w: %q names an address empty or twice", ErrServerList, o.Servers)
	}
	o.Servers = slices.Clone(o.Servers)
	return &Pool{opts: o, hosts: make(map[string]*host)}, nil
}

// Stats snapshots the pool's counters.
func (p *Pool) Stats() PoolStats {
	return PoolStats{
		Calls:     p.calls.Load(),
		Hedges:    p.hedges.Load(),
		Failovers: p.failovers.Load(),
		Errors:    p.errcount.Load(),
	}
}

// Close tears down every pooled connection. In-flight calls fail; the pool
// is unusable afterwards.
func (p *Pool) Close() {
	p.closed.Store(true)
	p.mu.Lock()
	hosts := make([]*host, 0, len(p.hosts))
	for _, h := range p.hosts {
		hosts = append(hosts, h)
	}
	p.mu.Unlock()
	for _, h := range hosts {
		h.mu.Lock()
		free := h.free
		h.free = nil
		h.closed = true
		h.mu.Unlock()
		for _, c := range free {
			c.Close()
		}
	}
}

func (p *Pool) host(addr string) *host {
	p.mu.Lock()
	defer p.mu.Unlock()
	h, ok := p.hosts[addr]
	if !ok {
		h = &host{addr: addr, closed: p.closed.Load()}
		p.hosts[addr] = h
	}
	return h
}

// take pops a pooled connection, or returns nil when the host has none.
func (h *host) take() *conn {
	h.mu.Lock()
	defer h.mu.Unlock()
	if n := len(h.free); n > 0 {
		c := h.free[n-1]
		h.free = h.free[:n-1]
		return c
	}
	return nil
}

// release returns a healthy connection to the pool, or closes it once the
// pool is closed, and clears the host's failure state.
func (h *host) release(c *conn) {
	h.mu.Lock()
	closed := h.closed
	if !closed {
		h.free = append(h.free, c)
	}
	h.fails = 0
	h.downUntil = time.Time{}
	h.mu.Unlock()
	if closed {
		c.Close()
	}
}

// markDown records a failure and backs the host off exponentially.
func (h *host) markDown() {
	h.mu.Lock()
	h.fails++
	d := backoffBase << uint(h.fails-1)
	if d > backoffMax || d <= 0 {
		d = backoffMax
	}
	h.downUntil = time.Now().Add(d)
	h.mu.Unlock()
}

// down reports whether the host is inside its backoff window.
func (h *host) down() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return time.Now().Before(h.downUntil)
}

// dial opens and handshakes a fresh connection to addr. The handshake runs
// before the connection is registered with the call's inflight set, so its
// I/O deadline is the only thing that ends it against a server that accepts
// and then stalls: the earlier of dialTimeout and the caller's deadline,
// expired at once if ctx is cancelled first.
func (p *Pool) dial(ctx context.Context, addr string) (net.Conn, error) {
	d := net.Dialer{Timeout: dialTimeout}
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	limit := time.Now().Add(dialTimeout)
	if t, ok := ctx.Deadline(); ok && t.Before(limit) {
		limit = t
	}
	conn.SetDeadline(limit)
	stop := context.AfterFunc(ctx, func() { conn.SetDeadline(time.Unix(1, 0)) })
	defer stop()
	he := hello{version: ProtoVersion, digest: p.opts.Digest}
	if err := safeio.WriteFrame(conn, he.encode()); err != nil {
		conn.Close()
		return nil, err
	}
	payload, err := safeio.ReadFrame(conn)
	if err != nil {
		conn.Close()
		return nil, err
	}
	// The reply is a status byte, the server's hello and a reject message.
	if len(payload) < 1+helloLen {
		conn.Close()
		return nil, fmt.Errorf("shardrpc: short handshake reply from %s", addr)
	}
	if _, err := decodeHello(payload[1 : 1+helloLen]); err != nil {
		conn.Close()
		return nil, err
	}
	r := &rbuf{b: payload, off: 1 + helloLen}
	reject := r.str()
	if r.err != nil {
		conn.Close()
		return nil, r.err
	}
	if payload[0] != statusOK {
		conn.Close()
		return nil, fmt.Errorf("shardrpc: server %s rejected handshake: %s", addr, reject)
	}
	if !stop() { // cancelled as the handshake finished: the deadline may be expired
		conn.Close()
		return nil, ctx.Err()
	}
	conn.SetDeadline(time.Time{})
	return conn, nil
}

// latencyWindow is a small ring of recent successful call durations used
// to derive the adaptive hedge delay. The percentile moves slowly and every
// call reads it, so it is re-derived on every eighth sample, not per call.
type latencyWindow struct {
	mu   sync.Mutex
	ring [64]time.Duration
	n    int           // total recorded
	q95  time.Duration // 95th percentile of the ring as of the last refresh
}

func (l *latencyWindow) record(d time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ring[l.n%len(l.ring)] = d
	l.n++
	if l.n%8 != 0 {
		return
	}
	samples := l.ring
	n := min(l.n, len(samples))
	slices.Sort(samples[:n])
	l.q95 = samples[(n*95+99)/100-1]
}

// p95 returns the 95th-percentile recorded latency and whether enough
// samples exist to trust it.
func (l *latencyWindow) p95() (time.Duration, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.q95, l.n >= 8
}

// hedgeDelay resolves the current hedge delay.
func (p *Pool) hedgeDelay() time.Duration {
	if p.opts.hedgeAfter > 0 {
		return p.opts.hedgeAfter
	}
	q, ok := p.lat.p95()
	if !ok {
		return 25 * time.Millisecond
	}
	if q < time.Millisecond {
		return time.Millisecond
	}
	if q > 250*time.Millisecond {
		return 250 * time.Millisecond
	}
	return q
}

// attemptOut is one attempt's outcome.
type attemptOut struct {
	addr    string
	payload []byte
	err     error
}

// inflight tracks the live connections of one call's attempts so the
// winner (or a cancelled caller) can abort the losers by expiring their
// I/O deadlines; aborted attempts discard their connections without
// marking the host down.
type inflight struct {
	mu      sync.Mutex
	conns   []*conn
	aborted bool
}

func (f *inflight) add(c *conn) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.aborted {
		f.conns = append(f.conns, c)
	}
	return !f.aborted
}

func (f *inflight) remove(c *conn) {
	f.mu.Lock()
	if i := slices.Index(f.conns, c); i >= 0 {
		f.conns = slices.Delete(f.conns, i, i+1)
	}
	f.mu.Unlock()
}

// abort expires every live attempt's deadline; their reads fail promptly
// and the goroutines drain into the buffered result channel.
func (f *inflight) abort() {
	f.mu.Lock()
	f.aborted = true
	conns := f.conns
	f.conns = nil // later removes must not shift the slice read below
	f.mu.Unlock()
	for _, c := range conns {
		c.expire()
	}
}

func (f *inflight) wasAborted() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.aborted
}

// attempt is one request to one server: the connection it holds, how much
// of the request frame it has written there, and its rpc.attempt span.
type attempt struct {
	addr     string
	req      []byte // the whole request frame
	deadline time.Time
	span     *obs.Span
	start    time.Time
	c        *conn
	sent     int  // bytes of req written on c
	pooled   bool // c came from the pool; once it fails, the next is dialed
}

func newAttempt(ctx context.Context, addr string, req []byte, deadline time.Time) attempt {
	a := attempt{addr: addr, req: req, deadline: deadline, start: time.Now()}
	if parent := obs.ActiveSpan(ctx); parent != nil {
		a.span = parent.Child("rpc.attempt")
		a.span.SetAttr("server", addr)
	}
	return a
}

// end closes the attempt's span with its outcome and returns err.
func (a *attempt) end(err error) error {
	if err != nil {
		a.span.SetAttr("error", err.Error())
	}
	a.span.End()
	return err
}

// errResume reports that an attempt's leg on the caller's goroutine stopped
// short — at the hedge deadline, or on a pooled connection that failed —
// and its own goroutine must go on with it.
var errResume = errors.New("shardrpc: attempt resumes on its own goroutine")

// run drives a until its reply arrives or it fails, with until as the read
// deadline. On the caller's goroutine (fl nil) until is the hedge deadline
// and ctx's cancellation expires the read; a read that until cuts short
// leaves a.c open and mid-frame and returns errResume, and so does a failed
// pooled connection, with a.c nil. a's own goroutine then resumes it with
// run(ctx, a, a.deadline, fl), where fl is the call's in-flight set and a
// pooled connection that fails is retried once on a fresh dial — it may
// simply have gone stale between calls.
func (p *Pool) run(ctx context.Context, a *attempt, until time.Time, fl *inflight) ([]byte, error) {
	h := p.host(a.addr)
	for {
		if a.c == nil {
			if !a.pooled {
				a.c = h.take()
			}
			a.pooled, a.sent = a.c != nil, 0
			if a.c == nil {
				nc, err := p.dial(ctx, a.addr)
				if err != nil {
					h.markDown()
					return nil, a.end(err)
				}
				a.c = &conn{Conn: nc}
			}
		}
		c := a.c
		c.SetDeadline(until)
		stop := func() bool { return true }
		if fl == nil && ctx.Done() != nil {
			stop = context.AfterFunc(ctx, c.expire)
		} else if fl != nil && !fl.add(c) {
			a.c = nil
			c.Close()
			return nil, a.end(errors.New("shardrpc: call already decided"))
		}
		payload, err := a.roundTrip()
		if fl != nil {
			fl.remove(c)
		}
		if !stop() { // cancelled: the deadline may be expired under a reply
			a.c = nil
			c.Close()
			return nil, a.end(ctx.Err())
		}
		if err == nil {
			c.SetDeadline(time.Time{})
			a.c = nil
			h.release(c)
			p.lat.record(time.Since(a.start))
			return payload, a.end(nil)
		}
		if fl == nil && errors.Is(err, os.ErrDeadlineExceeded) {
			return nil, errResume
		}
		a.c = nil
		c.Close()
		aborted := fl != nil && fl.wasAborted()
		if a.pooled && !aborted {
			if fl == nil {
				return nil, errResume
			}
			continue
		}
		if !a.pooled && !aborted {
			h.markDown()
		}
		return nil, a.end(err)
	}
}

// roundTrip writes what is left of the request on a.c and reads on into
// the reply frame.
func (a *attempt) roundTrip() ([]byte, error) {
	for a.sent < len(a.req) {
		n, err := a.c.Write(a.req[a.sent:])
		a.sent += n
		if err != nil {
			return nil, err
		}
	}
	return a.c.fr.Read(a.c)
}

// call performs one request — a frame of probes probes whose body the
// caller appended to newRequest's buffer — with hedging and failover,
// returning the response body positioned after the status and server time.
// Each call takes the next server of the list in turn; the first attempt
// goes to the first up server from there, on the caller's goroutine over a
// pooled connection, reading until the hedge deadline; only a call that
// outlives it, or finds no pooled connection, starts goroutines.
func (p *Pool) call(ctx context.Context, op byte, probes int, req *wbuf) (*rbuf, error) {
	if p.closed.Load() {
		return nil, errors.New("shardrpc: pool is closed")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	p.calls.Add(1)
	ctx, sp := obs.StartSpan(ctx, "rpc.call")
	sp.SetInt("op", int64(op))
	sp.SetInt("probes", int64(probes))
	defer sp.End()
	now := time.Now()
	deadline := now.Add(callTimeout)
	if t, ok := ctx.Deadline(); ok {
		deadline = t
	}
	putReqHeader(req.b[safeio.FrameHeaderLen:], op, deadline.UnixNano(), obs.TraceID(ctx))
	safeio.SealFrame(req.b)

	// Attempt order: the server list from this call's turn on, up hosts
	// before backed-off ones so failover lands on a healthy server first;
	// a fully-down list is still tried (the backoff deprioritizes, it
	// never blackholes).
	servers := p.opts.Servers
	turn := int((p.turn.Add(1) - 1) % uint64(len(servers)))
	first := turn
	for i := range servers {
		if k := (turn + i) % len(servers); !p.host(servers[k]).down() {
			first = k
			break
		}
	}
	hedgeBy := deadline
	if !p.opts.disableHedge && len(servers) > 1 {
		if by := now.Add(p.hedgeDelay()); by.Before(deadline) {
			hedgeBy = by
		}
	}
	a := newAttempt(ctx, servers[first], req.b, deadline)
	if c := p.host(a.addr).take(); c != nil {
		a.c, a.pooled = c, true
		payload, err := p.run(ctx, &a, hedgeBy, nil)
		switch {
		case err == nil:
			return p.finish(sp, op, a.addr, payload)
		case err != errResume:
			return nil, err
		case ctx.Err() != nil:
			if a.c != nil {
				a.c.Close()
			}
			return nil, a.end(ctx.Err())
		}
	}
	order := make([]string, 0, len(servers)-1)
	var downed []string
	for i := range servers {
		switch k := (turn + i) % len(servers); {
		case k == first:
		case p.host(servers[k]).down():
			downed = append(downed, servers[k])
		default:
			order = append(order, servers[k])
		}
	}
	return p.hedged(ctx, sp, op, a, append(order, downed...), hedgeBy)
}

// hedged finishes a call whose first attempt, a, did not finish on the
// caller's goroutine: a goes on on its own goroutine, the next server of
// order is hedged at hedgeBy (at once when it has passed), a failed attempt
// fails over to the next, and the first reply wins and aborts the rest.
func (p *Pool) hedged(ctx context.Context, sp *obs.Span, op byte, a attempt, order []string, hedgeBy time.Time) (*rbuf, error) {
	req, deadline := a.req, a.deadline
	results := make(chan attemptOut, 1+len(order)) // buffered: losers never block
	fl := &inflight{}
	launch := func(a *attempt) {
		go func() {
			payload, err := p.run(ctx, a, deadline, fl)
			results <- attemptOut{addr: a.addr, payload: payload, err: err}
		}()
	}
	next := 0
	launchNext := func() {
		b := newAttempt(ctx, order[next], req, deadline)
		next++
		launch(&b)
	}
	launch(&a)
	outstanding := 1

	var hedgeCh <-chan time.Time
	if hedgeBy.Before(deadline) && next < len(order) {
		hedgeTimer := time.NewTimer(time.Until(hedgeBy))
		hedgeCh = hedgeTimer.C
		defer hedgeTimer.Stop()
	}
	var firstErr error
	for {
		select {
		case out := <-results:
			outstanding--
			if out.err == nil {
				fl.abort() // expire the losers; they drain into the buffered channel
				return p.finish(sp, op, out.addr, out.payload)
			}
			if firstErr == nil {
				firstErr = fmt.Errorf("shardrpc: server %s: %w", out.addr, out.err)
			}
			p.errcount.Add(1)
			if next < len(order) {
				p.failovers.Add(1)
				launchNext()
				outstanding++
			} else if outstanding == 0 {
				return nil, firstErr
			}
		case <-hedgeCh:
			hedgeCh = nil
			if next < len(order) {
				p.hedges.Add(1)
				sp.SetAttr("hedged", "true")
				launchNext()
				outstanding++
			}
		case <-ctx.Done():
			fl.abort()
			return nil, ctx.Err()
		}
	}
}

// finish parses a winning response to an op frame: record the server's
// time as the shard.serve span under sp, then surface either the
// application error or the body.
func (p *Pool) finish(sp *obs.Span, op byte, addr string, payload []byte) (*rbuf, error) {
	r := &rbuf{b: payload}
	status, served := r.u8(), r.u64()
	if r.err != nil {
		return nil, r.err
	}
	sp.StageInt("shard.serve", time.Duration(served), "op", int64(op))
	if status != statusOK {
		msg := r.str()
		if r.err != nil {
			return nil, r.err
		}
		p.errcount.Add(1)
		return nil, fmt.Errorf("shardrpc: server %s: %s", addr, msg)
	}
	return r, nil
}

// Probe sends probes to one server in one frame and returns, per probe,
// the objects at the end of its path, sorted and deduplicated. Every probe
// must have a path; the server refuses the frame otherwise. Hedging,
// failover and the deadline apply to the frame as a whole, and a failed
// frame yields no sets at all.
func (p *Pool) Probe(ctx context.Context, probes []rdf.Probe) ([][]rdf.ID, error) {
	req := newRequest(ctx)
	encodeProbeRequest(req, probes)
	r, err := p.call(ctx, opProbe, len(probes), req)
	if err != nil {
		return nil, err
	}
	return decodeProbeReply(r, len(probes))
}

// Subjects returns the subjects with (s, pred, obj), ascending, read from
// one server in one frame.
func (p *Pool) Subjects(ctx context.Context, pred rdf.PID, obj rdf.ID) ([]rdf.ID, error) {
	req := newRequest(ctx)
	req.u32(uint32(pred))
	req.u32(uint32(obj))
	r, err := p.call(ctx, opSubjects, 0, req)
	if err != nil {
		return nil, err
	}
	out := r.ids()
	return out, r.err
}
