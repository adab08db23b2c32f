package shardrpc

import (
	"context"
	"errors"
	"fmt"
	"net"
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
	// Placement routes shards to servers; required.
	Placement *Placement
	// Fingerprint is the local world's identity (rdf.WorldFingerprint over
	// the local graph); every handshake asserts it. Required.
	Fingerprint uint64
	// Logger receives structured failover/hedge events; nil discards.
	Logger *obs.Logger

	// hedgeAfter, when > 0, pins the hedge delay and disableHedge turns
	// hedging off (failover on error still applies); tests set them for
	// deterministic routing. In production the pool
	// adapts: it hedges after the observed p95 call latency, clamped to
	// [1ms, 250ms] (25ms until enough samples accumulate). Hedging sends
	// the same request to the next replica and takes the first answer.
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
	// retried when every replica of a shard is down, and recovers on first
	// success.
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

// Pool is the scatter/gather client: it owns one connection pool per
// server, routes per-shard calls by the placement, hedges slow calls, and
// fails over across replicas. Safe for concurrent use.
type Pool struct {
	pl   *Placement
	opts PoolOptions

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
	free      []net.Conn
	fails     int
	downUntil time.Time
}

// NewPool builds a pool over the placement. Connections are dialed lazily.
func NewPool(o PoolOptions) (*Pool, error) {
	if o.Placement == nil {
		return nil, errors.New("shardrpc: pool needs a placement")
	}
	return &Pool{pl: o.Placement, opts: o, hosts: make(map[string]*host)}, nil
}

// NumShards returns the shard count of the pool's placement.
func (p *Pool) NumShards() int { return p.pl.NumShards() }

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
		h = &host{addr: addr}
		p.hosts[addr] = h
	}
	return h
}

// take pops a pooled connection, or returns nil when the host has none.
func (h *host) take() net.Conn {
	h.mu.Lock()
	defer h.mu.Unlock()
	if n := len(h.free); n > 0 {
		c := h.free[n-1]
		h.free = h.free[:n-1]
		return c
	}
	return nil
}

// release returns a healthy connection to the pool and clears the host's
// failure state.
func (h *host) release(c net.Conn) {
	h.mu.Lock()
	h.free = append(h.free, c)
	h.fails = 0
	h.downUntil = time.Time{}
	h.mu.Unlock()
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
	he := hello{version: ProtoVersion, fingerprint: p.opts.Fingerprint, numShards: uint32(p.pl.NumShards())}
	if err := safeio.WriteFrame(conn, he.encode()); err != nil {
		conn.Close()
		return nil, err
	}
	payload, err := safeio.ReadFrame(conn)
	if err != nil {
		conn.Close()
		return nil, err
	}
	r := &rbuf{b: payload}
	status := r.u8()
	if len(r.b) < r.off+len(protoMagic)+16 {
		conn.Close()
		return nil, fmt.Errorf("shardrpc: short handshake reply from %s", addr)
	}
	if _, err := decodeHello(r.b[r.off:]); err != nil {
		conn.Close()
		return nil, err
	}
	r.off += len(protoMagic) + 16
	reject := r.str()
	if r.err != nil {
		conn.Close()
		return nil, r.err
	}
	if status != statusOK {
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

// attemptOut is one replica attempt's outcome.
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
	conns   map[net.Conn]bool
	aborted bool
}

func (f *inflight) add(c net.Conn) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.aborted {
		return false
	}
	if f.conns == nil {
		f.conns = make(map[net.Conn]bool)
	}
	f.conns[c] = true
	return true
}

func (f *inflight) remove(c net.Conn) {
	f.mu.Lock()
	delete(f.conns, c)
	f.mu.Unlock()
}

// abort expires every live attempt's deadline; their reads fail promptly
// and the goroutines drain into the buffered result channel.
func (f *inflight) abort() {
	f.mu.Lock()
	f.aborted = true
	conns := make([]net.Conn, 0, len(f.conns))
	for c := range f.conns {
		conns = append(conns, c)
	}
	f.mu.Unlock()
	past := time.Now().Add(-time.Second)
	for _, c := range conns {
		c.SetDeadline(past)
	}
}

func (f *inflight) wasAborted() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.aborted
}

// call performs one per-shard request — a frame of groups lookups — with
// hedging and replica failover, returning the response body positioned
// after the status/span envelope.
func (p *Pool) call(ctx context.Context, shard int, op byte, groups int, body *wbuf) (*rbuf, error) {
	if p.closed.Load() {
		return nil, errors.New("shardrpc: pool is closed")
	}
	p.calls.Add(1)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ctx, sp := obs.StartSpan(ctx, "rpc.call")
	sp.SetInt("op", int64(op))
	sp.SetInt("shard", int64(shard))
	sp.SetInt("groups", int64(groups))
	defer sp.End()
	deadline := time.Now().Add(callTimeout).UnixNano()
	if t, ok := ctx.Deadline(); ok {
		deadline = t.UnixNano()
	}
	req := reqHeader{op: op, shard: uint32(shard), deadline: deadline, traceID: obs.TraceID(ctx)}.encode(body)

	// Attempt order: the shard's replicas in preference order, up hosts
	// before backed-off ones so failover lands on a healthy replica
	// first; a fully-down replica set is still tried (the backoff
	// deprioritizes, it never blackholes).
	replicas := p.pl.Replicas(shard)
	order := make([]string, 0, len(replicas))
	var downed []string
	for _, addr := range replicas {
		if p.host(addr).down() {
			downed = append(downed, addr)
		} else {
			order = append(order, addr)
		}
	}
	order = append(order, downed...)

	results := make(chan attemptOut, len(order)) // buffered: losers never block
	fl := &inflight{}
	next := 0
	launch := func() {
		addr := order[next]
		next++
		go p.attempt(ctx, fl, addr, shard, op, req, time.Unix(0, deadline), results)
	}
	launch()
	outstanding := 1

	var hedgeCh <-chan time.Time
	var hedgeTimer *time.Timer
	if !p.opts.disableHedge && next < len(order) {
		hedgeTimer = time.NewTimer(p.hedgeDelay())
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
				return p.finish(sp, out)
			}
			if firstErr == nil {
				firstErr = fmt.Errorf("shardrpc: shard %d via %s: %w", shard, out.addr, out.err)
			}
			p.errcount.Add(1)
			p.opts.Logger.Warn("shard call failed",
				obs.F("shard", shard),
				obs.F("server", out.addr),
				obs.F("error", out.err.Error()))
			if next < len(order) {
				p.failovers.Add(1)
				launch()
				outstanding++
			} else if outstanding == 0 {
				return nil, firstErr
			}
		case <-hedgeCh:
			hedgeCh = nil
			if next < len(order) {
				p.hedges.Add(1)
				sp.SetAttr("hedged", "true")
				launch()
				outstanding++
			}
		case <-ctx.Done():
			fl.abort()
			return nil, ctx.Err()
		}
	}
}

// finish parses a winning response: graft the server's span subtree, then
// surface either the application error or the body.
func (p *Pool) finish(sp *obs.Span, out attemptOut) (*rbuf, error) {
	r := &rbuf{b: out.payload}
	status := r.u8()
	if spanJSON := r.bytes(); len(spanJSON) > 0 {
		sp.AttachRemote(spanJSON)
	}
	if status != statusOK {
		msg := r.str()
		if r.err != nil {
			return nil, r.err
		}
		p.errcount.Add(1)
		return nil, fmt.Errorf("shardrpc: server %s: %s", out.addr, msg)
	}
	if r.err != nil {
		return nil, r.err
	}
	return r, nil
}

// attempt runs one request against one replica and reports into results
// (buffered by the caller, so this goroutine never blocks on send). A
// pooled connection that fails is retried once on a fresh dial — it may
// simply have gone stale between calls.
func (p *Pool) attempt(ctx context.Context, fl *inflight, addr string, shard int, op byte, req []byte, deadline time.Time, results chan<- attemptOut) {
	var asp *obs.Span
	if parent := obs.ActiveSpan(ctx); parent != nil {
		asp = parent.Child("rpc.attempt")
		asp.SetAttr("server", addr)
		defer asp.End()
	}
	start := time.Now()
	payload, usedPooled, err := p.attemptOnce(ctx, fl, addr, req, deadline, true)
	if err != nil && usedPooled && !fl.wasAborted() {
		payload, _, err = p.attemptOnce(ctx, fl, addr, req, deadline, false)
	}
	if err == nil {
		p.lat.record(time.Since(start))
	} else {
		asp.SetAttr("error", err.Error())
	}
	results <- attemptOut{addr: addr, payload: payload, err: err}
}

// attemptOnce performs one write/read round trip. usePool selects whether
// a pooled connection may be reused; usedPooled reports whether one was
// (its failure is retryable on a fresh dial — it may simply have gone
// stale between calls).
func (p *Pool) attemptOnce(ctx context.Context, fl *inflight, addr string, req []byte, deadline time.Time, usePool bool) (payload []byte, usedPooled bool, err error) {
	h := p.host(addr)
	var conn net.Conn
	if usePool {
		conn = h.take()
	}
	usedPooled = conn != nil
	if conn == nil {
		conn, err = p.dial(ctx, addr)
		if err != nil {
			h.markDown()
			return nil, false, err
		}
	}
	if !fl.add(conn) {
		conn.Close()
		return nil, usedPooled, errors.New("shardrpc: call already decided")
	}
	conn.SetDeadline(deadline)
	err = safeio.WriteFrame(conn, req)
	if err == nil {
		payload, err = safeio.ReadFrame(conn)
	}
	fl.remove(conn)
	if err != nil {
		conn.Close()
		if !fl.wasAborted() && !usedPooled {
			h.markDown()
		}
		return nil, usedPooled, err
	}
	conn.SetDeadline(time.Time{})
	h.release(conn)
	return payload, usedPooled, nil
}

// Probe sends one multi-group frame to shard and returns, per group, the
// sorted, deduplicated union of Objects(n, Pred) over its nodes. Every node
// must hash to shard; the server refuses the frame otherwise. Hedging,
// failover and the deadline apply to the frame as a whole, and a failed
// frame yields no groups at all.
func (p *Pool) Probe(ctx context.Context, shard int, groups []ProbeGroup) ([][]rdf.ID, error) {
	r, err := p.call(ctx, shard, opProbe, len(groups), encodeProbeRequest(groups))
	if err != nil {
		return nil, err
	}
	return decodeProbeReply(r, len(groups))
}

// ShardSubjects returns shard's subjects with (s, pred, obj) in
// shard-local insertion order.
func (p *Pool) ShardSubjects(ctx context.Context, shard int, pred rdf.PID, obj rdf.ID) ([]rdf.ID, error) {
	var body wbuf
	body.u32(uint32(pred))
	body.u32(uint32(obj))
	r, err := p.call(ctx, shard, opSubjects, 1, &body)
	if err != nil {
		return nil, err
	}
	out := r.ids()
	return out, r.err
}
