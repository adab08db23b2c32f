package shardrpc

import (
	"context"
	"encoding/json"
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

// ServerOptions configures a shard server.
type ServerOptions struct {
	// Owns lists the shard indexes this server answers for; nil or empty
	// serves every shard (the server always loads the full world — the
	// subset is a routing contract with the placement, not a storage
	// split).
	Owns []int
	// Logger receives structured serve/close events; nil discards.
	Logger *obs.Logger
}

// Server answers shardrpc requests over an rdf.Sharded world. Start it with
// Serve; stop it with Close (or by cancelling Serve's context). Safe for
// concurrent connections: the store is read-only at serve time.
type Server struct {
	store rdf.Sharded
	fp    uint64
	owns  map[int]bool // nil = all shards
	log   *obs.Logger

	mu     sync.Mutex
	lis    net.Listener
	conns  map[net.Conn]bool
	closed bool
	// handlers counts live handleConn goroutines; Close waits on it so
	// the store (possibly a memory-mapped image) cannot be torn down
	// while a request is still executing against it.
	handlers sync.WaitGroup

	requests atomic.Uint64
	failures atomic.Uint64
}

// NewServer builds a server over store. The store must be fully loaded;
// writes after NewServer race with request handling.
func NewServer(store rdf.Sharded, o ServerOptions) *Server {
	s := &Server{
		store: store,
		fp:    rdf.WorldFingerprint(store),
		log:   o.Logger,
		conns: make(map[net.Conn]bool),
	}
	if len(o.Owns) > 0 {
		s.owns = make(map[int]bool, len(o.Owns))
		for _, i := range o.Owns {
			s.owns[i] = true
		}
	}
	return s
}

// ServerStats is a snapshot of a server's identity and counters.
type ServerStats struct {
	NumShards int
	Owned     []int
	Triples   int
	Requests  uint64
	Failures  uint64
}

// Stats snapshots the server's counters.
func (s *Server) Stats() ServerStats {
	st := ServerStats{
		NumShards: s.store.NumShards(),
		Triples:   s.store.NumTriples(),
		Requests:  s.requests.Load(),
		Failures:  s.failures.Load(),
	}
	for i := 0; i < s.store.NumShards(); i++ {
		if s.ownsShard(i) {
			st.Owned = append(st.Owned, i)
		}
	}
	return st
}

func (s *Server) ownsShard(i int) bool {
	return s.owns == nil || s.owns[i]
}

// Serve accepts connections on lis until Close is called or ctx is
// cancelled. It blocks; run it in a goroutine. The listener is owned by
// the server once passed in (Close closes it).
func (s *Server) Serve(ctx context.Context, lis net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		lis.Close()
		return errors.New("shardrpc: server closed")
	}
	s.lis = lis
	s.mu.Unlock()
	stop := context.AfterFunc(ctx, func() { s.Close() })
	defer stop()
	s.log.Info("shard server listening",
		obs.F("addr", lis.Addr().String()),
		obs.F("shards", s.store.NumShards()))
	for {
		conn, err := lis.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = true
		// Add under s.mu: once Close flips s.closed no new handler can
		// register, so its Wait sees every goroutine ever spawned.
		s.handlers.Add(1)
		s.mu.Unlock()
		go s.handleConn(conn)
	}
}

// Close stops the listener and all open connections, then waits for
// every in-flight handler to return — after Close, nothing touches the
// store, so the caller may unmap or free it. Idempotent; later calls
// also wait, so every returning Close carries the same guarantee.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.handlers.Wait()
		return
	}
	s.closed = true
	lis := s.lis
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if lis != nil {
		lis.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	// Closed conns fail the handlers' blocking reads/writes, so this
	// converges quickly; waiting outside s.mu keeps dropConn live.
	s.handlers.Wait()
}

func (s *Server) dropConn(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	conn.Close()
}

// handleConn runs the handshake then the request loop for one connection.
func (s *Server) handleConn(conn net.Conn) {
	defer s.handlers.Done()
	defer s.dropConn(conn)
	if err := s.handshake(conn); err != nil {
		s.failures.Add(1)
		s.log.Warn("handshake rejected",
			obs.F("peer", conn.RemoteAddr().String()),
			obs.F("error", err.Error()))
		return
	}
	for {
		payload, err := safeio.ReadFrame(conn)
		if err != nil {
			return // peer closed or conn broke; either way the conn is done
		}
		if err := s.handleRequest(conn, payload); err != nil {
			return
		}
	}
}

// handshake validates the client hello and acknowledges (or rejects with a
// message the client can surface).
func (s *Server) handshake(conn net.Conn) error {
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	defer conn.SetDeadline(time.Time{})
	payload, err := safeio.ReadFrame(conn)
	if err != nil {
		return err
	}
	h, err := decodeHello(payload)
	if err != nil {
		return err
	}
	var reject string
	switch {
	case h.version != ProtoVersion:
		reject = fmt.Sprintf("protocol version %d, want %d", h.version, ProtoVersion)
	case h.numShards != uint32(s.store.NumShards()):
		reject = fmt.Sprintf("shard count %d, want %d", h.numShards, s.store.NumShards())
	case h.fingerprint != s.fp:
		reject = fmt.Sprintf("kb fingerprint %016x, want %016x (different worlds)", h.fingerprint, s.fp)
	}
	var w wbuf
	if reject == "" {
		w.u8(statusOK)
	} else {
		w.u8(statusErr)
	}
	w.b = append(w.b, hello{version: ProtoVersion, fingerprint: s.fp, numShards: uint32(s.store.NumShards())}.encode()...)
	w.str(reject)
	if err := safeio.WriteFrame(conn, w.b); err != nil {
		return err
	}
	if reject != "" {
		return errors.New(reject)
	}
	return nil
}

// handleRequest decodes one request frame, executes it, and writes the
// response. A returned error means the connection is unusable.
func (s *Server) handleRequest(conn net.Conn, payload []byte) error {
	s.requests.Add(1)
	r := &rbuf{b: payload}
	hdr := decodeReqHeader(r)
	if r.err != nil {
		s.failures.Add(1)
		return r.err // framing is intact but header garbage: protocol bug, drop conn
	}
	var sp *obs.Span
	if hdr.traceID != "" {
		sp = obs.NewRemoteRoot(hdr.traceID, "shard.serve")
		sp.SetInt("op", int64(hdr.op))
		sp.SetInt("shard", int64(hdr.shard))
	}
	var body wbuf
	errmsg := s.execute(hdr, r, &body)
	if errmsg != "" {
		s.failures.Add(1)
	}
	sp.End()
	var spanJSON []byte
	if sp != nil {
		//kbqa:nolint errsink — a span snapshot of strings and ints cannot fail to marshal; the reply must not
		spanJSON, _ = json.Marshal(sp.Snapshot())
	}
	if hdr.deadline != 0 {
		// Bound the response write by the caller's deadline so an
		// abandoned request cannot wedge the handler goroutine.
		conn.SetWriteDeadline(time.Unix(0, hdr.deadline))
		defer conn.SetWriteDeadline(time.Time{})
	}
	var w wbuf
	if errmsg == "" {
		w.u8(statusOK)
	} else {
		w.u8(statusErr)
	}
	w.bytes(spanJSON)
	if errmsg != "" {
		w.str(errmsg)
	} else {
		w.b = append(w.b, body.b...)
	}
	return safeio.WriteFrame(conn, w.b)
}

// execute runs one op into body, returning a non-empty message on
// application-level failure (the connection stays usable).
func (s *Server) execute(hdr reqHeader, r *rbuf, body *wbuf) string {
	if hdr.deadline != 0 && time.Now().UnixNano() > hdr.deadline {
		return "deadline exceeded before execution"
	}
	shard := int(hdr.shard)
	if shard < 0 || shard >= s.store.NumShards() {
		return fmt.Sprintf("shard %d out of range [0,%d)", shard, s.store.NumShards())
	}
	if !s.ownsShard(shard) {
		return fmt.Sprintf("shard %d not owned by this server", shard)
	}
	switch hdr.op {
	case opProbe:
		groups, err := decodeProbeRequest(r, shard, s.store.NumShards())
		if err != nil {
			return err.Error()
		}
		var union []rdf.ID
		for i, g := range groups {
			// A batch can be long; the caller's deadline holds between groups.
			if i > 0 && hdr.deadline != 0 && time.Now().UnixNano() > hdr.deadline {
				return "deadline exceeded mid-batch"
			}
			union = union[:0]
			for _, n := range g.Nodes {
				union = append(union, s.store.Objects(n, g.Pred)...)
			}
			slices.Sort(union)
			body.ids(slices.Compact(union))
		}
	case opSubjects:
		pred, obj := rdf.PID(r.u32()), rdf.ID(r.u32())
		if r.err != nil {
			return r.err.Error()
		}
		body.ids(s.store.ShardSubjects(shard, pred, obj))
	default:
		return fmt.Sprintf("unknown op %d", hdr.op)
	}
	return ""
}
