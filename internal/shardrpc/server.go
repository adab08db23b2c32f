package shardrpc

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/rdf"
	"repro/internal/safeio"
)

// ServerOptions configures a shard server.
type ServerOptions struct {
	// Logger receives structured serve/close events; nil discards.
	Logger *obs.Logger
}

// Server answers shardrpc requests over a whole rdf.Graph world. Start it
// with Serve; stop it with Close (or by cancelling Serve's context). Safe
// for concurrent connections: the store is read-only at serve time.
type Server struct {
	store  rdf.Graph
	digest uint64
	log    *obs.Logger

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

// NewServer builds a server over store, whose world digest (snapshot.Digest)
// is digest: the handshake refuses every client that asserts another. The
// store must be fully loaded; writes after NewServer race with requests.
func NewServer(store rdf.Graph, digest uint64, o ServerOptions) *Server {
	return &Server{
		store:  store,
		digest: digest,
		log:    o.Logger,
		conns:  make(map[net.Conn]bool),
	}
}

// ServerStats is a snapshot of a server's identity and counters.
type ServerStats struct {
	Triples  int
	Requests uint64
	Failures uint64
}

// Stats snapshots the server's counters.
func (s *Server) Stats() ServerStats {
	return ServerStats{
		Triples:  s.store.NumTriples(),
		Requests: s.requests.Load(),
		Failures: s.failures.Load(),
	}
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
	s.log.Info("shard server listening", obs.F("addr", lis.Addr().String()))
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
	ss := &session{conn: conn}
	for {
		payload, err := ss.fr.Read(conn)
		if err != nil {
			return // peer closed or conn broke; either way the conn is done
		}
		if err := s.handleRequest(ss, payload); err != nil {
			return
		}
	}
}

// session is one connection's state, reused by every request on it.
type session struct {
	conn    net.Conn
	fr      safeio.FrameReader
	reply   wbuf     // the reply frame being built
	writeBy int64    // the write deadline in force, UnixNano; 0 = none
	path    rdf.Path // the probe being walked, decoded
	vals    []rdf.ID // its walk: the frontiers, then the answer
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
	case h.digest != s.digest:
		reject = fmt.Sprintf("world digest %016x, want %016x (different worlds)", h.digest, s.digest)
	}
	var w wbuf
	if reject == "" {
		w.u8(statusOK)
	} else {
		w.u8(statusErr)
	}
	w.b = append(w.b, hello{version: ProtoVersion, digest: s.digest}.encode()...)
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
func (s *Server) handleRequest(ss *session, payload []byte) error {
	s.requests.Add(1)
	r := &rbuf{b: payload}
	hdr := decodeReqHeader(r)
	if r.err != nil {
		s.failures.Add(1)
		return r.err // framing is intact but header garbage: protocol bug, drop conn
	}
	// The reply is built in place behind room for the frame header: status
	// (zero is statusOK), the server time (zero unless the request is
	// traced), body.
	w := &ss.reply
	w.b = append(w.b[:0], make([]byte, safeio.FrameHeaderLen+replyHeaderLen)...)
	var start time.Time
	if len(hdr.traceID) > 0 {
		start = time.Now()
	}
	if errmsg := s.execute(hdr, r, w, ss); errmsg != "" {
		s.failures.Add(1)
		w.b[safeio.FrameHeaderLen] = statusErr
		w.b = w.b[:safeio.FrameHeaderLen+replyHeaderLen]
		w.str(errmsg)
	}
	if !start.IsZero() {
		binary.LittleEndian.PutUint64(w.b[safeio.FrameHeaderLen+1:], uint64(time.Since(start)))
	}
	if hdr.deadline != ss.writeBy {
		// Bound the response write by the caller's deadline so an
		// abandoned request cannot wedge the handler goroutine. The frames
		// of one question share it, so it is set only when it changes.
		var by time.Time
		if hdr.deadline != 0 {
			by = time.Unix(0, hdr.deadline)
		}
		ss.conn.SetWriteDeadline(by)
		ss.writeBy = hdr.deadline
	}
	safeio.SealFrame(w.b)
	_, err := ss.conn.Write(w.b)
	return err
}

// execute runs one op into body, walking probes in ss's buffers, and
// returns a non-empty message on application-level failure (the
// connection stays usable).
func (s *Server) execute(hdr reqHeader, r *rbuf, body *wbuf, ss *session) string {
	if hdr.deadline != 0 && time.Now().UnixNano() > hdr.deadline {
		return "deadline exceeded before execution"
	}
	switch hdr.op {
	case opProbe:
		n := int(r.u32())
		if r.err != nil {
			return r.err.Error()
		}
		if n > (len(r.b)-r.off)/minProbeLen {
			return fmt.Sprintf("shardrpc: probe frame declares %d probes in %d bytes", n, len(r.b)-r.off)
		}
		for i := 0; i < n; i++ {
			// A batch can be long; the caller's deadline holds between probes.
			if i > 0 && hdr.deadline != 0 && time.Now().UnixNano() > hdr.deadline {
				return "deadline exceeded mid-batch"
			}
			path, subj, err := readProbe(r, ss.path)
			ss.path = path
			if err != nil {
				return err.Error()
			}
			ss.vals = rdf.PathObjects(ss.vals[:0], s.store, subj, path)
			body.ids(ss.vals)
		}
		if r.off != len(r.b) {
			return fmt.Sprintf("shardrpc: %d bytes after the last probe", len(r.b)-r.off)
		}
	case opSubjects:
		pred, obj := rdf.PID(r.u32()), rdf.ID(r.u32())
		if r.err != nil {
			return r.err.Error()
		}
		body.ids(rdf.Subjects(s.store, pred, obj))
	default:
		return fmt.Sprintf("unknown op %d", hdr.op)
	}
	return ""
}
