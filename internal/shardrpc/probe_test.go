package shardrpc

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"net"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/rdf"
	"repro/internal/rdf/snapshot"
	"repro/internal/safeio"
)

// probeFrames returns real opProbe bodies, one per node group of store:
// the group's nodes each walking one edge, and again walking two and three.
func probeFrames(store *rdf.Store) [][]byte {
	preds := store.Predicates()
	path, _ := rdf.ParsePath(store, "marriage→person→name")
	var out [][]byte
	for _, nodes := range nodeGroups(store) {
		var probes []rdf.Probe
		for _, p := range []rdf.Path{{preds[0]}, path[:2], path} {
			probes = append(probes, probesOf(p, nodes...)...)
		}
		var w wbuf
		encodeProbeRequest(&w, probes)
		out = append(out, w.b)
	}
	return out
}

// refDecodeProbeRequest is the opProbe body layout written out plainly, the
// reference the server's reader is checked against: a probe count, then
// per probe a hop count, that many predicates and a subject; every probe
// walks at least one edge, and nothing follows the last probe.
func refDecodeProbeRequest(data []byte) ([]rdf.Probe, error) {
	r := &rbuf{b: data}
	n := int(r.u32())
	var probes []rdf.Probe
	for i := 0; i < n && r.err == nil; i++ {
		var p rdf.Probe
		for hops := int(r.u32()); len(p.Path) < hops && r.err == nil; {
			p.Path = append(p.Path, rdf.PID(r.u32()))
		}
		if p.Subj = rdf.ID(r.u32()); r.err != nil {
			break
		}
		if len(p.Path) == 0 {
			return nil, errors.New("a probe with no path")
		}
		probes = append(probes, p)
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(data) {
		return nil, errors.New("bytes after the last probe")
	}
	return probes, nil
}

// TestProbeFrameRefusesMisroutedAndOversized: the server does not trust the
// client's framing. A probe or hop count the payload cannot hold, a probe
// with no path and bytes after the last probe are refused with a status
// error that leaves the connection usable.
func TestProbeFrameRefusesMisroutedAndOversized(t *testing.T) {
	store := testWorld(t)
	srv := NewServer(store, snapshot.Digest(store), ServerOptions{})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(context.Background(), lis)
	defer srv.Close()
	addr := lis.Addr().String()
	pool, err := NewPool(PoolOptions{Servers: []string{addr}, Digest: snapshot.Digest(store)})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	ctx := context.Background()

	subj := store.Entities()[0]
	pred := store.Predicates()[0]
	// probe appends a probe of path from subj, as the client writes it.
	probe := func(w *wbuf, path rdf.Path, subj rdf.ID) *wbuf {
		w.u32(uint32(len(path)))
		for _, p := range path {
			w.u32(uint32(p))
		}
		w.u32(uint32(subj))
		return w
	}
	body := func(probes uint32) *wbuf {
		w := newRequest(ctx)
		w.u32(probes)
		return w
	}
	manyHops, noPath, trailing := body(1), probe(body(1), nil, subj), probe(body(1), rdf.Path{pred}, subj)
	manyHops.u32(1 << 30)
	manyHops.u32(uint32(pred))
	manyHops.u32(uint32(subj))
	noPath.u32(0) // so that the count check passes a 12-byte probe
	trailing.u8(0)
	for _, row := range []struct {
		name string
		body *wbuf
		want string
	}{
		{"a probe count past the payload", probe(body(1<<30), rdf.Path{pred}, subj), "probes in"},
		{"a hop count past the payload", manyHops, "truncated"},
		{"a probe with no path", noPath, "no path"},
		{"a byte after the last probe", trailing, "after the last probe"},
	} {
		_, err := pool.call(ctx, opProbe, 1, row.body)
		if err == nil || !strings.Contains(err.Error(), row.want) {
			t.Errorf("frame with %s: err = %v, want a refusal mentioning %q", row.name, err, row.want)
		}
		// A refusal is a reply: the connection went back to the pool and
		// serves the next, well-formed frame.
		if free := len(pool.host(addr).free); free != 1 {
			t.Fatalf("after %s the pool holds %d idle connections, want the 1 it used", row.name, free)
		}
		got, err := pool.Probe(ctx, probesOf(rdf.Path{pred}, subj))
		if err != nil || !slices.Equal(got[0], rdf.PathObjects(nil, store, subj, rdf.Path{pred})) {
			t.Fatalf("well-formed frame after %s: %v, %v", row.name, got, err)
		}
	}
	if st := srv.Stats(); st.Failures != 4 {
		t.Errorf("server counted %d failures, want the 4 refusals", st.Failures)
	}
}

// FuzzProbeRequest: Server.execute over arbitrary opProbe bodies never
// panics and replies OK exactly to the bodies the reference decoder
// accepts. Each reply set is rdf.PathObjects, the walk to the path's end.
func FuzzProbeRequest(f *testing.F) {
	store := testWorld(f)
	for _, frame := range probeFrames(store) {
		f.Add(frame)
		f.Add(frame[:len(frame)-3])
		f.Add(append(slices.Clone(frame), 0))
		f.Add(frame[4:])                                                                            // no probe count
		f.Add(append(binary.LittleEndian.AppendUint32(nil, 1), 0, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0)) // a probe with no path
	}
	srv := NewServer(store, snapshot.Digest(store), ServerOptions{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var body wbuf
		errmsg := srv.execute(reqHeader{op: opProbe}, &rbuf{b: data}, &body, &session{})
		probes, err := refDecodeProbeRequest(data)
		if (errmsg == "") != (err == nil) {
			t.Fatalf("execute replied %q to a body the reference decoder judges %v", errmsg, err)
		}
		if errmsg != "" {
			return
		}
		got, err := decodeProbeReply(&rbuf{b: body.b}, len(probes))
		if err != nil {
			t.Fatalf("the server's own reply does not decode: %v", err)
		}
		for i, p := range probes {
			if want := rdf.PathObjects(nil, store, p.Subj, p.Path); !slices.Equal(got[i], want) {
				t.Fatalf("probe %d (%d-hop path from %d) reached %v, want %v", i, len(p.Path), p.Subj, got[i], want)
			}
		}
	})
}

// replyConn is a connection a shard server writes its replies to and
// nothing reads from: it keeps the last frame written.
type replyConn struct {
	net.Conn
	last []byte
}

func (c *replyConn) Write(b []byte) (int, error) {
	c.last = append(c.last[:0], b...)
	return len(b), nil
}

func (c *replyConn) SetWriteDeadline(time.Time) error { return nil }

// requestPayload returns a request frame's payload: body behind a header
// for op that names traceID and no deadline.
func requestPayload(op byte, traceID string, body []byte) []byte {
	req := make([]byte, reqHeaderLen+len(traceID), reqHeaderLen+len(traceID)+len(body))
	putReqHeader(req, op, 0, traceID)
	return append(req, body...)
}

// serveFrame has srv answer one request payload on a session over a
// replyConn and returns the reply's payload.
func serveFrame(tb testing.TB, srv *Server, ss *session, payload []byte) []byte {
	tb.Helper()
	if err := srv.handleRequest(ss, payload); err != nil {
		tb.Fatal(err)
	}
	return ss.conn.(*replyConn).last[safeio.FrameHeaderLen:]
}

// FuzzProbeReply: the client's parse of a whole reply payload to a frame of
// probes probes — the envelope (status, server time) in Pool.finish, then
// decodeProbeReply — returns an error or exactly one set per probe that
// encodes back to the very body it read. A payload shorter than the
// envelope, an error status, a reply with too few sets or with trailing
// bytes is refused, never a panic.
func FuzzProbeReply(f *testing.F) {
	store := testWorld(f)
	srv := NewServer(store, snapshot.Digest(store), ServerOptions{})
	ss := &session{conn: &replyConn{}}
	for i, frame := range probeFrames(store) {
		reply := slices.Clone(serveFrame(f, srv, ss, requestPayload(opProbe, []string{"", "0123456789abcdef"}[i%2], frame)))
		n := uint8(binary.LittleEndian.Uint32(frame))
		f.Add(n, reply)
		f.Add(n-1, reply)
		f.Add(n+1, reply)
		f.Add(n, reply[:len(reply)-1])
		f.Add(n, append(slices.Clone(reply), 0))
	}
	f.Add(uint8(2), make([]byte, replyHeaderLen+8))
	f.Add(uint8(0), make([]byte, replyHeaderLen))
	f.Add(uint8(0), make([]byte, replyHeaderLen-1))
	f.Add(uint8(0), []byte(nil))
	f.Add(uint8(1), slices.Clone(serveFrame(f, srv, ss, requestPayload(opProbe, "", []byte{1, 0, 0, 0}))))
	f.Fuzz(func(t *testing.T, probes uint8, data []byte) {
		r, err := new(Pool).finish(nil, opProbe, "fuzz", data)
		if ok := len(data) >= replyHeaderLen && data[0] == statusOK; (err == nil) != ok {
			t.Fatalf("envelope of %x: %v, want an error only for a short payload or an error status", data, err)
		}
		if err != nil {
			return
		}
		got, err := decodeProbeReply(r, int(probes))
		if err != nil {
			if got != nil {
				t.Fatalf("decoder returned both %d sets and %v", len(got), err)
			}
			return
		}
		if len(got) != int(probes) {
			t.Fatalf("decoded %d sets with no error, asked for %d", len(got), probes)
		}
		var w wbuf
		for _, set := range got {
			w.ids(set)
		}
		if !bytes.Equal(w.b, data[replyHeaderLen:]) {
			t.Fatalf("decoded %v from %x, whose body encodes back to %x", got, data, w.b)
		}
	})
}
