// Package shardrpc serves the knowledge base's index reads over the
// network: the cluster is a frontend over replicated index servers. Every
// kbqa-shard server holds the whole world and answers index reads (batches
// of path walks, reverse subject lookups) over a small versioned wire
// protocol, and a client Pool sends each read to one server, picked by
// rotating over the server list, with per-server connection pools,
// per-call deadlines, hedged requests for tail latency, and failover to the
// next server. KB is the engine's index seam (core.Index) over the pool: a
// read phase is one frame to one server — a question's whole probe set
// goes in one frame, and the server walks each probe to the end of its
// path. A batch costs one round trip, not one per path edge or per term of
// Eq (7).
//
// The protocol is dependency-free and CRC-framed by the same codec as the
// answer cache's segment log (safeio's frame, read by a FrameReader that
// can resume): every frame is
//
//	u32 payload length | u32 CRC-32 (IEEE) of payload | payload
//
// with all integers little-endian. A connection opens with a handshake
// (magic, protocol version, world digest) that fails fast when client and
// server were built from different worlds, down to one triple —
// node/predicate IDs are only meaningful because both sides intern the
// same world, so the digest check is load-bearing, not cosmetic.
// After the handshake the client sends request frames and reads one
// response frame per request; requests carry the caller's deadline and
// trace ID, and a reply to a traced request carries the server's time, which
// the caller records as the shard.serve span under its rpc.call.
//
// A call's first attempt runs on the caller's goroutine over a pooled
// connection, with the hedge deadline as its read deadline, so a call
// answered in time starts no goroutine, channel or timer. When the hedge
// deadline cuts the read short, the connection and its half-read frame
// move to a goroutine that reads on to the call deadline, and the hedge
// goes to the next server at once; a call with no pooled connection starts
// there. The first reply wins and expires the losers' deadlines; a failure
// fails over to the next server; a cancelled caller expires every attempt.
// The server builds each reply in one buffer per connection.
package shardrpc

import (
	"context"
	"encoding/binary"
	"fmt"

	"repro/internal/obs"
	"repro/internal/rdf"
	"repro/internal/safeio"
)

// Protocol identity.
const (
	// protoMagic opens every handshake frame in both directions.
	protoMagic = "KBQARPC1"
	// ProtoVersion is the wire protocol version; client and server must
	// match exactly. 2 replaced the one-group frontier op with opProbe; 3
	// sent a probe group's remaining path and replied with the hops the
	// server walked; 4 sends each probe as it is, a path and a subject, and
	// replies with the set at the path's end; 5 drops the shard from the
	// request header and the shard count from the hello, since every server
	// answers for the whole world; 6 replies with a fixed server-time slot
	// where 5 sent a length-prefixed span tree as JSON. A v6 reply is
	//
	//	u8 status | u64 server time in ns (0 when the request carried no
	//	trace ID) | body (the op's reply, or a u32-prefixed error message)
	ProtoVersion = 6
)

// Request opcodes. 1 was the single-group frontier expansion opProbe
// replaced, 2, 4 and 5 point lookups, 6 a paginated shard scan and 7 a stats
// fetch no client issued; their numbers stay retired.
const (
	opSubjects = byte(3) // (pred, obj) -> the subjects, ascending
	opProbe    = byte(8) // list of (path, subject) -> per probe, the objects at the path's end
)

// Response status codes.
const (
	statusOK  = byte(0)
	statusErr = byte(1)
)

// replyHeaderLen is a reply's length before its body: status and server
// time.
const replyHeaderLen = 1 + 8

// wbuf builds a frame payload.
type wbuf struct{ b []byte }

func (w *wbuf) u8(v byte) { w.b = append(w.b, v) }

func (w *wbuf) u32(v uint32) {
	w.b = binary.LittleEndian.AppendUint32(w.b, v)
}

func (w *wbuf) u64(v uint64) {
	w.b = binary.LittleEndian.AppendUint64(w.b, v)
}

func (w *wbuf) str(s string) {
	w.u32(uint32(len(s)))
	w.b = append(w.b, s...)
}

func (w *wbuf) ids(v []rdf.ID) {
	w.u32(uint32(len(v)))
	for _, id := range v {
		w.u32(uint32(id))
	}
}

// rbuf parses a frame payload with a sticky error; every getter returns a
// zero value once the buffer under-runs, and the caller checks err once.
type rbuf struct {
	b   []byte
	off int
	err error
}

func (r *rbuf) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("shardrpc: truncated payload at offset %d", r.off)
	}
}

func (r *rbuf) u8() byte {
	if r.err != nil || r.off+1 > len(r.b) {
		r.fail()
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *rbuf) u32() uint32 {
	if r.err != nil || r.off+4 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

func (r *rbuf) u64() uint64 {
	if r.err != nil || r.off+8 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

func (r *rbuf) str() string {
	n := int(r.u32())
	if r.err != nil || r.off+n > len(r.b) {
		r.fail()
		return ""
	}
	s := string(r.b[r.off : r.off+n])
	r.off += n
	return s
}

func (r *rbuf) bytes() []byte {
	n := int(r.u32())
	if r.err != nil || r.off+n > len(r.b) {
		r.fail()
		return nil
	}
	p := r.b[r.off : r.off+n]
	r.off += n
	return p
}

// u32s reads a u32 count and returns that many u32s as they lie in the
// payload.
func (r *rbuf) u32s() []byte {
	n := int(r.u32())
	if r.err != nil || n > (len(r.b)-r.off)/4 {
		r.fail()
		return nil
	}
	p := r.b[r.off : r.off+4*n]
	r.off += 4 * n
	return p
}

// ids reads an id list; an empty one is nil.
func (r *rbuf) ids() []rdf.ID {
	p := r.u32s()
	if r.err != nil || len(p) == 0 {
		return nil
	}
	out := make([]rdf.ID, len(p)/4)
	for i := range out {
		out[i] = rdf.ID(binary.LittleEndian.Uint32(p[4*i:]))
	}
	return out
}

// hello is the handshake exchanged in both directions.
type hello struct {
	version uint32
	digest  uint64
}

// helloLen is an encoded hello's length.
const helloLen = len(protoMagic) + 4 + 8

func (h hello) encode() []byte {
	var w wbuf
	w.b = append(w.b, protoMagic...)
	w.u32(h.version)
	w.u64(h.digest)
	return w.b
}

// decodeHello parses exactly one encoded hello: a payload of any other
// length, or with another magic, is an error.
func decodeHello(payload []byte) (hello, error) {
	if len(payload) != helloLen || string(payload[:len(protoMagic)]) != protoMagic {
		return hello{}, fmt.Errorf("shardrpc: malformed handshake")
	}
	r := rbuf{b: payload, off: len(protoMagic)}
	return hello{version: r.u32(), digest: r.u64()}, nil
}

// reqHeader precedes every request body.
type reqHeader struct {
	op       byte
	deadline int64  // UnixNano; 0 = none
	traceID  []byte // as it lies in the frame; empty = untraced
}

// reqHeaderLen is a request header's length before its trace ID.
const reqHeaderLen = 1 + 8 + 4

// newRequest returns the buffer a request body under ctx is appended to.
// Its head is room for the frame header and the request header, which
// Pool.call writes in place, so the frame is built in one buffer.
func newRequest(ctx context.Context) *wbuf {
	n := safeio.FrameHeaderLen + reqHeaderLen + len(obs.TraceID(ctx))
	return &wbuf{b: make([]byte, n, n+64)}
}

// putReqHeader writes a request header into b, which is exactly its
// length.
func putReqHeader(b []byte, op byte, deadline int64, traceID string) {
	w := wbuf{b: b[:0:len(b)]}
	w.u8(op)
	w.u64(uint64(deadline))
	w.str(traceID)
}

func decodeReqHeader(r *rbuf) reqHeader {
	return reqHeader{
		op:       r.u8(),
		deadline: int64(r.u64()),
		traceID:  r.bytes(),
	}
}

// encodeProbeRequest appends an opProbe body to w: u32 probe count, then
// per probe the path (u32 hop count, then the predicates) and the subject.
func encodeProbeRequest(w *wbuf, probes []rdf.Probe) {
	w.u32(uint32(len(probes)))
	for _, p := range probes {
		w.u32(uint32(len(p.Path)))
		for _, pred := range p.Path {
			w.u32(uint32(pred))
		}
		w.u32(uint32(p.Subj))
	}
}

// minProbeLen is the shortest probe: a hop count, one predicate and a
// subject.
const minProbeLen = 12

// readProbe reads the next probe of an opProbe body, its path into path's
// storage, from a client that is not trusted to have framed it. A hop count
// the remaining payload cannot hold, or an empty path, is an error.
func readProbe(r *rbuf, path rdf.Path) (rdf.Path, rdf.ID, error) {
	hops, subj := r.u32s(), rdf.ID(r.u32())
	if r.err != nil {
		return path, 0, r.err
	}
	if len(hops) == 0 {
		return path, 0, fmt.Errorf("shardrpc: probe with no path")
	}
	path = path[:0]
	for i := 0; i < len(hops); i += 4 {
		path = append(path, rdf.PID(binary.LittleEndian.Uint32(hops[i:])))
	}
	return path, subj, nil
}

// decodeProbeReply parses the reply to an opProbe frame of n probes: one id
// list per probe, in probe order, and nothing after the last. It returns
// exactly n lists or an error.
func decodeProbeReply(r *rbuf, n int) ([][]rdf.ID, error) {
	out := make([][]rdf.ID, n)
	for i := range out {
		out[i] = r.ids()
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(r.b) {
		return nil, fmt.Errorf("shardrpc: %d bytes after the last of %d reply sets", len(r.b)-r.off, n)
	}
	return out, nil
}
