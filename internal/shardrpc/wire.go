// Package shardrpc promotes the ShardedStore's subject-hash partition
// boundary to the network: a kbqa-shard server owns a subset of shards and
// answers index reads (expand-frontier, subjects) over a small
// versioned wire protocol, and a client Pool scatter/gathers those reads
// with consistent-hash placement, per-shard connection pools, per-call
// deadlines, hedged requests for tail latency, and R-way replica failover.
// KB is the engine's index seam (core.Index) over the pool.
//
// The protocol is dependency-free and CRC-framed by the same codec as the
// answer cache's segment log (safeio.WriteFrame / ReadFrame): every frame is
//
//	u32 payload length | u32 CRC-32 (IEEE) of payload | payload
//
// with all integers little-endian. A connection opens with a handshake
// (magic, protocol version, knowledge-base fingerprint, shard count) that
// fails fast when client and server were built from different worlds —
// node/predicate IDs are only meaningful because both sides intern the
// same world, so the fingerprint check is load-bearing, not cosmetic.
// After the handshake the client sends request frames and reads one
// response frame per request; requests carry the caller's deadline and
// trace ID, and responses carry the server's span subtree so traces
// stitch across the process boundary.
package shardrpc

import (
	"encoding/binary"
	"fmt"

	"repro/internal/rdf"
)

// Protocol identity.
const (
	// protoMagic opens every handshake frame in both directions.
	protoMagic = "KBQARPC1"
	// ProtoVersion is the wire protocol version; client and server must
	// match exactly.
	ProtoVersion = 1
)

// Request opcodes. 2, 4 and 5 were point lookups, 6 a paginated shard scan
// and 7 a stats fetch no client issued; their numbers stay retired so the
// survivors keep ProtoVersion 1.
const (
	opFrontier = byte(1) // pred + node set -> union of objects, sorted unique
	opSubjects = byte(3) // (pred, obj) -> shard-local subjects, insertion order
)

// Response status codes.
const (
	statusOK  = byte(0)
	statusErr = byte(1)
)

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

func (w *wbuf) bytes(p []byte) {
	w.u32(uint32(len(p)))
	w.b = append(w.b, p...)
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

func (r *rbuf) ids() []rdf.ID {
	n := int(r.u32())
	if r.err != nil || r.off+4*n > len(r.b) {
		r.fail()
		return nil
	}
	out := make([]rdf.ID, n)
	for i := range out {
		out[i] = rdf.ID(r.u32())
	}
	return out
}

// hello is the handshake exchanged in both directions.
type hello struct {
	version     uint32
	fingerprint uint64
	numShards   uint32
}

func (h hello) encode() []byte {
	var w wbuf
	w.b = append(w.b, protoMagic...)
	w.u32(h.version)
	w.u64(h.fingerprint)
	w.u32(h.numShards)
	return w.b
}

func decodeHello(payload []byte) (hello, error) {
	if len(payload) < len(protoMagic) || string(payload[:len(protoMagic)]) != protoMagic {
		return hello{}, fmt.Errorf("shardrpc: bad handshake magic")
	}
	r := rbuf{b: payload, off: len(protoMagic)}
	h := hello{version: r.u32(), fingerprint: r.u64(), numShards: r.u32()}
	return h, r.err
}

// reqHeader precedes every request body.
type reqHeader struct {
	op       byte
	shard    uint32
	deadline int64 // UnixNano; 0 = none
	traceID  string
}

func (h reqHeader) encode(body *wbuf) []byte {
	var w wbuf
	w.u8(h.op)
	w.u32(h.shard)
	w.u64(uint64(h.deadline))
	w.str(h.traceID)
	w.b = append(w.b, body.b...)
	return w.b
}

func decodeReqHeader(r *rbuf) reqHeader {
	return reqHeader{
		op:       r.u8(),
		shard:    r.u32(),
		deadline: int64(r.u64()),
		traceID:  r.str(),
	}
}
