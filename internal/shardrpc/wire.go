// Package shardrpc promotes the ShardedStore's subject-hash partition
// boundary to the network: a kbqa-shard server owns a subset of shards and
// answers index reads (multi-group probe, subjects) over a small
// versioned wire protocol, and a client Pool scatter/gathers those reads
// with consistent-hash placement, per-shard connection pools, per-call
// deadlines, hedged requests for tail latency, and R-way replica failover.
// KB is the engine's index seam (core.Index) over the pool: it plans a
// question's whole probe set into one frame per touched shard per path
// depth, so a question waits for as many round trips as its longest path
// has edges, not for one per term of Eq (7).
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
	// match exactly. 2 replaced the one-group frontier op with opProbe.
	ProtoVersion = 2
)

// Request opcodes. 1 was the single-group frontier expansion opProbe
// replaced, 2, 4 and 5 point lookups, 6 a paginated shard scan and 7 a stats
// fetch no client issued; their numbers stay retired.
const (
	opSubjects = byte(3) // (pred, obj) -> shard-local subjects, insertion order
	opProbe    = byte(8) // list of (pred + node set) -> per group, union of objects, sorted unique
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
	if r.err != nil || n > (len(r.b)-r.off)/4 {
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

// ProbeGroup is one entry of a probe frame: expand Nodes, all owned by the
// frame's shard, along Pred. The reply is one sorted, deduplicated union of
// Objects(node, Pred) per group, in group order.
type ProbeGroup struct {
	Pred  rdf.PID
	Nodes []rdf.ID
}

// encodeProbeRequest writes an opProbe body: u32 group count, then per
// group u32 pred and the node ids.
func encodeProbeRequest(groups []ProbeGroup) *wbuf {
	var w wbuf
	w.u32(uint32(len(groups)))
	for _, g := range groups {
		w.u32(uint32(g.Pred))
		w.ids(g.Nodes)
	}
	return &w
}

// decodeProbeRequest parses an opProbe body from a client that is not
// trusted to have routed it: a count the remaining payload cannot hold, a
// node that does not hash to shard (of numShards), or bytes past the last
// group are errors.
func decodeProbeRequest(r *rbuf, shard, numShards int) ([]ProbeGroup, error) {
	n := int(r.u32())
	if r.err != nil {
		return nil, r.err
	}
	// A group is at least its pred and its node count.
	if n > (len(r.b)-r.off)/8 {
		return nil, fmt.Errorf("shardrpc: probe frame declares %d groups in %d bytes", n, len(r.b)-r.off)
	}
	groups := make([]ProbeGroup, n)
	for i := range groups {
		groups[i] = ProbeGroup{Pred: rdf.PID(r.u32()), Nodes: r.ids()}
		if r.err != nil {
			return nil, r.err
		}
		for _, node := range groups[i].Nodes {
			if owner := rdf.ShardIndex(node, numShards); owner != shard {
				return nil, fmt.Errorf("shardrpc: probe frame for shard %d carries node %d of shard %d", shard, node, owner)
			}
		}
	}
	if r.off != len(r.b) {
		return nil, fmt.Errorf("shardrpc: %d bytes after the last probe group", len(r.b)-r.off)
	}
	return groups, nil
}

// decodeProbeReply parses an opProbe reply — one id list per group asked
// for, nothing before, between or after — into exactly want lists or an
// error.
func decodeProbeReply(r *rbuf, want int) ([][]rdf.ID, error) {
	out := make([][]rdf.ID, want)
	for i := range out {
		if out[i] = r.ids(); r.err != nil {
			return nil, r.err
		}
	}
	if r.off != len(r.b) {
		return nil, fmt.Errorf("shardrpc: %d bytes after the last of %d reply groups", len(r.b)-r.off, want)
	}
	return out, nil
}
