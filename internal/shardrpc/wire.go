// Package shardrpc promotes the ShardedStore's subject-hash partition
// boundary to the network: a kbqa-shard server owns a subset of shards and
// answers index reads (multi-group path walks, subjects) over a small
// versioned wire protocol, and a client Pool scatter/gathers those reads
// with consistent-hash placement, per-shard connection pools, per-call
// deadlines, hedged requests for tail latency, and R-way replica failover.
// KB is the engine's index seam (core.Index) over the pool: it plans a
// question's whole probe set into one frame per touched shard, and a shard
// server walks each probe's whole remaining path for as long as the frontier
// stays on shards it owns. On servers that own every shard a batch costs
// one round trip, not one per path edge or per term of Eq (7); only a walk
// that stopped at a foreign shard costs another round.
//
// The protocol is dependency-free and CRC-framed by the same codec as the
// answer cache's segment log (safeio's frame, read by a FrameReader that
// can resume): every frame is
//
//	u32 payload length | u32 CRC-32 (IEEE) of payload | payload
//
// with all integers little-endian. A connection opens with a handshake
// (magic, protocol version, world digest, shard count) that fails fast when
// client and server were built from different worlds, down to one triple —
// node/predicate IDs are only meaningful because both sides intern the
// same world, so the digest check is load-bearing, not cosmetic.
// After the handshake the client sends request frames and reads one
// response frame per request; requests carry the caller's deadline and
// trace ID, and responses carry the server's span subtree so traces
// stitch across the process boundary.
//
// A call's first attempt runs on the caller's goroutine over a pooled
// connection, with the hedge deadline as its read deadline, so a call
// answered in time starts no goroutine, channel or timer. When the hedge
// deadline cuts the read short, the connection and its half-read frame
// move to a goroutine that reads on to the call deadline, and the hedge
// goes to the next replica at once; a call with no pooled connection starts
// there. The first reply wins and expires the losers' deadlines; a failure
// fails over to the next replica; a cancelled caller expires every attempt.
// The server builds each reply, span included, in one buffer per connection.
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
	// sends a probe group's remaining path, not one predicate, and replies
	// with the hops the server walked.
	ProtoVersion = 3
)

// Request opcodes. 1 was the single-group frontier expansion opProbe
// replaced, 2, 4 and 5 point lookups, 6 a paginated shard scan and 7 a stats
// fetch no client issued; their numbers stay retired.
const (
	opSubjects = byte(3) // (pred, obj) -> shard-local subjects, insertion order
	opProbe    = byte(8) // list of (path + node set) -> per group, (hops walked, frontier there)
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

func (r *rbuf) ids() []rdf.ID {
	p := r.u32s()
	if r.err != nil {
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
	version   uint32
	digest    uint64
	numShards uint32
}

// helloLen is an encoded hello's length.
const helloLen = len(protoMagic) + 4 + 8 + 4

func (h hello) encode() []byte {
	var w wbuf
	w.b = append(w.b, protoMagic...)
	w.u32(h.version)
	w.u64(h.digest)
	w.u32(h.numShards)
	return w.b
}

// decodeHello parses exactly one encoded hello: a payload of any other
// length, or with another magic, is an error.
func decodeHello(payload []byte) (hello, error) {
	if len(payload) != helloLen || string(payload[:len(protoMagic)]) != protoMagic {
		return hello{}, fmt.Errorf("shardrpc: malformed handshake")
	}
	r := rbuf{b: payload, off: len(protoMagic)}
	return hello{version: r.u32(), digest: r.u64(), numShards: r.u32()}, nil
}

// reqHeader precedes every request body.
type reqHeader struct {
	op       byte
	shard    uint32
	deadline int64 // UnixNano; 0 = none
	traceID  string
}

// reqHeaderLen is a request header's length before its trace ID.
const reqHeaderLen = 1 + 4 + 8 + 4

// newRequest returns the buffer a request body under ctx is appended to.
// Its head is room for the frame header and the request header, which
// Pool.call writes in place, so the frame is built in one buffer.
func newRequest(ctx context.Context) *wbuf {
	n := safeio.FrameHeaderLen + reqHeaderLen + len(obs.TraceID(ctx))
	return &wbuf{b: make([]byte, n, n+64)}
}

// put writes h into b, which is exactly its length.
func (h reqHeader) put(b []byte) {
	w := wbuf{b: b[:0:len(b)]}
	w.u8(h.op)
	w.u32(h.shard)
	w.u64(uint64(h.deadline))
	w.str(h.traceID)
}

func decodeReqHeader(r *rbuf) reqHeader {
	return reqHeader{
		op:       r.u8(),
		shard:    r.u32(),
		deadline: int64(r.u64()),
		traceID:  r.str(),
	}
}

// ProbeGroup is one entry of a probe frame: walk Nodes, all owned by the
// frame's shard, along Path. The reply is one Reached per group, in group
// order.
type ProbeGroup struct {
	Path  rdf.Path
	Nodes []rdf.ID
}

// Reached is the reply to one ProbeGroup: the server walked Hops edges of
// its path, at least one, and Nodes is the frontier there, sorted and
// deduplicated. A walk stops short of the path's end at an empty frontier,
// or at one that touches a shard the server does not own.
type Reached struct {
	Hops  int
	Nodes []rdf.ID
}

// encodeProbeRequest appends an opProbe body to w: u32 group count, then
// per group the path (u32 hop count, then the predicates) and the node ids.
func encodeProbeRequest(w *wbuf, groups []ProbeGroup) {
	w.u32(uint32(len(groups)))
	for _, g := range groups {
		w.u32(uint32(len(g.Path)))
		for _, p := range g.Path {
			w.u32(uint32(p))
		}
		w.ids(g.Nodes)
	}
}

// minProbeGroupLen is the shortest group: a hop count, one predicate and a
// node count.
const minProbeGroupLen = 12

// readProbeGroup reads the next group of an opProbe body, in place, from a
// client that is not trusted to have routed it: path and nodes are runs of
// little-endian u32s. A count the remaining payload cannot hold, an empty
// path, or a node that does not hash to shard (of numShards) is an error.
func readProbeGroup(r *rbuf, shard, numShards int) (path, nodes []byte, err error) {
	path, nodes = r.u32s(), r.u32s()
	if r.err != nil {
		return nil, nil, r.err
	}
	if len(path) == 0 {
		return nil, nil, fmt.Errorf("shardrpc: probe group with no path")
	}
	for i := 0; i < len(nodes); i += 4 {
		node := rdf.ID(binary.LittleEndian.Uint32(nodes[i:]))
		if owner := rdf.ShardIndex(node, numShards); owner != shard {
			return nil, nil, fmt.Errorf("shardrpc: probe frame for shard %d carries node %d of shard %d", shard, node, owner)
		}
	}
	return path, nodes, nil
}

// decodeProbeReply parses the reply to an opProbe frame of groups: per
// group the hops walked, at least one and at most its path's, then the
// frontier there; nothing before, between or after. It returns exactly one
// Reached per group or an error.
func decodeProbeReply(r *rbuf, groups []ProbeGroup) ([]Reached, error) {
	out := make([]Reached, len(groups))
	for i, g := range groups {
		out[i].Hops = int(r.u32())
		if out[i].Nodes = r.ids(); r.err != nil {
			return nil, r.err
		}
		if out[i].Hops < 1 || out[i].Hops > len(g.Path) {
			return nil, fmt.Errorf("shardrpc: reply group %d walked %d hops of a %d-hop path", i, out[i].Hops, len(g.Path))
		}
	}
	if r.off != len(r.b) {
		return nil, fmt.Errorf("shardrpc: %d bytes after the last of %d reply groups", len(r.b)-r.off, len(groups))
	}
	return out, nil
}
