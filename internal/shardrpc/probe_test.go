package shardrpc

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/rdf"
	"repro/internal/rdf/snapshot"
)

// probeFrames returns, for each shard of store, a real opProbe body aimed at
// it: three groups over the shard's own nodes, walking one, two and three
// edges.
func probeFrames(store *rdf.ShardedStore) [][]byte {
	preds := store.Predicates()
	path, _ := rdf.ParsePath(store, "marriage→person→name")
	var out [][]byte
	for _, nodes := range shardedNodes(store) {
		var w wbuf
		encodeProbeRequest(&w, []ProbeGroup{
			{Path: rdf.Path{preds[0]}, Nodes: nodes},
			{Path: path[:2], Nodes: nodes[:len(nodes)/2]},
			{Path: path, Nodes: nodes},
		})
		out = append(out, w.b)
	}
	return out
}

// refDecodeProbeRequest is the opProbe body layout written out plainly, the
// reference the server's in-place reader is checked against: a group count,
// then per group a hop count, that many predicates and an id list; every
// group walks at least one edge from nodes of shard, and nothing follows
// the last group.
func refDecodeProbeRequest(data []byte, shard, numShards int) ([]ProbeGroup, error) {
	r := &rbuf{b: data}
	n := int(r.u32())
	var groups []ProbeGroup
	for i := 0; i < n && r.err == nil; i++ {
		var g ProbeGroup
		for hops := int(r.u32()); len(g.Path) < hops && r.err == nil; {
			g.Path = append(g.Path, rdf.PID(r.u32()))
		}
		if g.Nodes = r.ids(); r.err != nil {
			break
		}
		if len(g.Path) == 0 {
			return nil, errors.New("a group with no path")
		}
		for _, node := range g.Nodes {
			if rdf.ShardIndex(node, numShards) != shard {
				return nil, fmt.Errorf("node %d is not of shard %d", node, shard)
			}
		}
		groups = append(groups, g)
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(data) {
		return nil, errors.New("bytes after the last group")
	}
	return groups, nil
}

// refWalk is the walk a server owning the shards owns reports for g: each
// edge of the path in turn from g.Nodes, stopping at the path's end, at an
// empty frontier, or at the first frontier with a node of a shard it does
// not own.
func refWalk(store rdf.Graph, owns func(int) bool, g ProbeGroup) (int, []rdf.ID) {
	front := g.Nodes
	for hops := 1; ; hops++ {
		var next []rdf.ID
		for _, n := range front {
			next = append(next, store.Objects(n, g.Path[hops-1])...)
		}
		slices.Sort(next)
		front = slices.Compact(next)
		if hops == len(g.Path) || len(front) == 0 ||
			slices.ContainsFunc(front, func(n rdf.ID) bool { return !owns(rdf.ShardIndex(n, store.NumShards())) }) {
			return hops, front
		}
	}
}

// TestProbeFrameRefusesMisroutedAndOversized: the server does not trust the
// client's routing. A node that does not hash to the frame's shard, a
// group, hop or id count the payload cannot hold, a group with no path and
// bytes after the last group are refused with a status error that leaves
// the connection usable. (The frontier op this replaced
// read Objects for any node in the body: only the header's shard was
// checked, so a server answered for shards it did not own.)
func TestProbeFrameRefusesMisroutedAndOversized(t *testing.T) {
	store := testWorld(t)
	addr, srv := startServer(t, store)
	defer srv.Close()
	pl, err := NewPlacement([]string{addr}, store.NumShards(), 1)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := NewPool(PoolOptions{Placement: pl, Digest: snapshot.Digest(store)})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	ctx := context.Background()

	nodes := shardedNodes(store)
	own, foreign := nodes[0][0], nodes[1][0]
	pred := store.Predicates()[0]
	// group appends a group of path from nodes, as the client writes it.
	group := func(w *wbuf, path rdf.Path, nodes ...rdf.ID) *wbuf {
		w.u32(uint32(len(path)))
		for _, p := range path {
			w.u32(uint32(p))
		}
		w.ids(nodes)
		return w
	}
	body := func(groups uint32) *wbuf {
		w := newRequest(ctx)
		w.u32(groups)
		return w
	}
	manyHops, manyIDs, trailing := body(1), body(1), group(body(1), rdf.Path{pred}, own)
	manyHops.u32(1 << 30)
	manyHops.u32(uint32(pred))
	manyHops.ids([]rdf.ID{own})
	manyIDs.u32(1)
	manyIDs.u32(uint32(pred))
	manyIDs.u32(1 << 30)
	manyIDs.u32(uint32(own))
	trailing.u8(0)
	for _, row := range []struct {
		name string
		body *wbuf
		want string
	}{
		{"a node of another shard", group(body(1), rdf.Path{pred}, own, foreign), "of shard 1"},
		{"a group count past the payload", group(body(1<<30), rdf.Path{pred}, own), "groups in"},
		{"a hop count past the payload", manyHops, "truncated"},
		{"a group with no path", group(body(1), nil, own), "no path"},
		{"an id count past the payload", manyIDs, "truncated"},
		{"a byte after the last group", trailing, "after the last probe group"},
	} {
		_, err := pool.call(ctx, 0, opProbe, 1, row.body)
		if err == nil || !strings.Contains(err.Error(), row.want) {
			t.Errorf("frame with %s: err = %v, want a refusal mentioning %q", row.name, err, row.want)
		}
		// A refusal is a reply: the connection went back to the pool and
		// serves the next, well-formed frame.
		if free := len(pool.host(addr).free); free != 1 {
			t.Fatalf("after %s the pool holds %d idle connections, want the 1 it used", row.name, free)
		}
		got, err := pool.Probe(ctx, 0, []ProbeGroup{{rdf.Path{pred}, []rdf.ID{own}}})
		if err != nil || !slices.Equal(got[0].Nodes, rdf.PathObjects(nil, store, own, rdf.Path{pred})) {
			t.Fatalf("well-formed frame after %s: %v, %v", row.name, got, err)
		}
	}
	if st := srv.Stats(); st.Failures != 6 {
		t.Errorf("server counted %d failures, want the 6 refusals", st.Failures)
	}
}

// FuzzProbeRequest: Server.execute over arbitrary opProbe bodies, on a
// server that owns any subset of the shards (the bits of owns; none set is
// every shard), never panics and replies OK exactly to the bodies the
// reference decoder accepts for a shard the server owns. Each reply group
// is the reference walk: never more hops than the path has, and never past
// a frontier that touches a shard the server does not own.
func FuzzProbeRequest(f *testing.F) {
	store := testWorld(f)
	for shard, frame := range probeFrames(store) {
		f.Add(uint8(shard), uint8(0), frame)
		f.Add(uint8(shard), uint8(1<<shard), frame) // every walk stops at the first foreign node
		f.Add(uint8(shard+1), uint8(0), frame)      // every node misrouted
		f.Add(uint8(shard), uint8(0), frame[:len(frame)-3])
	}
	f.Fuzz(func(t *testing.T, shard, owns uint8, data []byte) {
		var owned []int
		for i := range store.NumShards() {
			if owns>>i&1 == 1 {
				owned = append(owned, i)
			}
		}
		srv := NewServer(store, snapshot.Digest(store), ServerOptions{Owns: owned})
		var body wbuf
		errmsg := srv.execute(reqHeader{op: opProbe, shard: uint32(shard)}, &rbuf{b: data}, &body, &walker{})
		groups, err := refDecodeProbeRequest(data, int(shard), store.NumShards())
		wellFormed := err == nil && int(shard) < store.NumShards() && srv.ownsShard(int(shard))
		if (errmsg == "") != wellFormed {
			t.Fatalf("execute replied %q to a body the reference decoder judges %v", errmsg, err)
		}
		if errmsg != "" {
			return
		}
		got, err := decodeProbeReply(&rbuf{b: body.b}, groups)
		if err != nil {
			t.Fatalf("the server's own reply does not decode: %v", err)
		}
		for i, g := range groups {
			hops, want := refWalk(store, srv.ownsShard, g)
			if got[i].Hops != hops || !slices.Equal(got[i].Nodes, want) {
				t.Fatalf("group %d (%d-hop path) walked %d hops to %v, want %d hops to %v", i, len(g.Path), got[i].Hops, got[i].Nodes, hops, want)
			}
		}
	})
}

// FuzzProbeReply: the client's reply decoder over arbitrary bytes, for a
// frame of groups groups of hops-edge paths, returns an error or exactly
// one Reached per group, each of 1 to hops hops, that encode back to the
// very bytes it read: a reply with 0 hops, more hops than asked or trailing
// bytes is refused.
func FuzzProbeReply(f *testing.F) {
	store := testWorld(f)
	srv := NewServer(store, snapshot.Digest(store), ServerOptions{})
	for shard, frame := range probeFrames(store) {
		var body wbuf
		if errmsg := srv.execute(reqHeader{op: opProbe, shard: uint32(shard)}, &rbuf{b: frame}, &body, &walker{}); errmsg != "" {
			f.Fatal(errmsg)
		}
		f.Add(uint8(3), uint8(3), body.b)
		f.Add(uint8(3), uint8(1), body.b)
		f.Add(uint8(4), uint8(3), body.b)
		f.Add(uint8(3), uint8(3), body.b[:len(body.b)-1])
		f.Add(uint8(3), uint8(3), append(slices.Clone(body.b), 0))
	}
	f.Add(uint8(1), uint8(2), []byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, groups, hops uint8, data []byte) {
		asked := make([]ProbeGroup, groups)
		for i := range asked {
			asked[i].Path = make(rdf.Path, hops)
		}
		got, err := decodeProbeReply(&rbuf{b: data}, asked)
		if err != nil {
			if got != nil {
				t.Fatalf("decoder returned both %d groups and %v", len(got), err)
			}
			return
		}
		if len(got) != len(asked) {
			t.Fatalf("decoded %d groups with no error, asked for %d", len(got), len(asked))
		}
		var w wbuf
		for _, r := range got {
			if r.Hops < 1 || r.Hops > int(hops) {
				t.Fatalf("decoded a group of %d hops along a %d-hop path", r.Hops, hops)
			}
			w.u32(uint32(r.Hops))
			w.ids(r.Nodes)
		}
		if !bytes.Equal(w.b, data) {
			t.Fatalf("decoded %+v from %x, which encodes back to %x", got, data, w.b)
		}
	})
}
