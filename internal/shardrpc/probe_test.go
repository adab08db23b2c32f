package shardrpc

import (
	"context"
	"slices"
	"strings"
	"testing"

	"repro/internal/rdf"
)

// probeFrames returns, for each shard of store, a real opProbe body aimed at
// it: two groups over the shard's own nodes.
func probeFrames(store *rdf.ShardedStore) [][]byte {
	preds := store.Predicates()
	var out [][]byte
	for _, nodes := range shardedNodes(store) {
		out = append(out, encodeProbeRequest([]ProbeGroup{
			{Pred: preds[0], Nodes: nodes},
			{Pred: preds[len(preds)-1], Nodes: nodes[:len(nodes)/2]},
		}).b)
	}
	return out
}

// TestProbeFrameRefusesMisroutedAndOversized: the server does not trust the
// client's routing. A node that does not hash to the frame's shard, and a
// group or id count the payload cannot hold, are refused with a status
// error that leaves the connection usable. (The frontier op this replaced
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
	pool, err := NewPool(PoolOptions{Placement: pl, Fingerprint: rdf.WorldFingerprint(store)})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	ctx := context.Background()

	nodes := shardedNodes(store)
	own, foreign := nodes[0][0], nodes[1][0]
	pred := store.Predicates()[0]
	var misrouted, manyGroups, manyIDs wbuf
	misrouted.u32(1)
	misrouted.u32(uint32(pred))
	misrouted.ids([]rdf.ID{own, foreign})
	manyGroups.u32(1 << 30)
	manyGroups.u32(uint32(pred))
	manyGroups.ids([]rdf.ID{own})
	manyIDs.u32(1)
	manyIDs.u32(uint32(pred))
	manyIDs.u32(1 << 30)
	manyIDs.u32(uint32(own))
	for _, row := range []struct {
		name string
		body *wbuf
		want string
	}{
		{"a node of another shard", &misrouted, "of shard 1"},
		{"a group count past the payload", &manyGroups, "groups in"},
		{"an id count past the payload", &manyIDs, "truncated"},
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
		got, err := pool.Probe(ctx, 0, []ProbeGroup{{pred, []rdf.ID{own}}})
		if err != nil || !slices.Equal(got[0], rdf.PathObjects(store, own, rdf.Path{pred})) {
			t.Fatalf("well-formed frame after %s: %v, %v", row.name, got, err)
		}
	}
	if st := srv.Stats(); st.Failures != 3 {
		t.Errorf("server counted %d failures, want the 3 refusals", st.Failures)
	}
}

// FuzzProbeRequest: Server.execute over arbitrary opProbe bodies never
// panics, and replies OK exactly to the bodies the decoder accepts — with
// one sorted, deduplicated id list per group and nothing else.
func FuzzProbeRequest(f *testing.F) {
	store := testWorld(f)
	for shard, frame := range probeFrames(store) {
		f.Add(uint8(shard), frame)
		f.Add(uint8(shard+1), frame) // every node misrouted
		f.Add(uint8(shard), frame[:len(frame)-3])
	}
	srv := NewServer(store, ServerOptions{})
	f.Fuzz(func(t *testing.T, shard uint8, data []byte) {
		hdr := reqHeader{op: opProbe, shard: uint32(shard)}
		var body wbuf
		errmsg := srv.execute(hdr, &rbuf{b: data}, &body)
		groups, err := decodeProbeRequest(&rbuf{b: data}, int(shard), store.NumShards())
		wellFormed := err == nil && int(shard) < store.NumShards()
		if (errmsg == "") != wellFormed {
			t.Fatalf("execute replied %q to a body the decoder judges %v", errmsg, err)
		}
		if errmsg != "" {
			return
		}
		lists, err := decodeProbeReply(&rbuf{b: body.b}, len(groups))
		if err != nil {
			t.Fatalf("the server's own reply does not decode: %v", err)
		}
		for _, ids := range lists {
			if !slices.IsSorted(ids) || len(slices.Compact(slices.Clone(ids))) != len(ids) {
				t.Fatalf("reply group not sorted and unique: %v", ids)
			}
		}
	})
}

// FuzzProbeReply: the client's reply decoder over arbitrary bytes returns an
// error or exactly as many groups as it asked for.
func FuzzProbeReply(f *testing.F) {
	store := testWorld(f)
	srv := NewServer(store, ServerOptions{})
	for shard, frame := range probeFrames(store) {
		var body wbuf
		if errmsg := srv.execute(reqHeader{op: opProbe, shard: uint32(shard)}, &rbuf{b: frame}, &body); errmsg != "" {
			f.Fatal(errmsg)
		}
		f.Add(uint8(2), body.b)
		f.Add(uint8(3), body.b)
		f.Add(uint8(2), body.b[:len(body.b)-1])
	}
	f.Fuzz(func(t *testing.T, want uint8, data []byte) {
		lists, err := decodeProbeReply(&rbuf{b: data}, int(want))
		if err == nil && len(lists) != int(want) {
			t.Fatalf("decoded %d groups with no error, asked for %d", len(lists), want)
		}
		if err != nil && lists != nil {
			t.Fatalf("decoder returned both %d groups and %v", len(lists), err)
		}
	})
}
