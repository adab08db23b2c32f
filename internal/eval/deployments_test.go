package eval

import (
	"context"
	"errors"
	"net"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/kbgen"
	"repro/internal/rdf"
	"repro/internal/rdf/snapshot"
	"repro/internal/shardrpc"
	"repro/internal/world"
)

// startShardServer runs a shardrpc server over store, a world
// whose digest is digest, on a loopback listener.
func startShardServer(t *testing.T, store rdf.Graph, digest uint64) (string, *shardrpc.Server) {
	t.Helper()
	srv := shardrpc.NewServer(store, digest, shardrpc.ServerOptions{})
	if d, ok := store.(*dyingStore); ok {
		d.srv = srv
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(context.Background(), lis)
	return lis.Addr().String(), srv
}

// clusterEngine serves w's store from two loopback index servers and
// returns an engine probing through them, plus the kill switch
// of the first server. dying, when non-nil, is armed instead: the next
// server to execute a read dies inside it.
func clusterEngine(t *testing.T, w *World, dying *midFrameFault) (*core.Engine, func()) {
	store, digest := w.KB.Store, snapshot.Digest(w.KB.Store)
	addrA, srvA := startShardServer(t, dying.wrap(store), digest)
	addrB, srvB := startShardServer(t, dying.wrap(store), digest)
	t.Cleanup(srvA.Close)
	t.Cleanup(srvB.Close)
	pool, err := shardrpc.NewPool(shardrpc.PoolOptions{Servers: []string{addrA, addrB}, Digest: digest})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		t.Logf("pool stats %+v", pool.Stats())
		pool.Close()
	})
	eng := core.NewEngine(store, shardrpc.NewKB(pool), w.KB.Taxonomy, w.Model, w.Stats)
	if dying != nil {
		// The fault must fire inside a frame, and that call must then be
		// answered by the other server: by a failover, or by a hedge that
		// had already sent it there, which leaves no server to fail over
		// to and so counts no failover.
		t.Cleanup(func() {
			if st := pool.Stats(); !dying.fired.Load() || st.Failovers+st.Hedges == 0 {
				t.Errorf("no frame died mid-batch (fired %v, %+v): the row did not reach its fault", dying.fired.Load(), st)
			}
		})
		return eng, func() { dying.armed.Store(true) }
	}
	return eng, srvA.Close
}

// midFrameFault kills a shard server from inside a frame it is executing:
// once armed, the first store read of either server closes that server and
// holds the read until its connections are gone, so the frame's reply is
// never delivered — a batch that dies half-executed, not a server that was
// already down when the frame was sent.
type midFrameFault struct {
	armed, fired atomic.Bool
}

// wrap returns the store a server of the faulty cluster loads; a nil fault
// wraps nothing.
func (f *midFrameFault) wrap(store rdf.Graph) rdf.Graph {
	if f == nil {
		return store
	}
	return &dyingStore{Graph: store, fault: f}
}

type dyingStore struct {
	rdf.Graph
	fault *midFrameFault
	srv   *shardrpc.Server
}

func (d *dyingStore) Objects(subj rdf.ID, pred rdf.PID) []rdf.ID {
	if d.fault.armed.CompareAndSwap(true, false) {
		// Close waits for this very handler, so it runs beside it; it
		// severs the connections first, which is all the read waits for.
		d.fault.fired.Store(true)
		go d.srv.Close()
		time.Sleep(20 * time.Millisecond)
	}
	return d.Graph.Objects(subj, pred)
}

// deployments is the table of the differential harness
// (TestShardedWorldAnswersIdentical, TestShardedWorldVariantsIdentical):
// every way the repository can put a knowledge base under the engine. build returns the
// engine over w's world in that deployment and, for a fault row, the fault
// to inject once half the questions have been asked. A new deployment shape
// or a new fault is one more row.
var deployments = []struct {
	name  string
	build func(t *testing.T, w *World) (eng *core.Engine, fault func())
}{
	// A memory-mapped snapshot image, checked against the built world's
	// digest; IDs are preserved verbatim.
	{"image", func(t *testing.T, w *World) (*core.Engine, func()) {
		path := filepath.Join(t.TempDir(), "world.img")
		if err := snapshot.WriteImageFile(path, w.KB.Store); err != nil {
			t.Fatal(err)
		}
		im, err := snapshot.OpenImage(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { im.Close() })
		if im.Digest() != snapshot.Digest(w.KB.Store) {
			t.Fatal("the image holds another world")
		}
		return core.NewEngine(im, core.LocalIndex(im), w.KB.Taxonomy, w.Model, w.Stats), nil
	}},
	// Probing through two networked index servers, each holding the
	// whole world.
	{"cluster", func(t *testing.T, w *World) (*core.Engine, func()) {
		eng, _ := clusterEngine(t, w, nil)
		return eng, nil
	}},
	// One of the two servers is killed mid-run: the pool must fail over
	// to the survivor with no visible difference in any answer.
	{"cluster-replica-killed", func(t *testing.T, w *World) (*core.Engine, func()) {
		return clusterEngine(t, w, nil)
	}},
	// A server dies while executing a multi-probe frame: the frame fails
	// as a whole and is replayed on the survivor, never half-applied.
	{"cluster-frame-killed", func(t *testing.T, w *World) (*core.Engine, func()) {
		return clusterEngine(t, w, &midFrameFault{})
	}},
}

// defaultWorld builds, once for the package's tests, the default Freebase
// world every deployment serves.
var defaultWorld = sync.OnceValue(func() *World { return BuildWorld(world.DefaultConfig(kbgen.Freebase)) })

// TestShardedWorldAnswersIdentical is the persistence and cross-machine
// oracle in one: every deployment of the default world must return exactly
// what its in-process engine over the store returns — the same typed
// failure or the same value, values, path and template — over the full
// training corpus plus composed complex questions.
func TestShardedWorldAnswersIdentical(t *testing.T) {
	w := defaultWorld()
	qs := corpus.Questions(w.Pairs)
	if len(qs) == 0 {
		t.Fatal("no corpus questions")
	}
	for _, cp := range corpus.ComposeComplex(w.KB, 17, 20) {
		qs = append(qs, cp.Q)
	}
	ctx := context.Background()
	for _, d := range deployments {
		t.Run(d.name, func(t *testing.T) {
			eng, fault := d.build(t, w)
			diverged := 0
			for i, q := range qs {
				if fault != nil && i == len(qs)/2 {
					fault()
				}
				a, _, _, aerr := w.Engine.Answer(ctx, q, 0, false)
				b, _, _, berr := eng.Answer(ctx, q, 0, false)
				// The deployment may fail only the way the reference does:
				// an RPC or I/O failure would show up here as a foreign error.
				if !errors.Is(berr, aerr) {
					t.Errorf("outcome diverges for %q: %v vs %v", q, aerr, berr)
					diverged++
				} else if aerr == nil {
					if a.Value != b.Value || !reflect.DeepEqual(a.Values, b.Values) ||
						a.Path != b.Path || a.Template != b.Template {
						t.Errorf("answer diverges for %q:\n  reference: %q %v (%s)\n  %s: %q %v (%s)",
							q, a.Value, a.Values, a.Path, d.name, b.Value, b.Values, b.Path)
						diverged++
					}
				}
				if diverged > 5 {
					t.Fatal("too many divergences, stopping")
				}
			}
			t.Logf("compared %d questions", len(qs))
		})
	}
}

// TestShardedWorldVariantsIdentical extends the gate, over the same table,
// to the ranking, comparison and listing variants, which exercise the
// Subjects reverse index; a fault row runs them with the fault injected.
func TestShardedWorldVariantsIdentical(t *testing.T) {
	w := defaultWorld()
	qs := []string{
		"Which city has the largest population?",
		"Which city has the 3rd largest population?",
		"List cities by population",
	}
	for _, d := range deployments {
		t.Run(d.name, func(t *testing.T) {
			eng, fault := d.build(t, w)
			if fault != nil {
				fault()
			}
			for _, q := range qs {
				a, aok, aerr := askVariant(w.Engine, q)
				b, bok, berr := askVariant(eng, q)
				if aerr != nil || berr != nil {
					t.Fatalf("variant %q failed: %v / %v", q, aerr, berr)
				}
				if aok != bok {
					t.Errorf("variant answerability diverges for %q: %v vs %v", q, aok, bok)
					continue
				}
				if aok && (!reflect.DeepEqual(a.Entities, b.Entities) || !reflect.DeepEqual(a.Values, b.Values) || a.Path != b.Path) {
					t.Errorf("variant answer diverges for %q:\n  reference: %v %v\n  %s: %v %v",
						q, a.Entities, a.Values, d.name, b.Entities, b.Values)
				}
			}
		})
	}
}

// askVariant asks through the engine's one entry point with variant routing
// on, reporting whether the variant route answered; a question that fell
// through to the BFQ pipeline is "not a variant", not a failure.
func askVariant(e *core.Engine, q string) (core.VariantAnswer, bool, error) {
	ans, _, _, err := e.Answer(context.Background(), q, 0, true)
	if ans.Variant == nil {
		if core.Unanswerable(err) {
			err = nil
		}
		return core.VariantAnswer{}, false, err
	}
	return *ans.Variant, true, nil
}

// TestDistributedEngineHonorsDeadline: an expired context must fail the
// distributed probe path (and the whole answer) promptly with the
// context's error, instead of fanning out doomed RPCs.
func TestDistributedEngineHonorsDeadline(t *testing.T) {
	w := BuildWorld(world.DefaultConfig(kbgen.Freebase))
	store, digest := w.KB.Store, snapshot.Digest(w.KB.Store)
	addr, srv := startShardServer(t, store, digest)
	defer srv.Close()

	pool, err := shardrpc.NewPool(shardrpc.PoolOptions{
		Servers: []string{addr},
		Digest:  digest,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	remote := shardrpc.NewKB(pool)
	eng := core.NewEngine(store, remote, w.KB.Taxonomy, w.Model, w.Stats)

	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()

	start := time.Now()
	if _, err := remote.PathObjects(ctx, []rdf.Probe{{Subj: store.Entities()[0], Path: rdf.Path{store.Predicates()[0]}}}, make([][]rdf.ID, 1), nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("PathObjects err = %v, want context.DeadlineExceeded", err)
	}
	if _, _, _, err := eng.Answer(ctx, corpus.Questions(w.Pairs)[0], 0, false); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Answer err = %v, want context.DeadlineExceeded", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("expired-context calls took %v, want immediate failure", d)
	}
}
