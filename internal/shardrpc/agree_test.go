package shardrpc

import (
	"context"
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/rdf"
	"repro/internal/rdf/snapshot"
)

// drawProbe draws one probe over g: a subject from the whole ID space —
// entities, mediators, literals and IDs past the last node — and a path of
// 0 to 4 predicates, each either one the frontier has an edge along or any
// PID at all, so that paths of predicates that never follow each other, and
// unknown predicates, are drawn too.
func drawProbe(rng *rand.Rand, g *rdf.Store, literals []rdf.ID) rdf.Probe {
	n, np := g.NumNodes(), uint32(g.NumPredicates())
	var p rdf.Probe
	switch rng.IntN(8) {
	case 0, 1:
		p.Subj = literals[rng.IntN(len(literals))]
	case 2:
		p.Subj = rdf.ID(n + rng.IntN(4))
	case 3:
		p.Subj = rdf.ID(rng.Uint32())
	default:
		p.Subj = rdf.ID(rng.IntN(n))
	}
	front := []rdf.ID{p.Subj}
	for range rng.IntN(5) {
		var pred rdf.PID
		if out := edgesOf(g, front); len(out) > 0 && rng.IntN(3) > 0 {
			pred = out[rng.IntN(len(out))]
		} else if rng.IntN(8) == 0 {
			pred = rdf.PID(rng.Uint32())
		} else {
			pred = rdf.PID(rng.Uint32N(np + 2))
		}
		p.Path = append(p.Path, pred)
		front = rdf.PathObjects(nil, g, p.Subj, p.Path)
	}
	return p
}

// edgesOf returns the predicates some node of front has an edge along.
func edgesOf(g *rdf.Store, front []rdf.ID) []rdf.PID {
	var out []rdf.PID
	for _, p := range g.Predicates() {
		for _, n := range front {
			if len(g.Objects(n, p)) > 0 {
				out = append(out, p)
				break
			}
		}
	}
	return out
}

// FuzzIndexesAgree: the three core.Index implementations — the in-memory
// store, a mapped image of it in a temporary file, and a loopback 2-server
// cluster — return the same sets, or the same error, for any batch of 1 to
// 8 probes drawn from seed (literal subjects, repeated probes and paths of
// predicates that never follow each other included) and for any
// Subjects(pred, obj) call.
func FuzzIndexesAgree(f *testing.F) {
	store := testWorld(f)
	path := filepath.Join(f.TempDir(), "world.img")
	if err := snapshot.WriteImageFile(path, store); err != nil {
		f.Fatal(err)
	}
	im, err := snapshot.OpenImage(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { im.Close() })
	indexes := []struct {
		name string
		idx  core.Index
	}{
		{"store", core.LocalIndex(store)},
		{"image", core.LocalIndex(im)},
		{"cluster", NewKB(twoServers(f, store, false))},
	}
	var literals []rdf.ID
	for id := range store.NumNodes() {
		if store.KindOf(rdf.ID(id)) == rdf.KindLiteral {
			literals = append(literals, rdf.ID(id))
		}
	}
	var triples []rdf.Triple
	store.Triples(func(tr rdf.Triple) { triples = append(triples, tr) })
	for seed := range uint64(24) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		rng := rand.New(rand.NewPCG(seed, seed>>32^0x9e3779b97f4a7c15))
		ctx := context.Background()
		batch := make([]rdf.Probe, 1+rng.IntN(8))
		for i := range batch {
			if i > 0 && rng.IntN(4) == 0 {
				batch[i] = batch[rng.IntN(i)]
			} else {
				batch[i] = drawProbe(rng, store, literals)
			}
		}
		pred, obj := rdf.PID(rng.Uint32N(uint32(store.NumPredicates())+2)), rdf.ID(rng.IntN(store.NumNodes()+4))
		if rng.IntN(2) == 0 {
			tr := triples[rng.IntN(len(triples))]
			pred, obj = tr.P, tr.O
		}
		var wantSets [][]rdf.ID
		var wantSubjs []rdf.ID
		var wantErr, wantSubjErr error
		for i, x := range indexes {
			sets, err := readAll(ctx, x.idx, batch)
			subjs, subjErr := x.idx.Subjects(ctx, pred, obj)
			if i == 0 {
				wantSets, wantErr, wantSubjs, wantSubjErr = sets, err, subjs, subjErr
				continue
			}
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("%s: PathObjects(%v) error %v, store says %v", x.name, batch, err, wantErr)
			}
			for j := range sets {
				if !slices.Equal(sets[j], wantSets[j]) {
					t.Fatalf("%s: PathObjects(%+v) = %v, store says %v", x.name, batch[j], sets[j], wantSets[j])
				}
			}
			if fmt.Sprint(subjErr) != fmt.Sprint(wantSubjErr) || !slices.Equal(subjs, wantSubjs) {
				t.Fatalf("%s: Subjects(%d, %d) = %v, %v; store says %v, %v", x.name, pred, obj, subjs, subjErr, wantSubjs, wantSubjErr)
			}
		}
	})
}
