package kbqa

import (
	"context"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/rdf"
	"repro/internal/rdf/snapshot"
)

// oneObjectOff copies src with the object of its first literal-valued
// triple replaced by another literal. Every node is interned in src's ID
// order and every triple added in src's scan order, so IDs mean what they
// meant and every count — nodes, predicates, triples — is equal:
// the two worlds differ in that one object only.
func oneObjectOff(t *testing.T, src *rdf.Store) *rdf.Store {
	t.Helper()
	dst := rdf.NewStore()
	var literals []rdf.ID
	for id := rdf.ID(0); int(id) < src.NumNodes(); id++ {
		switch src.KindOf(id) {
		case rdf.KindEntity:
			dst.NewAmbiguousEntity(src.Label(id))
		case rdf.KindMediator:
			dst.Mediator(src.Label(id))
		default:
			dst.Literal(src.Label(id))
			literals = append(literals, id)
		}
	}
	for p := rdf.PID(0); int(p) < src.NumPredicates(); p++ {
		dst.Pred(src.PredName(p))
	}
	swapped := false
	src.Triples(func(tr rdf.Triple) {
		if !swapped && src.KindOf(tr.O) == rdf.KindLiteral {
			for _, lit := range literals {
				if !slices.Contains(src.Objects(tr.S, tr.P), lit) {
					tr.O, swapped = lit, true
					break
				}
			}
		}
		dst.Add(tr.S, tr.P, tr.O)
	})
	if !swapped || dst.NumNodes() != src.NumNodes() || dst.NumPredicates() != src.NumPredicates() ||
		dst.NumTriples() != src.NumTriples() {
		t.Fatal("the copy is not one object off with every count equal")
	}
	return dst
}

// otherWorld returns a system over s's world one object off, running s's
// model and statistics: what a frontend booted with the same flags, sizes
// and model over a slightly different world would be.
func otherWorld(t *testing.T, s *System) *System {
	t.Helper()
	w := *s.world
	kb := *w.KB
	kb.Store = oneObjectOff(t, kb.Store)
	w.KB, w.Symbols = &kb, core.CompileSymbols(kb.Store)
	other, err := newSystem(&w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return other
}

// TestBuildRefusesKBImageOfOtherWorld: Build fails over an image of a world
// one object off the one its options describe, and over an image of another
// seed, and boots over an image of its own world.
func TestBuildRefusesKBImageOfOtherWorld(t *testing.T) {
	opts := Options{Flavor: "freebase", Seed: 11, Scale: 8, PairsPerIntent: 10}
	s, err := Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	image := func(name string, store *rdf.Store) string {
		path := filepath.Join(dir, name)
		if err := snapshot.WriteImageFile(path, store); err != nil {
			t.Fatal(err)
		}
		return path
	}
	other, err := Build(Options{Flavor: "freebase", Seed: 7, Scale: 8, PairsPerIntent: 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, path string
		boots      bool
	}{
		{"one object off", image("off.img", oneObjectOff(t, s.world.KB.Store)), false},
		{"another seed", image("seed7.img", other.world.KB.Store), false},
		{"its own world", image("own.img", s.world.KB.Store), true},
	} {
		withImage := opts
		withImage.KBImage = c.path
		sys, err := Build(withImage)
		if (err == nil) != c.boots {
			t.Errorf("%s: Build error %v, want boot %v", c.name, err, c.boots)
		}
		if sys != nil {
			sys.Close()
		}
	}
}

// TestCacheDirRefusesOtherWorld: a cache directory written by a Server over
// one world replays nothing into a Server over a world one object off, even
// though flavor, sizes and model are the same.
func TestCacheDirRefusesOtherWorld(t *testing.T) {
	s := smallSystem(t)
	dir := t.TempDir()
	ctx := context.Background()
	sv1 := mustServer(t, s, ServerOptions{CacheDir: dir})
	qs := s.SampleQuestions(5)
	for _, q := range qs {
		if _, err := sv1.Query(ctx, q); err != nil && !IsUnanswerable(err) {
			t.Fatal(err)
		}
	}
	if err := sv1.Close(); err != nil {
		t.Fatal(err)
	}

	sv2 := mustServer(t, otherWorld(t, s), ServerOptions{CacheDir: dir})
	defer sv2.Close()
	if m := sv2.Metrics(); m.CacheEntries != 0 {
		t.Fatalf("%d answers of another world replayed", m.CacheEntries)
	}
	for _, q := range qs {
		if _, err := sv2.Query(ctx, q); err != nil && !IsUnanswerable(err) {
			t.Fatal(err)
		}
	}
	if m := sv2.Metrics(); m.CachePersistHits != 0 || m.CacheMisses != uint64(len(qs)) {
		t.Errorf("persist-hits/misses = %d/%d, want 0/%d", m.CachePersistHits, m.CacheMisses, len(qs))
	}
}
