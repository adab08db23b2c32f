package rdf_test

// External test package so the equivalence suite can generate realistic
// knowledge bases through kbgen (which itself imports rdf).

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"repro/internal/kbgen"
	"repro/internal/rdf"
)

// genStore builds a realistic one-shard KB, in generation order, as the
// reference for equivalence checks.
func genStore(t testing.TB) *rdf.ShardedStore {
	t.Helper()
	kb := kbgen.Generate(kbgen.Config{Seed: 7, Flavor: kbgen.Freebase, Scale: 12})
	s, ok := kb.Store.(*rdf.ShardedStore)
	if !ok || s.NumShards() != 1 {
		t.Fatalf("default generation returned %T", kb.Store)
	}
	return s
}

// reShard serializes a store and loads it back as a ShardedStore, giving an
// independent sharded copy whose node IDs match the original.
func reShard(t testing.TB, s *rdf.ShardedStore, n int) *rdf.ShardedStore {
	t.Helper()
	var buf bytes.Buffer
	if err := rdf.WriteNTriples(s, &buf); err != nil {
		t.Fatal(err)
	}
	// Node IDs survive a save/load cycle only in first-seen order, so
	// round-trip the original too for ID-aligned comparisons.
	ss, err := rdf.LoadNTriples(&buf, n)
	if err != nil {
		t.Fatal(err)
	}
	return ss
}

func TestShardedStoreEquivalence(t *testing.T) {
	s := genStore(t)
	ss := rdf.Repartition(s, 4)

	if ss.NumShards() != 4 {
		t.Fatalf("NumShards = %d", ss.NumShards())
	}
	if ss.NumTriples() != s.NumTriples() || ss.NumNodes() != s.NumNodes() || ss.NumPredicates() != s.NumPredicates() {
		t.Fatalf("counts diverge: triples %d/%d nodes %d/%d preds %d/%d",
			ss.NumTriples(), s.NumTriples(), ss.NumNodes(), s.NumNodes(), ss.NumPredicates(), s.NumPredicates())
	}

	// Global scan order is identical.
	var a, b []rdf.Triple
	s.Triples(func(t rdf.Triple) { a = append(a, t) })
	ss.Triples(func(t rdf.Triple) { b = append(b, t) })
	if !reflect.DeepEqual(a, b) {
		t.Fatal("Triples scan order diverges between layouts")
	}

	// Point lookups agree for every subject and predicate.
	name, _ := s.PredID("name")
	for subj := rdf.ID(0); int(subj) < s.NumNodes(); subj++ {
		if !reflect.DeepEqual(s.Objects(subj, name), ss.Objects(subj, name)) {
			t.Fatalf("Objects(%d, name) diverges", subj)
		}
		if rdf.OutDegree(s, subj) != rdf.OutDegree(ss, subj) {
			t.Fatalf("OutDegree(%d) diverges", subj)
		}
		var ea, eb []rdf.Triple
		s.OutEdges(subj, func(p rdf.PID, o rdf.ID) { ea = append(ea, rdf.Triple{S: subj, P: p, O: o}) })
		ss.OutEdges(subj, func(p rdf.PID, o rdf.ID) { eb = append(eb, rdf.Triple{S: subj, P: p, O: o}) })
		if !reflect.DeepEqual(ea, eb) {
			t.Fatalf("OutEdges(%d) diverges", subj)
		}
	}

	// Traversals agree over every (entity, multi-edge path) pair.
	path, ok := rdf.ParsePath(s, "marriage→person→name")
	if !ok {
		t.Fatal("marriage→person→name not present")
	}
	for _, e := range s.Entities() {
		if !reflect.DeepEqual(rdf.PathObjects(s, e, path), rdf.PathObjects(ss, e, path)) {
			t.Fatalf("PathObjects(%d) diverges", e)
		}
	}

	// Subjects agrees, ascending in both layouts.
	cat, ok := s.PredID("category")
	if !ok {
		t.Fatal("category predicate missing")
	}
	for _, obj := range s.NodesByLabel("person") {
		got := ss.Subjects(cat, obj)
		if !reflect.DeepEqual(got, s.Subjects(cat, obj)) {
			t.Fatalf("Subjects diverges for obj %d", obj)
		}
		for i := 1; i < len(got); i++ {
			if got[i-1] >= got[i] {
				t.Fatalf("Subjects not ascending for obj %d", obj)
			}
		}
	}
}

func TestShardTriplesPartition(t *testing.T) {
	s := genStore(t)
	ss := rdf.Repartition(s, 5)
	seen := make(map[rdf.Triple]int)
	total := 0
	for i := 0; i < ss.NumShards(); i++ {
		prev := rdf.ID(-1)
		n := 0
		ss.ShardTriples(i, func(tr rdf.Triple) {
			if tr.S < prev {
				t.Fatalf("shard %d not in ascending subject order", i)
			}
			prev = tr.S
			seen[tr]++
			n++
		})
		// A realistic KB should spread across every shard.
		if n == 0 {
			t.Errorf("shard %d is empty", i)
		}
		total += n
	}
	if total != s.NumTriples() {
		t.Fatalf("shards cover %d triples, store has %d", total, s.NumTriples())
	}
	for tr, n := range seen {
		if n != 1 {
			t.Fatalf("triple %v visited %d times across shards", tr, n)
		}
	}
}

func TestShardedWriteNTriplesIdentical(t *testing.T) {
	s := genStore(t)
	ss := rdf.Repartition(s, 3)
	var a, b bytes.Buffer
	if err := rdf.WriteNTriples(s, &a); err != nil {
		t.Fatal(err)
	}
	if err := rdf.WriteNTriples(ss, &b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("serializations diverge between layouts")
	}
}

func TestLoadNTriples(t *testing.T) {
	s := genStore(t)
	ss := reShard(t, s, 4)
	// Compare against a one-shard load of the same serialization.
	var buf bytes.Buffer
	if err := rdf.WriteNTriples(s, &buf); err != nil {
		t.Fatal(err)
	}
	seq, err := rdf.LoadNTriples(&buf, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ss.NumTriples() != seq.NumTriples() || ss.NumNodes() != seq.NumNodes() {
		t.Fatalf("parallel load diverges: triples %d/%d nodes %d/%d",
			ss.NumTriples(), seq.NumTriples(), ss.NumNodes(), seq.NumNodes())
	}
	var a, b []rdf.Triple
	seq.Triples(func(t rdf.Triple) { a = append(a, t) })
	ss.Triples(func(t rdf.Triple) { b = append(b, t) })
	if !reflect.DeepEqual(a, b) {
		t.Fatal("parallel load scan order diverges from sequential load")
	}
}

func TestAddBatchDeduplicates(t *testing.T) {
	ss := rdf.NewShardedStore(3)
	a := ss.Entity("alpha")
	b := ss.Entity("beta")
	p := ss.Pred("knows")
	ss.Add(a, p, b)
	ss.AddBatch([]rdf.Triple{
		{S: a, P: p, O: b}, // already present
		{S: b, P: p, O: a},
		{S: b, P: p, O: a}, // duplicated inside the batch
	})
	if ss.NumTriples() != 2 {
		t.Fatalf("NumTriples = %d, want 2", ss.NumTriples())
	}
}

// TestShardedConcurrentReads drives point probes from many goroutines; run
// under -race this checks the read paths share no hidden mutable state.
func TestShardedConcurrentReads(t *testing.T) {
	s := genStore(t)
	ss := rdf.Repartition(s, 4)
	path, _ := rdf.ParsePath(ss, "marriage→person→name")
	ents := ss.Entities()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(ents); i += 8 {
				rdf.PathObjects(ss, ents[i], path)
				rdf.OutDegree(ss, ents[i])
				ss.OutEdges(ents[i], func(rdf.PID, rdf.ID) {})
			}
			ss.ShardTriples(w%ss.NumShards(), func(rdf.Triple) {})
		}(w)
	}
	wg.Wait()
}
