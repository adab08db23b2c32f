package snapshot

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"repro/internal/kbgen"
	"repro/internal/rdf"
)

// testWorld generates a small sharded world once per test binary.
func testWorld(t testing.TB) *rdf.ShardedStore {
	t.Helper()
	kb := kbgen.Generate(kbgen.Config{Seed: 42, Flavor: kbgen.KBA, Scale: 12, Shards: 4})
	ss, ok := kb.Store.(*rdf.ShardedStore)
	if !ok {
		t.Fatal("generator did not shard the store")
	}
	return ss
}

// writeTestImage writes the world's image into a temp dir and returns the
// path.
func writeTestImage(t testing.TB, ss *rdf.ShardedStore) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "world.img")
	if err := WriteImageFile(path, ss); err != nil {
		t.Fatal(err)
	}
	return path
}

func openTestImage(t testing.TB, path string) *Image {
	t.Helper()
	im, err := OpenImage(path, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { im.Close() })
	return im
}

// TestImageMatchesStoreMethodByMethod is the backend table: every rdf.Graph
// and rdf.Sharded method and every free function of internal/rdf, checked on
// every backend against a naive model built from nothing but the world's
// triple list. A new backend is one more row.
func TestImageMatchesStoreMethodByMethod(t *testing.T) {
	gen := func(shards int) *rdf.ShardedStore {
		return kbgen.Generate(kbgen.Config{Seed: 42, Flavor: kbgen.KBA, Scale: 12, Shards: shards}).Store.(*rdf.ShardedStore)
	}
	one, four := gen(1), gen(4)
	rows := []struct {
		name string
		g    rdf.Sharded
	}{
		{"ShardedStore(1)", one},
		{"ShardedStore(4)", four},
		{"Image(1)", openTestImage(t, writeTestImage(t, one))},
		{"Image(4)", openTestImage(t, writeTestImage(t, four))},
	}
	// Equal seeds give equal IDs in every layout, so one model serves all
	// rows; it takes symbols and the triple list from the one-shard store.
	m := newModel(one)
	var wantNT bytes.Buffer
	if err := rdf.WriteNTriples(one, &wantNT); err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			m.check(t, row.g)
			var nt bytes.Buffer
			if err := rdf.WriteNTriples(row.g, &nt); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(nt.Bytes(), wantNT.Bytes()) {
				t.Error("WriteNTriples differs from the reference serialization")
			}
		})
	}
	im := rows[3].g.(*Image)
	if got, want := im.fingerprint, rdf.WorldFingerprint(four); got != want {
		t.Fatalf("fingerprint %016x, want %016x", got, want)
	}
}

// model is the reference the backend table checks against: the world's
// symbols and its triples in scan order, queried by linear search.
type model struct {
	sym     rdf.Graph
	triples []rdf.Triple
}

func newModel(g rdf.Graph) *model {
	m := &model{sym: g}
	g.Triples(func(tr rdf.Triple) { m.triples = append(m.triples, tr) })
	return m
}

// where returns the triples matching keep, in scan order.
func (m *model) where(keep func(rdf.Triple) bool) []rdf.Triple {
	var out []rdf.Triple
	for _, tr := range m.triples {
		if keep(tr) {
			out = append(out, tr)
		}
	}
	return out
}

func sortedIDs(ids []rdf.ID) []rdf.ID {
	out := append([]rdf.ID(nil), ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sortedPIDs(ps []rdf.PID) []rdf.PID {
	out := append([]rdf.PID(nil), ps...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func scan(f func(func(rdf.Triple))) []rdf.Triple {
	var out []rdf.Triple
	f(func(tr rdf.Triple) { out = append(out, tr) })
	return out
}

func (m *model) check(t *testing.T, g rdf.Sharded) {
	t.Helper()
	n := g.NumShards()
	if g.NumNodes() != m.sym.NumNodes() || g.NumPredicates() != m.sym.NumPredicates() || g.NumTriples() != len(m.triples) {
		t.Fatalf("counts (%d,%d,%d), want (%d,%d,%d)", g.NumNodes(), g.NumPredicates(), g.NumTriples(),
			m.sym.NumNodes(), m.sym.NumPredicates(), len(m.triples))
	}

	// Interning lookups.
	for id := rdf.ID(0); int(id) < m.sym.NumNodes(); id++ {
		label := m.sym.Label(id)
		if g.Label(id) != label || g.KindOf(id) != m.sym.KindOf(id) {
			t.Fatalf("node %d: (%q,%v), want (%q,%v)", id, g.Label(id), g.KindOf(id), label, m.sym.KindOf(id))
		}
		if got, want := g.NodesByLabel(label), m.sym.NodesByLabel(label); !equalIDs(got, want) {
			t.Fatalf("NodesByLabel(%q) = %v, want %v", label, got, want)
		}
		if got, want := g.EntitiesByLabel(label), m.sym.EntitiesByLabel(label); !equalIDs(got, want) {
			t.Fatalf("EntitiesByLabel(%q) = %v, want %v", label, got, want)
		}
	}
	if !equalIDs(g.Entities(), m.sym.Entities()) {
		t.Fatal("Entities differ")
	}
	if !equalPIDs(g.Predicates(), m.sym.Predicates()) {
		t.Fatal("Predicates differ")
	}
	for _, p := range m.sym.Predicates() {
		name := m.sym.PredName(p)
		if got, ok := g.PredID(name); g.PredName(p) != name || !ok || got != p {
			t.Fatalf("predicate %d: PredName %q, PredID(%q) = %v,%v", p, g.PredName(p), name, got, ok)
		}
	}
	if _, ok := g.PredID("no-such-predicate"); ok {
		t.Fatal("PredID invented a predicate")
	}

	// Index primitives, across every edge of the world.
	if !reflect.DeepEqual(scan(g.Triples), m.triples) {
		t.Fatal("Triples scan differs")
	}
	for _, tr := range m.triples {
		var objs []rdf.ID
		for _, x := range m.where(func(x rdf.Triple) bool { return x.S == tr.S && x.P == tr.P }) {
			objs = append(objs, x.O)
		}
		if got := g.Objects(tr.S, tr.P); !equalIDs(got, objs) {
			t.Fatalf("Objects(%d,%d) = %v, want %v", tr.S, tr.P, got, objs)
		}
		var subjs []rdf.ID
		var preds []rdf.PID
		for _, x := range m.triples {
			if x.P == tr.P && x.O == tr.O {
				subjs = append(subjs, x.S)
			}
			if x.S == tr.S && x.O == tr.O {
				preds = append(preds, x.P)
			}
		}
		if got := g.Subjects(tr.P, tr.O); !equalIDs(got, subjs) {
			t.Fatalf("Subjects(%d,%d) = %v, want %v", tr.P, tr.O, got, subjs)
		}
		// Only the set is specified: a store lists predicates in the order
		// it was fed them.
		if got := sortedPIDs(g.PredicatesBetween(tr.S, tr.O)); !equalPIDs(got, preds) {
			t.Fatalf("PredicatesBetween(%d,%d) = %v, want %v", tr.S, tr.O, got, preds)
		}
		var inShard []rdf.ID
		for _, s := range subjs {
			if rdf.ShardIndex(s, n) == rdf.ShardIndex(tr.S, n) {
				inShard = append(inShard, s)
			}
		}
		if got := sortedIDs(g.ShardSubjects(rdf.ShardIndex(tr.S, n), tr.P, tr.O)); !equalIDs(got, inShard) {
			t.Fatalf("ShardSubjects(%d,%d,%d) = %v, want %v", rdf.ShardIndex(tr.S, n), tr.P, tr.O, got, inShard)
		}
	}
	if g.Objects(0, rdf.PID(g.NumPredicates()-1)) != nil || g.Subjects(0, 0) != nil || g.PredicatesBetween(0, 0) != nil {
		t.Fatal("absent lookups are not nil")
	}
	for id := rdf.ID(0); int(id) < m.sym.NumNodes(); id++ {
		own := m.where(func(x rdf.Triple) bool { return x.S == id })
		var edges []rdf.Triple
		g.OutEdges(id, func(p rdf.PID, o rdf.ID) { edges = append(edges, rdf.Triple{S: id, P: p, O: o}) })
		if !reflect.DeepEqual(edges, own) {
			t.Fatalf("OutEdges(%d) = %v, want %v", id, edges, own)
		}
		if got := scan(func(fn func(rdf.Triple)) { g.SubjectTriples(id, fn) }); !reflect.DeepEqual(got, own) {
			t.Fatalf("SubjectTriples(%d) differs", id)
		}
		if got := rdf.OutDegree(g, id); got != len(own) {
			t.Fatalf("OutDegree(%d) = %d, want %d", id, got, len(own))
		}
	}

	// Per-shard scans partition the global one.
	for i := 0; i < n; i++ {
		own := m.where(func(x rdf.Triple) bool { return rdf.ShardIndex(x.S, n) == i })
		if got := scan(func(fn func(rdf.Triple)) { g.ShardTriples(i, fn) }); !reflect.DeepEqual(got, own) {
			t.Fatalf("ShardTriples(%d) differs", i)
		}
		var subjects []rdf.ID
		for _, x := range own {
			if len(subjects) == 0 || subjects[len(subjects)-1] != x.S {
				subjects = append(subjects, x.S)
			}
		}
		if got := g.ShardSubjectIDs(i); !equalIDs(got, subjects) {
			t.Fatalf("ShardSubjectIDs(%d) differs", i)
		}
	}

	// Free functions: traversal, membership and path keys.
	const key = "marriage→person→name"
	path, ok := rdf.ParsePath(g, key)
	if !ok || rdf.Key(g, path) != key {
		t.Fatalf("ParsePath/Key round trip of %q: %v, %v", key, path, ok)
	}
	if _, ok := rdf.ParsePath(g, "marriage→no-such-predicate"); ok {
		t.Fatal("ParsePath accepted an unknown predicate")
	}
	reached := 0
	for _, e := range m.sym.Entities() {
		frontier := []rdf.ID{e}
		for _, p := range path {
			var next []rdf.ID
			for _, x := range m.triples {
				for _, f := range frontier {
					if x.S == f && x.P == p {
						next = append(next, x.O)
					}
				}
			}
			frontier = next
		}
		want := sortedIDs(frontier)
		got := rdf.PathObjects(g, e, path)
		if !equalIDs(got, want) {
			t.Fatalf("PathObjects(%d, %s) = %v, want %v", e, key, got, want)
		}
		for _, v := range got {
			reached++
			found := false
			for _, p := range rdf.PathsBetween(g, e, v, 3, nil) {
				found = found || rdf.Key(g, p) == key
			}
			if !found {
				t.Fatalf("PathsBetween(%d,%d) misses %s", e, v, key)
			}
		}
	}
	if reached == 0 {
		t.Fatalf("no entity reaches anything over %s: the traversal checks are vacuous", key)
	}
}

func TestImageSerializationByteIdentical(t *testing.T) {
	ss := testWorld(t)
	im := openTestImage(t, writeTestImage(t, ss))
	var a, b bytes.Buffer
	if err := rdf.WriteNTriples(ss, &a); err != nil {
		t.Fatal(err)
	}
	if err := rdf.WriteNTriples(im, &b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("image N-Triples serialization differs from the store's")
	}
}

// TestImageOfImage checks the writer runs off the public read API alone: an
// image taken of an image is byte-identical to the original file.
func TestImageOfImage(t *testing.T) {
	ss := testWorld(t)
	path := writeTestImage(t, ss)
	im := openTestImage(t, path)
	var second bytes.Buffer
	if err := WriteImage(&second, im); err != nil {
		t.Fatal(err)
	}
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(orig, second.Bytes()) {
		t.Fatal("image of image is not byte-identical")
	}
}

func TestOpenImageRejectsTruncation(t *testing.T) {
	ss := testWorld(t)
	path := writeTestImage(t, ss)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 4, len(imgMagic), fixedHeaderLen, fixedHeaderLen + 40,
		len(orig) / 2, len(orig) - 1} {
		trunc := filepath.Join(t.TempDir(), "trunc.img")
		if err := os.WriteFile(trunc, orig[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		if im, err := OpenImage(trunc, OpenOptions{}); err == nil {
			im.Close()
			t.Fatalf("accepted image truncated to %d of %d bytes", n, len(orig))
		}
	}
}

func TestOpenImageRejectsBitFlips(t *testing.T) {
	ss := testWorld(t)
	path := writeTestImage(t, ss)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	flip := filepath.Join(dir, "flip.img")
	// Flip one bit at a sample of offsets covering the header and every
	// section; each flipped file must be rejected.
	step := len(orig)/257 + 1
	for off := 0; off < len(orig); off += step {
		mut := append([]byte(nil), orig...)
		mut[off] ^= 0x10
		if err := os.WriteFile(flip, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		if im, err := OpenImage(flip, OpenOptions{}); err == nil {
			im.Close()
			t.Fatalf("accepted image with bit flipped at offset %d", off)
		}
	}
}

func TestOpenImageRejectsWrongWorld(t *testing.T) {
	ss := testWorld(t)
	path := writeTestImage(t, ss)

	other := kbgen.Generate(kbgen.Config{Seed: 7, Flavor: kbgen.KBA, Scale: 5, Shards: 4})
	otherSS := other.Store.(*rdf.ShardedStore)
	wrongFP := rdf.WorldFingerprint(otherSS)
	if _, err := OpenImage(path, OpenOptions{ExpectFingerprint: wrongFP}); err == nil {
		t.Fatal("accepted image from a different world")
	}
	if _, err := OpenImage(path, OpenOptions{ExpectShards: ss.NumShards() + 1}); err == nil {
		t.Fatal("accepted image with wrong shard count")
	}
	// The real fingerprint and shard count open fine.
	im, err := OpenImage(path, OpenOptions{
		ExpectFingerprint: rdf.WorldFingerprint(ss),
		ExpectShards:      ss.NumShards(),
	})
	if err != nil {
		t.Fatal(err)
	}
	im.Close()
}

func TestWriteImageFilePublishesAtomically(t *testing.T) {
	ss := testWorld(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "world.img")
	if err := WriteImageFile(path, ss); err != nil {
		t.Fatal(err)
	}
	// Overwrite in place: the previous image must stay openable throughout,
	// and no temp files may be left behind.
	im, err := OpenImage(path, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer im.Close()
	if err := WriteImageFile(path, ss); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "world.img" {
		t.Fatalf("directory not clean after publish: %v", entries)
	}
	// The mapping taken before the overwrite still reads consistently.
	if im.NumTriples() != ss.NumTriples() {
		t.Fatal("pre-overwrite mapping corrupted")
	}
}

func equalIDs(a, b []rdf.ID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalPIDs(a, b []rdf.PID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
