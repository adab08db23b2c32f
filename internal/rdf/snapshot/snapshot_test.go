package snapshot

import (
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"repro/internal/kbgen"
	"repro/internal/rdf"
)

// testWorld generates a small world.
func testWorld(t testing.TB) *rdf.Store {
	t.Helper()
	return kbgen.Generate(kbgen.Config{Seed: 42, Flavor: kbgen.KBA, Scale: 12}).Store
}

// writeTestImage writes the world's image into a temp dir and returns the
// path.
func writeTestImage(t testing.TB, ss *rdf.Store) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "world.img")
	if err := WriteImageFile(path, ss); err != nil {
		t.Fatal(err)
	}
	return path
}

func openTestImage(t testing.TB, path string) *Image {
	t.Helper()
	im, err := OpenImage(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { im.Close() })
	return im
}

// TestImageMatchesStoreMethodByMethod is the backend table: every rdf.Graph
// method and every online free function of internal/rdf, checked on every
// backend against a naive model built from nothing but the world's triple
// list, and the store's offline methods on the store rows. A new backend
// is one more row.
func TestImageMatchesStoreMethodByMethod(t *testing.T) {
	ss := testWorld(t)
	rows := []struct {
		name  string
		g     rdf.Graph
		store *rdf.Store // nil for an image
	}{
		{"Store", ss, ss},
		{"Image", openTestImage(t, writeTestImage(t, ss)), nil},
	}
	m := newModel(ss)
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			m.check(t, row.g)
			if row.store == nil {
				return
			}
			m.checkOffline(t, row.store)
		})
	}
	if got, want := rows[1].g.(*Image).Digest(), Digest(ss); got != want {
		t.Fatalf("image digest %016x, want the store's %016x", got, want)
	}
}

// model is the reference the backend table checks against: the world's
// symbols and its triples in scan order, queried by linear search.
type model struct {
	sym     *rdf.Store
	triples []rdf.Triple
}

func newModel(ss *rdf.Store) *model {
	m := &model{sym: ss}
	ss.Triples(func(tr rdf.Triple) { m.triples = append(m.triples, tr) })
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

// check runs the online read API — the ten rdf.Graph methods and the
// free functions over them — against the model.
func (m *model) check(t *testing.T, g rdf.Graph) {
	t.Helper()
	if g.NumNodes() != m.sym.NumNodes() || g.NumTriples() != len(m.triples) {
		t.Fatalf("counts (%d,%d), want (%d,%d)", g.NumNodes(), g.NumTriples(), m.sym.NumNodes(), len(m.triples))
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
	}
	if !equalIDs(g.Entities(), m.sym.Entities()) {
		t.Fatal("Entities differ")
	}
	for p := rdf.PID(0); int(p) < m.sym.NumPredicates(); p++ {
		name := m.sym.PredName(p)
		if got, ok := g.PredID(name); g.PredName(p) != name || !ok || got != p {
			t.Fatalf("predicate %d: PredName %q, PredID(%q) = %v,%v", p, g.PredName(p), name, got, ok)
		}
	}
	if _, ok := g.PredID("no-such-predicate"); ok {
		t.Fatal("PredID invented a predicate")
	}

	// Index primitives, across every edge of the world.
	for _, tr := range m.triples {
		var objs []rdf.ID
		for _, x := range m.where(func(x rdf.Triple) bool { return x.S == tr.S && x.P == tr.P }) {
			objs = append(objs, x.O)
		}
		if got := g.Objects(tr.S, tr.P); !equalIDs(got, objs) {
			t.Fatalf("Objects(%d,%d) = %v, want %v", tr.S, tr.P, got, objs)
		}
		var subjs []rdf.ID
		for _, x := range m.where(func(x rdf.Triple) bool { return x.P == tr.P && x.O == tr.O }) {
			subjs = append(subjs, x.S)
		}
		if got := rdf.Subjects(g, tr.P, tr.O); !equalIDs(got, subjs) {
			t.Fatalf("Subjects(%d,%d) = %v, want %v", tr.P, tr.O, got, subjs)
		}
		// The method's order is the backend's own; only the set is specified.
		if got := sortedIDs(g.Subjects(tr.P, tr.O)); !equalIDs(got, subjs) {
			t.Fatalf("g.Subjects(%d,%d) = %v, want %v", tr.P, tr.O, got, subjs)
		}
	}
	if g.Objects(0, rdf.PID(m.sym.NumPredicates()-1)) != nil || rdf.Subjects(g, 0, 0) != nil || g.Subjects(0, 0) != nil {
		t.Fatal("absent lookups are not nil")
	}

	// Free functions: path keys and traversal.
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
		if got := rdf.PathObjects(nil, g, e, path); !equalIDs(got, want) {
			t.Fatalf("PathObjects(%d, %s) = %v, want %v", e, key, got, want)
		}
		reached += len(want)
	}
	if reached == 0 {
		t.Fatalf("no entity reaches anything over %s: the traversal checks are vacuous", key)
	}
}

// checkOffline runs the store's offline scan methods and the free
// functions over them against the model.
func (m *model) checkOffline(t *testing.T, ss *rdf.Store) {
	t.Helper()
	for id := rdf.ID(0); int(id) < m.sym.NumNodes(); id++ {
		label := m.sym.Label(id)
		var want []rdf.ID
		for _, x := range m.sym.NodesByLabel(label) {
			if m.sym.KindOf(x) == rdf.KindEntity {
				want = append(want, x)
			}
		}
		if got := ss.EntitiesByLabel(label); !equalIDs(got, want) {
			t.Fatalf("EntitiesByLabel(%q) = %v, want %v", label, got, want)
		}
	}
	if ps := ss.Predicates(); len(ps) != m.sym.NumPredicates() || (len(ps) > 0 && ps[len(ps)-1] != rdf.PID(len(ps)-1)) {
		t.Fatalf("Predicates = %v", ps)
	}
	if !reflect.DeepEqual(scan(ss.Triples), m.triples) {
		t.Fatal("Triples scan differs")
	}
	for _, tr := range m.triples {
		var preds []rdf.PID
		for _, x := range m.where(func(x rdf.Triple) bool { return x.S == tr.S && x.O == tr.O }) {
			preds = append(preds, x.P)
		}
		// Only the set is specified: a store lists predicates in the order
		// it was fed them.
		if got := sortedPIDs(ss.PredicatesBetween(tr.S, tr.O)); !equalPIDs(got, preds) {
			t.Fatalf("PredicatesBetween(%d,%d) = %v, want %v", tr.S, tr.O, got, preds)
		}
	}
	if ss.PredicatesBetween(0, 0) != nil {
		t.Fatal("absent PredicatesBetween is not nil")
	}
	for id := rdf.ID(0); int(id) < m.sym.NumNodes(); id++ {
		own := m.where(func(x rdf.Triple) bool { return x.S == id })
		var edges []rdf.Triple
		ss.OutEdges(id, func(p rdf.PID, o rdf.ID) { edges = append(edges, rdf.Triple{S: id, P: p, O: o}) })
		if !reflect.DeepEqual(edges, own) {
			t.Fatalf("OutEdges(%d) = %v, want %v", id, edges, own)
		}
		if got := scan(func(fn func(rdf.Triple)) { ss.SubjectTriples(id, fn) }); !reflect.DeepEqual(got, own) {
			t.Fatalf("SubjectTriples(%d) differs", id)
		}
		if got := rdf.OutDegree(ss, id); got != len(own) {
			t.Fatalf("OutDegree(%d) = %d, want %d", id, got, len(own))
		}
	}

	// PathsBetween finds every path PathObjects follows.
	const key = "marriage→person→name"
	path, _ := rdf.ParsePath(ss, key)
	for _, e := range m.sym.Entities() {
		for _, v := range rdf.PathObjects(nil, ss, e, path) {
			found := false
			for _, p := range rdf.PathsBetween(ss, e, v, 3, nil) {
				found = found || rdf.Key(ss, p) == key
			}
			if !found {
				t.Fatalf("PathsBetween(%d,%d) misses %s", e, v, key)
			}
		}
	}
}

// TestImageContentMatchesStore checks what the writer froze into the file
// against the store it was written from, in the orders the store promises:
// Objects for every (node, predicate) pair, and Subjects for every
// (predicate, object) key the store holds. The golden image
// digest pins the bytes; this pins their meaning.
func TestImageContentMatchesStore(t *testing.T) {
	ss := testWorld(t)
	im := openTestImage(t, writeTestImage(t, ss))
	for id := rdf.ID(0); int(id) < ss.NumNodes(); id++ {
		for p := rdf.PID(0); int(p) < ss.NumPredicates(); p++ {
			if got, want := im.Objects(id, p), ss.Objects(id, p); !equalIDs(got, want) {
				t.Fatalf("Objects(%d,%d) = %v, store says %v", id, p, got, want)
			}
		}
	}
	keys := map[[2]int]bool{}
	ss.Triples(func(tr rdf.Triple) {
		k := [2]int{int(tr.P), int(tr.O)}
		if keys[k] {
			return
		}
		keys[k] = true
		if got, want := im.Subjects(tr.P, tr.O), ss.Subjects(tr.P, tr.O); !equalIDs(got, want) {
			t.Fatalf("Subjects(%d,%d) = %v, store says %v", tr.P, tr.O, got, want)
		}
	})
	if len(keys) == 0 {
		t.Fatal("empty world: the check is vacuous")
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
		if im, err := OpenImage(trunc); err == nil {
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
		if im, err := OpenImage(flip); err == nil {
			im.Close()
			t.Fatalf("accepted image with bit flipped at offset %d", off)
		}
	}
}

// TestOpenImageRejectsWrongWorld: an image of one world must not pass for
// another. A caller decides by comparing Image.Digest with the Digest of
// the world it expects: another seed compares unequal; the world the image
// was written from compares equal.
func TestOpenImageRejectsWrongWorld(t *testing.T) {
	ss := testWorld(t)
	im := openTestImage(t, writeTestImage(t, ss))

	other := kbgen.Generate(kbgen.Config{Seed: 7, Flavor: kbgen.KBA, Scale: 5}).Store
	if Digest(other) == im.Digest() {
		t.Fatal("an image of another world has the expected digest")
	}
	if got, want := im.Digest(), Digest(ss); got != want {
		t.Fatalf("image digest %016x, want the store's %016x", got, want)
	}
}

// twinWorlds returns two stores that agree on every count — nodes,
// predicates, triples — and differ in one triple's object.
func twinWorlds() (a, b *rdf.Store) {
	twin := func(obj string) *rdf.Store {
		s := fuzzWorld()
		s.Add(s.Entity("ada"), s.Pred("spouse"), s.Entity(obj))
		return s
	}
	return twin("bob"), twin("paris")
}

// TestDigestSeesOneObject: two worlds with every count equal that differ in
// one triple's object have different digests, as stores and as images.
func TestDigestSeesOneObject(t *testing.T) {
	a, b := twinWorlds()
	if a.NumNodes() != b.NumNodes() || a.NumPredicates() != b.NumPredicates() ||
		a.NumTriples() != b.NumTriples() {
		t.Fatal("the twins' counts differ: the check is vacuous")
	}
	if Digest(a) == Digest(b) {
		t.Fatalf("worlds differing in one object share the digest %016x", Digest(a))
	}
	if openTestImage(t, writeTestImage(t, a)).Digest() == openTestImage(t, writeTestImage(t, b)).Digest() {
		t.Fatal("images of worlds differing in one object share a digest")
	}
}

// TestDigestEqualsImageDigest: for every flavor, a store's digest is the
// digest of the image written from it.
func TestDigestEqualsImageDigest(t *testing.T) {
	for _, f := range []kbgen.Flavor{kbgen.KBA, kbgen.Freebase, kbgen.DBpedia} {
		ss := kbgen.Generate(kbgen.Config{Seed: 42, Flavor: f, Scale: 6}).Store
		if got, want := openTestImage(t, writeTestImage(t, ss)).Digest(), Digest(ss); got != want {
			t.Errorf("%v: image digest %016x, store digest %016x", f, got, want)
		}
	}
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
	im, err := OpenImage(path)
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
