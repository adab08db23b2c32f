package eval

import (
	"bytes"
	"context"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/kbgen"
	"repro/internal/rdf"
	"repro/internal/rdf/snapshot"
)

// TestSnapshotEngineAnswersIdentical is the persistence oracle: engines
// over an N-Triples round-tripped store and over a memory-mapped snapshot
// image must return exactly the answers of the engine over the freshly
// built store — over the full training corpus plus composed complex
// questions. The NT world re-interns every node (fresh IDs in scan order)
// while the image preserves IDs verbatim; both must be invisible at the
// answer layer.
func TestSnapshotEngineAnswersIdentical(t *testing.T) {
	w := BuildWorld(DefaultWorldConfig(kbgen.Freebase))
	store, ok := w.KB.Store.(*rdf.ShardedStore)
	if !ok {
		t.Fatalf("world store is %T, want *rdf.ShardedStore", w.KB.Store)
	}

	// World B: serialize to N-Triples and load back.
	var nt bytes.Buffer
	if err := rdf.WriteNTriples(store, &nt); err != nil {
		t.Fatal(err)
	}
	ntStore, err := rdf.LoadNTriples(bytes.NewReader(nt.Bytes()), store.NumShards())
	if err != nil {
		t.Fatal(err)
	}
	ntEng := core.NewEngine(ntStore, core.LocalIndex(ntStore), w.KB.Taxonomy, w.Model, w.Stats)

	// World C: snapshot image, opened with the built world's fingerprint.
	path := filepath.Join(t.TempDir(), "world.img")
	if err := snapshot.WriteImageFile(path, store); err != nil {
		t.Fatal(err)
	}
	im, err := snapshot.OpenImage(path, snapshot.OpenOptions{
		ExpectFingerprint: rdf.WorldFingerprint(store),
		ExpectShards:      store.NumShards(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer im.Close()
	imgEng := core.NewEngine(im, core.LocalIndex(im), w.KB.Taxonomy, w.Model, w.Stats)

	qs := corpus.Questions(w.Pairs)
	if len(qs) == 0 {
		t.Fatal("no corpus questions")
	}
	for _, cp := range corpus.ComposeComplex(w.KB, 17, 20) {
		qs = append(qs, cp.Q)
	}

	ctx := context.Background()
	diverged := 0
	for _, q := range qs {
		a, _, _, aerr := w.Engine.Answer(ctx, q, 0, false)
		aok := aerr == nil
		for _, alt := range []struct {
			name string
			eng  *core.Engine
		}{{"ntriples", ntEng}, {"image", imgEng}} {
			b, _, _, berr := alt.eng.Answer(ctx, q, 0, false)
			bok := berr == nil
			if aok != bok {
				t.Errorf("[%s] answerability diverges for %q: %v vs %v", alt.name, q, aok, bok)
				diverged++
			} else if aok {
				if a.Value != b.Value || !reflect.DeepEqual(a.Values, b.Values) ||
					a.Path != b.Path || a.Template != b.Template {
					t.Errorf("[%s] answer diverges for %q:\n  built: %q %v (%s)\n  %s: %q %v (%s)",
						alt.name, q, a.Value, a.Values, a.Path, alt.name, b.Value, b.Values, b.Path)
					diverged++
				}
			}
			if diverged > 5 {
				t.Fatalf("too many divergences, stopping")
			}
		}
	}
	t.Logf("compared %d questions across built/ntriples/image worlds", len(qs))
}
