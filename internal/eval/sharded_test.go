package eval

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/kbgen"
)

// TestShardedWorldAnswersIdentical is the layout-equivalence gate: a world
// partitioned four ways must return exactly the answers of a one-shard
// world, for the full training corpus and for composed complex questions. The layouts share the generation seed, so
// node IDs, the learned model and the decomposition statistics all match;
// any divergence is a sharded read path misbehaving.
func TestShardedWorldAnswersIdentical(t *testing.T) {
	cfg := DefaultWorldConfig(kbgen.Freebase)
	cfg.Shards = 1
	flat := BuildWorld(cfg)
	cfg.Shards = 4
	sharded := BuildWorld(cfg)

	if flat.KB.Store.NumShards() != 1 || sharded.KB.Store.NumShards() != 4 {
		t.Fatalf("worlds have %d and %d shards, want 1 and 4", flat.KB.Store.NumShards(), sharded.KB.Store.NumShards())
	}
	if flat.KB.Store.NumTriples() != sharded.KB.Store.NumTriples() {
		t.Fatalf("triple counts diverge: %d vs %d",
			flat.KB.Store.NumTriples(), sharded.KB.Store.NumTriples())
	}

	qs := corpus.Questions(flat.Pairs)
	if len(qs) == 0 {
		t.Fatal("no corpus questions")
	}
	for _, cp := range corpus.ComposeComplex(flat.KB, 17, 20) {
		qs = append(qs, cp.Q)
	}
	ctx := context.Background()
	diverged := 0
	for _, q := range qs {
		a, _, _, aerr := flat.Engine.Answer(ctx, q, 0, false)
		b, _, _, berr := sharded.Engine.Answer(ctx, q, 0, false)
		aok, bok := aerr == nil, berr == nil
		if aok != bok {
			t.Errorf("answerability diverges for %q: %v vs %v", q, aok, bok)
			diverged++
		} else if aok {
			if a.Value != b.Value || !reflect.DeepEqual(a.Values, b.Values) ||
				a.Path != b.Path || a.Template != b.Template {
				t.Errorf("answer diverges for %q:\n  flat:    %q %v (%s)\n  sharded: %q %v (%s)",
					q, a.Value, a.Values, a.Path, b.Value, b.Values, b.Path)
				diverged++
			}
		}
		if diverged > 5 {
			t.Fatal("too many divergences, stopping")
		}
	}
	t.Logf("compared %d questions across layouts", len(qs))
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

// TestShardedWorldVariantsIdentical extends the gate to the ranking,
// comparison and listing variants, which exercise the Subjects reverse
// index.
func TestShardedWorldVariantsIdentical(t *testing.T) {
	cfg := DefaultWorldConfig(kbgen.Freebase)
	cfg.Shards = 1
	flat := BuildWorld(cfg)
	cfg.Shards = 4
	sharded := BuildWorld(cfg)

	qs := []string{
		"Which city has the largest population?",
		"Which city has the 3rd largest population?",
		"List cities by population",
	}
	for _, q := range qs {
		a, aok, aerr := askVariant(flat.Engine, q)
		b, bok, berr := askVariant(sharded.Engine, q)
		if aerr != nil || berr != nil {
			t.Fatalf("variant %q failed: %v / %v", q, aerr, berr)
		}
		if aok != bok {
			t.Errorf("variant answerability diverges for %q: %v vs %v", q, aok, bok)
			continue
		}
		if !aok {
			continue
		}
		if !reflect.DeepEqual(a.Entities, b.Entities) || !reflect.DeepEqual(a.Values, b.Values) || a.Path != b.Path {
			t.Errorf("variant answer diverges for %q:\n  flat:    %v %v\n  sharded: %v %v",
				q, a.Entities, a.Values, b.Entities, b.Values)
		}
	}
}
