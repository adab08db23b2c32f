// End-to-end integration tests across module boundaries: generation →
// offline learning → online answering → persistence, exercised through the
// same wiring the tools and examples use.
package repro

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/eval"
	"repro/internal/kbgen"
	"repro/internal/learn"
	"repro/internal/rdf"
	"repro/internal/text"
	"repro/kbqa"
)

// TestEndToEndPipeline runs the complete offline+online pipeline and
// checks global accuracy on held-out-style questions (fresh instantiations
// of known intents about entities the corpus may not have covered).
func TestEndToEndPipeline(t *testing.T) {
	w := eval.BuildWorld(eval.WorldConfig{
		Flavor: kbgen.Freebase, Seed: 99, Scale: 25, PairsPerIntent: 30, NoiseRate: 0.15,
	})
	// Fresh questions: first paraphrase of each intent instantiated with
	// the LAST askable subject (corpus sampling is uniform, so this often
	// includes entities never asked about in training).
	total, right := 0, 0
	for _, it := range w.KB.Intents {
		subs := w.KB.SubjectsWithPath(it)
		if len(subs) == 0 {
			continue
		}
		e := subs[len(subs)-1]
		q := text.Normalize(it.Paraphrases[0])
		q = text.Join(text.Tokenize(q)) // canonical
		q = replaceHole(q, w.KB.Store.Label(e))
		total++
		ans, _, _, err := w.Engine.Answer(context.Background(), q, 0, false)
		if err == nil && ans.Path == it.PathKey {
			right++
		}
	}
	if total == 0 {
		t.Fatal("no probe questions")
	}
	acc := float64(right) / float64(total)
	if acc < 0.85 {
		t.Errorf("held-out-entity accuracy %.2f (%d/%d), want >= 0.85", acc, right, total)
	}
}

func replaceHole(pattern, entity string) string {
	toks := text.Tokenize(pattern)
	for i, tok := range toks {
		if tok == "$e" {
			out := append(append([]string{}, toks[:i]...), text.Tokenize(entity)...)
			out = append(out, toks[i+1:]...)
			return text.Join(out)
		}
	}
	return pattern
}

// TestKBSerializationPreservesAnswers round-trips the knowledge base
// through N-Triples and checks that online answering over the reloaded
// store gives identical results (the taxonomy and model are reused: the
// store is the only serialized piece here).
func TestKBSerializationPreservesAnswers(t *testing.T) {
	w := eval.BuildWorld(eval.WorldConfig{
		Flavor: kbgen.DBpedia, Seed: 5, Scale: 15, PairsPerIntent: 15,
	})
	var buf bytes.Buffer
	if err := rdf.WriteNTriples(w.KB.Store, &buf); err != nil {
		t.Fatal(err)
	}
	reloaded, err := rdf.LoadNTriples(&buf, 1)
	if err != nil {
		t.Fatal(err)
	}
	if reloaded.NumTriples() != w.KB.Store.NumTriples() {
		t.Fatalf("triples: %d vs %d", reloaded.NumTriples(), w.KB.Store.NumTriples())
	}
	// Spot check: every intent's first subject answers identically.
	for _, it := range w.KB.Intents {
		subs := w.KB.SubjectsWithPath(it)
		if len(subs) == 0 {
			continue
		}
		path, _ := rdf.ParsePath(w.KB.Store, it.PathKey)
		origVals := labelsOf(w.KB.Store, rdf.PathObjects(w.KB.Store, subs[0], path))

		label := w.KB.Store.Label(subs[0])
		var again []string
		path2, ok := rdf.ParsePath(reloaded, it.PathKey)
		if !ok {
			t.Fatalf("path %s lost in serialization", it.PathKey)
		}
		for _, e2 := range reloaded.EntitiesByLabel(label) {
			vals := labelsOf(reloaded, rdf.PathObjects(reloaded, e2, path2))
			if len(vals) > 0 {
				again = vals
				break
			}
		}
		if len(origVals) > 0 && len(again) == 0 {
			t.Fatalf("intent %s: values lost for %q", it.PathKey, label)
		}
	}
}

func labelsOf(s rdf.Graph, ids []rdf.ID) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = text.Normalize(s.Label(id))
	}
	return out
}

// TestModelPortability: a model learned in one process state answers
// identically after gob round-trip, via the public API.
func TestModelPortability(t *testing.T) {
	sys, err := kbqa.Build(kbqa.Options{Flavor: "dbpedia", Seed: 13, Scale: 15, PairsPerIntent: 15})
	if err != nil {
		t.Fatal(err)
	}
	qs := sys.SampleQuestions(10)
	type reply struct {
		v, p string
		ok   bool
	}
	ask := func(sys *kbqa.System, q string) reply {
		res, err := sys.Query(context.Background(), q)
		if err != nil || res.Answer == nil {
			return reply{}
		}
		return reply{res.Answer.Value, res.Answer.Predicate, true}
	}
	before := make([]reply, len(qs))
	for i, q := range qs {
		before[i] = ask(sys, q)
	}
	var buf bytes.Buffer
	if err := sys.SaveModel(&buf); err != nil {
		t.Fatal(err)
	}
	if err := sys.LoadModel(&buf); err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		if after := ask(sys, q); after != before[i] {
			t.Fatalf("answer changed after model round trip for %q: %+v vs %+v", q, after, before[i])
		}
	}
}

// TestLearnerIsPureOverQA: learning must not mutate the knowledge base
// (observation building reads only).
func TestLearnerIsPureOverQA(t *testing.T) {
	w := eval.BuildWorld(eval.WorldConfig{
		Flavor: kbgen.DBpedia, Seed: 3, Scale: 12, PairsPerIntent: 10,
	})
	triples := w.KB.Store.NumTriples()
	nodes := w.KB.Store.NumNodes()
	qa := make([]learn.QA, 0, len(w.Pairs))
	for _, p := range w.Pairs {
		qa = append(qa, learn.QA{Q: p.Q, A: p.A})
	}
	w.Learner().Learn(qa)
	if w.KB.Store.NumTriples() != triples || w.KB.Store.NumNodes() != nodes {
		t.Error("learning mutated the knowledge base")
	}
}
