package core

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/corpus"
	"repro/internal/extract"
	"repro/internal/learn"
	"repro/internal/rdf"
	"repro/internal/text"
)

// TestEngineSurface pins the engine's shape: one exported method, Answer.
// A second entry point — a variant-only call, a BFQ-only call — is a second
// place to parse a question.
func TestEngineSurface(t *testing.T) {
	engine := reflect.TypeOf((*Engine)(nil))
	var methods []string
	for i := 0; i < engine.NumMethod(); i++ {
		methods = append(methods, engine.Method(i).Name)
	}
	if !reflect.DeepEqual(methods, []string{"Answer"}) {
		t.Errorf("*core.Engine exports %v, want exactly [Answer]", methods)
	}
}

// labelCounter counts the gazetteer lookups behind extract.FindMentions.
type labelCounter struct {
	rdf.Sharded
	n int
}

func (c *labelCounter) EntitiesByLabel(label string) []rdf.ID {
	c.n++
	return c.Sharded.EntitiesByLabel(label)
}

// lookups is the gazetteer cost of one FindMentions over toks.
func (c *labelCounter) lookups(toks []string) int {
	before := c.n
	extract.FindMentions(c, toks)
	n := c.n - before
	c.n = before
	return n
}

// TestParsesOncePerQuestion counts gazetteer lookups through one Answer
// call: a question's tokens are searched for mentions exactly once however
// many stages (variant routing, the direct path, decomposition, the chain's
// first hop) need them.
func TestParsesOncePerQuestion(t *testing.T) {
	f := world(t)
	ctx := context.Background()
	kb := &labelCounter{Sharded: f.kb.Store}
	engine := func(model *learn.Model) *Engine {
		return NewEngine(kb, f.engine.Index, f.kb.Taxonomy, model, f.engine.Stats)
	}

	// A BFQ with variant routing on, and the same BFQ trailing " or so"
	// under a model that learned that shape: the "or" sends it through
	// tryComparison, which needs the mentions, falls through, and must
	// leave them for the direct path.
	bfq, _ := answerableQuestion(t, f, 1)
	plain, err := askCtx(ctx, f.engine, bfq)
	if err != nil {
		t.Fatal(err)
	}
	orModel := &learn.Model{Theta: map[string]map[string]float64{plain.Template + " or so": {plain.Path: 1}}}
	for _, row := range []struct {
		q     string
		model *learn.Model
	}{
		{bfq, f.model},
		{bfq + " or so", orModel},
	} {
		kb.n = 0
		ans, _, _, err := engine(row.model).Answer(ctx, row.q, 3, true)
		if err != nil || ans.Variant != nil || ans.Value != plain.Value {
			t.Fatalf("Answer(%q) = %+v, %v; want the BFQ answer %q", row.q, ans, err, plain.Value)
		}
		if want := kb.lookups(text.Tokenize(row.q)); kb.n != want {
			t.Errorf("%q: %d gazetteer lookups, want %d (one FindMentions over its tokens)", row.q, kb.n, want)
		}
	}

	// A two-hop question: one FindMentions for the question, one per proper
	// span the δ oracle examines (those containing a mention), one per bound
	// question of the later hops — and none for the whole-question span or
	// the first hop, whose token sequences were parsed already.
	e := engine(f.model)
	for _, cp := range corpus.ComposeComplex(f.kb, 99, 30) {
		kb.n = 0
		ans, _, _, err := e.Answer(ctx, cp.Q, 0, true)
		if err != nil || len(ans.Steps) != 2 {
			continue
		}
		got := kb.n
		toks := text.Tokenize(cp.Q)
		want := kb.lookups(toks)
		mentions := extract.FindMentions(f.kb.Store, toks)
		for i := range toks {
			for j := i + 1; j <= len(toks); j++ {
				sp := text.Span{Start: i, End: j}
				for _, m := range mentions {
					if sp.Contains(m.Span) && sp.Len() < len(toks) {
						want += kb.lookups(toks[i:j])
						break
					}
				}
			}
		}
		for _, bound := range ans.Steps[1].Questions {
			want += kb.lookups(text.Tokenize(bound))
		}
		if got != want {
			t.Errorf("%q: %d gazetteer lookups, want %d", cp.Q, got, want)
		}
		return
	}
	t.Fatal("fixture decomposes no two-hop question")
}
