package core

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// reply is everything Answer returns but the timings.
type reply struct {
	ans    Answer
	ranked []Ranked
	err    error
}

// ledgerQuestions is every class of question the ledger prices — BFQs,
// two-hop, unanswerable and variant questions — for the tests of the
// per-question scratch.
func ledgerQuestions(t *testing.T, f *fixture) []string {
	qc := allocationQuestions(t, f)
	var qs []string
	for _, class := range [][]string{qc.bfqs, qc.hops, qc.unanswerable, qc.variants} {
		qs = append(qs, class[:min(len(class), 16)]...)
	}
	return qs
}

// answerAll answers every question with the top 3 and variant routing on,
// as the server asks.
func answerAll(e *Engine, questions []string) []reply {
	out := make([]reply, len(questions))
	for i, q := range questions {
		ans, ranked, _, err := e.Answer(context.Background(), q, 3, true)
		out[i] = reply{ans, ranked, err}
	}
	return out
}

// TestConcurrentAnswer exercises the engine from many goroutines (the HTTP
// server's usage pattern) over every class of question. Run with -race to
// catch shared-state mutation; every reply — answer, ranking and error —
// must also equal the one the question gets alone. Each goroutine starts
// at another question, so different classes share the pooled scratches at
// once. The goroutines share an engine over freshly compiled symbols, so
// they fill its normalized-label memo together, from empty.
func TestConcurrentAnswer(t *testing.T) {
	f := world(t)
	questions := ledgerQuestions(t, f)
	serial := answerAll(f.engine, questions)

	cold := NewEngine(f.kb.Store, f.engine.Index, f.kb.Taxonomy, f.model, f.engine.Stats)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := range questions {
				i := (n + g*len(questions)/8) % len(questions)
				ans, ranked, _, err := cold.Answer(context.Background(), questions[i], 3, true)
				if got := (reply{ans, ranked, err}); !reflect.DeepEqual(got, serial[i]) {
					t.Errorf("concurrent answer to %q diverged:\n%+v\nalone:\n%+v", questions[i], got, serial[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// deepText is a deep copy of replies as text: every value they hold,
// followed through every pointer and slice.
func deepText(t *testing.T, replies []reply) string {
	type shown struct {
		Answer Answer
		Ranked []Ranked
		Err    string
	}
	all := make([]shown, len(replies))
	for i, r := range replies {
		all[i] = shown{r.ans, r.ranked, fmt.Sprint(r.err)}
	}
	b, err := json.Marshal(all)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestRepliesOutliveTheScratch: nothing Answer returns may point into the
// pooled scratch, which the next question reuses. The replies to every
// class of question are deep-copied, 100 other questions are answered on
// the same engine, and the replies must not have changed.
func TestRepliesOutliveTheScratch(t *testing.T) {
	f := world(t)
	questions := ledgerQuestions(t, f)
	replies := answerAll(f.engine, questions)
	want := deepText(t, replies)
	var others []string
	for _, p := range f.pairs[200:] {
		if len(others) == 100 {
			break
		}
		others = append(others, p.Q)
	}
	answerAll(f.engine, others)
	answerAll(f.engine, questions[len(questions)/2:])
	if got := deepText(t, replies); got != want {
		t.Errorf("replies changed after the engine answered other questions:\nbefore %s\nafter  %s", want, got)
	}
}

// footprint is the storage a scratch holds: the capacity of every slice
// field, a slab's included.
func footprint(s *scratch) int {
	n := 0
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Slice:
			n += v.Cap()
		case reflect.Struct:
			for i := range v.NumField() {
				walk(v.Field(i))
			}
		}
	}
	walk(reflect.ValueOf(s).Elem())
	return n
}

// TestScratchStopsGrowing: a scratch reused question after question keeps
// its storage, but asking the same questions again must not grow it — a
// field that is never emptied grows with every question and holds it all.
func TestScratchStopsGrowing(t *testing.T) {
	f := world(t)
	questions := ledgerQuestions(t, f)
	s := new(scratch)
	round := func() int {
		for _, q := range questions {
			f.engine.answer(context.Background(), s, q, 3, true)
			s.reset()
		}
		return footprint(s)
	}
	grown := round()
	for i := 0; i < 3; i++ {
		if n := round(); n != grown {
			t.Fatalf("round %d of the same questions grew the scratch from %d to %d elements", i+2, grown, n)
		}
	}
}
