package core

import (
	"context"
	"sync"
	"testing"
)

// TestAnswerTimedMatchesAnswer checks the Timings Answer returns: stage
// latencies are disjoint sub-intervals of the total, and asking for a
// ranking does not change the answer.
func TestAnswerTimedMatchesAnswer(t *testing.T) {
	f := world(t)
	checked := 0
	for _, p := range f.pairs {
		if p.Noise {
			continue
		}
		want, wantOK := ask(f.engine, p.Q)
		got, _, tm, err := f.engine.Answer(context.Background(), p.Q, 3, false)
		gotOK := err == nil
		if gotOK != wantOK || got.Value != want.Value || got.Path != want.Path {
			t.Fatalf("Answer(%q, 3) = (%+v, %v), want (%+v, %v)", p.Q, got, gotOK, want, wantOK)
		}
		if tm.Total <= 0 {
			t.Fatalf("Total = %v for %q", tm.Total, p.Q)
		}
		if sum := tm.Parse + tm.Match + tm.Probe; sum > tm.Total {
			t.Fatalf("stage sum %v exceeds total %v for %q", sum, tm.Total, p.Q)
		}
		if gotOK && tm.Parse <= 0 {
			t.Fatalf("answered question recorded no parse time: %+v", tm)
		}
		checked++
		if checked == 25 {
			break
		}
	}
	if checked == 0 {
		t.Fatal("no clean questions checked")
	}
}

// TestConcurrentAnswerTimed runs Answer from many goroutines (run with
// -race): per-call timing state must never leak across calls.
func TestConcurrentAnswerTimed(t *testing.T) {
	f := world(t)
	questions := make([]string, 0, 8)
	for _, p := range f.pairs {
		if !p.Noise {
			questions = append(questions, p.Q)
			if len(questions) == 8 {
				break
			}
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, q := range questions {
				if _, _, tm, err := f.engine.Answer(context.Background(), q, 0, false); err == nil && tm.Total <= 0 {
					t.Errorf("non-positive total for %q", q)
					return
				}
			}
		}()
	}
	wg.Wait()
}
