package core

import (
	"sync"
	"testing"
)

// TestConcurrentAnswer exercises the engine from many goroutines (the HTTP
// server's usage pattern). Run with -race to catch shared-state mutation;
// answers must also be identical across goroutines. The goroutines share an
// engine over freshly compiled symbols, so they fill its normalized-label
// memo together, from empty.
func TestConcurrentAnswer(t *testing.T) {
	f := world(t)
	questions := make([]string, 0, 16)
	for _, p := range f.pairs {
		if !p.Noise {
			questions = append(questions, p.Q)
			if len(questions) == 16 {
				break
			}
		}
	}
	type result struct {
		value string
		ok    bool
	}
	baseline := make([]result, len(questions))
	for i, q := range questions {
		ans, ok := ask(f.engine, q)
		baseline[i] = result{ans.Value, ok}
	}

	cold := NewEngine(f.kb.Store, f.engine.Index, f.kb.Taxonomy, f.model, f.engine.Stats)
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i, q := range questions {
				ans, ok := ask(cold, q)
				if ok != baseline[i].ok || (ok && ans.Value != baseline[i].value) {
					errs <- q
					return
				}
				_ = g
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for q := range errs {
		t.Errorf("concurrent answer diverged for %q", q)
	}
}
