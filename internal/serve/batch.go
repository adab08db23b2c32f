package serve

import (
	"context"
	"fmt"
	"sync"
)

// BatchItem is one slot of a batch reply; the output slice aligns
// index-for-index with the input questions.
type BatchItem[A any] struct {
	Question string
	Answer   A
	OK       bool
	Err      error
}

// DoBatch fans the questions across a bounded worker pool and returns the
// answers in input order. Every question of the batch is answered under
// the same options fingerprint and compute, mirroring Do, and each
// goes through the full serving pipeline (cache, dedup, admission) keyed by
// (question, fingerprint), so duplicates inside one batch — and across
// concurrent batches with the same options — cost one engine call. A
// cancelled or expired context marks the not-yet-started items with the
// context error instead of abandoning the batch.
func (r *Runtime[A]) DoBatch(ctx context.Context, questions []string, fingerprint string, compute AskFunc[A]) []BatchItem[A] {
	return runBatch(ctx, questions, r.batchWorkers, func(ctx context.Context, q string) (A, bool, error) {
		return r.Do(ctx, q, fingerprint, compute)
	})
}

// runBatch feeds question indexes to a fixed pool of workers. Results land
// at their input index, so order is preserved without any post-sort; each
// index is written exactly once (by the worker that received it, or by the
// cancellation sweep for indexes never handed out).
func runBatch[A any](ctx context.Context, questions []string, workers int, ask func(context.Context, string) (A, bool, error)) []BatchItem[A] {
	out := make([]BatchItem[A], len(questions))
	if len(questions) == 0 {
		return out
	}
	if workers > len(questions) {
		workers = len(questions)
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				out[i] = runOne(ctx, questions[i], ask)
			}
		}()
	}
	done := ctx.Done()
feed:
	for i := range questions {
		select {
		case idx <- i:
		case <-done:
			for j := i; j < len(questions); j++ {
				out[j] = BatchItem[A]{Question: questions[j], Err: ctx.Err()}
			}
			break feed
		}
	}
	close(idx)
	wg.Wait()
	return out
}

// runOne answers one batch slot, containing engine panics as
// ErrEnginePanic items: a worker goroutine has no net/http recovery above
// it, so an escaped panic would kill the whole process.
func runOne[A any](ctx context.Context, question string, ask func(context.Context, string) (A, bool, error)) (item BatchItem[A]) {
	defer func() {
		if p := recover(); p != nil {
			item = BatchItem[A]{Question: question, Err: fmt.Errorf("%w: %v", ErrEnginePanic, p)}
		}
	}()
	a, ok, err := ask(ctx, question)
	return BatchItem[A]{Question: question, Answer: a, OK: ok, Err: err}
}
