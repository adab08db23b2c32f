package serve

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// BatchItem is one slot of a batch reply; the output slice aligns
// index-for-index with the input questions.
type BatchItem[A any] struct {
	Question string
	Answer   A
	OK       bool
	Err      error
}

// DoBatch answers the questions over a bounded worker pool, in input
// order. A batch is one request: one drain ticket and, when ctx has no
// deadline, one Options.Timeout for all its questions, queueing included.
// Each question goes through Do's pipeline under the same fingerprint and
// compute, so duplicates inside one batch — and across concurrent batches
// with the same options — cost one engine call. Items not yet started when
// ctx ends carry its error; on a closed runtime every item fails with
// ErrShuttingDown.
func (r *Runtime[A]) DoBatch(ctx context.Context, questions []string, fingerprint string, compute AskFunc[A]) []BatchItem[A] {
	if !r.begin() {
		out := make([]BatchItem[A], len(questions))
		for i, q := range questions {
			r.metrics.countError(CodeShuttingDown)
			out[i] = BatchItem[A]{Question: q, Err: ErrShuttingDown}
		}
		return out
	}
	defer r.wg.Done()
	ctx, cancel := arm(ctx, r.opts.Timeout)
	defer cancel()
	traceID := obs.SampledTraceID(ctx)
	return runBatch(ctx, questions, r.batchWorkers, func(ctx context.Context, q string) (A, bool, error) {
		return r.do(ctx, q, fingerprint, compute, traceID)
	})
}

// runBatch answers the questions on a fixed pool of workers, the calling
// goroutine one of them, each taking the next index from a shared cursor.
// Results land at their input index, so order is preserved without any
// post-sort; each index is written exactly once, by the worker that took
// it — with the context's error if the batch was cancelled before then.
func runBatch[A any](ctx context.Context, questions []string, workers int, ask func(context.Context, string) (A, bool, error)) []BatchItem[A] {
	out := make([]BatchItem[A], len(questions))
	workers = max(1, min(workers, len(questions)))
	var next atomic.Int64
	work := func() {
		for i := int(next.Add(1) - 1); i < len(questions); i = int(next.Add(1) - 1) {
			if err := ctx.Err(); err != nil {
				out[i] = BatchItem[A]{Question: questions[i], Err: err}
				continue
			}
			out[i] = runOne(ctx, questions[i], ask)
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
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
