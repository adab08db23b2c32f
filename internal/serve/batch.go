package serve

import (
	"context"
	"fmt"
	"strconv"
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
//
// A traced batch is one span per question: the questions run with the
// batch's span hidden, so the pipeline opens no span of its own, and each
// started question is recorded under the batch's span as a batch.question
// span (question; hit when the cache is on; shared when it joined another
// question's flight; error with its code) whose parse, match and probe
// children are the engine's stages when the question ran the engine.
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
	sp, cached := obs.ActiveSpan(ctx), r.cache != nil
	return runBatch(obs.HideSpan(ctx), questions, r.batchWorkers, func(ctx context.Context, q string) (A, bool, error) {
		if sp == nil {
			return r.do(ctx, q, fingerprint, compute, traceID, nil)
		}
		var n note
		a, ok, err := r.do(ctx, q, fingerprint, compute, traceID, &n)
		record(sp, q, &n, cached, err)
		return a, ok, err
	})
}

// record adds a batch question's span under the batch's span sp, from what
// do noted of it. A question that neither ran the engine nor joined a
// flight, and did not fail, was answered from the cache.
func record(sp *obs.Span, q string, n *note, cached bool, err error) {
	var buf [4]obs.Attr
	attrs := append(buf[:0], obs.Attr{Key: "question", Value: q})
	if cached {
		attrs = append(attrs, obs.Attr{Key: "hit", Value: strconv.FormatBool(!n.ran && !n.shared && err == nil)})
	}
	if n.shared {
		attrs = append(attrs, obs.Attr{Key: "shared", Value: "true"})
	}
	if err != nil {
		attrs = append(attrs, obs.Attr{Key: "error", Value: ErrorCode(err)})
	}
	var stages []obs.SpanSnapshot
	if n.ran {
		stages = []obs.SpanSnapshot{
			{Name: StageParse, DurationNanos: int64(n.tm.Parse)},
			{Name: StageMatch, DurationNanos: int64(n.tm.Match)},
			{Name: StageProbe, DurationNanos: int64(n.tm.Probe)},
		}
	}
	sp.Record("batch.question", n.start, n.dur, attrs, stages)
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
