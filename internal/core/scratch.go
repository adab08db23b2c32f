package core

import (
	"context"
	"slices"
	"time"

	"repro/internal/concept"
	"repro/internal/decompose"
	"repro/internal/extract"
	"repro/internal/rdf"
	"repro/internal/text"
)

// scratch is the storage of one Answer call: everything a question builds
// and throws away. Answer takes one from its engine's pool, every stage
// reaches it through the question's parsed value, and Answer puts it back
// when it returns; nothing Answer returns points into it. Within one call
// storage is only handed out, never handed back — a mention list, a work
// record and its candidates, a read's value sets stay as they were until
// the call returns — so a later phase never overwrites what an earlier one
// still reads. Between calls all of it is reused, so once a scratch has
// grown to the questions it serves, a question allocates only for what it
// returns and for the tokens it lower-cases. The pool drops scratches that
// stay idle across garbage collections, so a burst's storage is not held.
type scratch struct {
	clock clock
	// toks and ids hold every token sequence the call parses — the
	// question's, then each bound hop question's — and their IDs; a parsed
	// value's are windows of them.
	toks []string
	ids  []uint32
	// mentions holds every FindIDs result, a parsed value's a window.
	mentions []extract.Mention
	// parses and works are handed out by a read phase: its questions and
	// their work records. qs is the phase's questions, by pointer.
	parses slab[parsed]
	works  slab[bfqWork]
	qs     []*parsed
	// terms, concepts and learned are a read phase's conceptualization:
	// per mention, its θ prefix and concepts, and one mention's model
	// lookups at a time.
	terms    []mentionTerm
	concepts []concept.ScoredID
	learned  []interpretation
	// cands holds every work record's candidates, a record's a window.
	cands []interpretation
	plan  probePlan // the current read phase's
	// sets and vals hold every read's value sets: sets[i] a window of vals
	// (or of the index's own storage). probes is a variant's read.
	sets   slab[[]rdf.ID]
	vals   []rdf.ID
	probes []rdf.Probe
	// labels holds every settled answer's Values and every hop's next
	// values.
	labels []string
	// The δ oracle: the spans it tried and accepted, each accepted span's
	// answer, and prim, by span (primIndex), 1 + the span's index in spans.
	tried    []text.Span
	accepted []text.Span
	spans    []oracleSpan
	prim     [(maxDecomposeTokens + 1) * (maxDecomposeTokens + 1)]int32
	dec      decompose.Decomposer
	// aggregate's accumulators and rankTopK's rows.
	byValue map[rdf.ID]int
	accs    []valueAcc
	rows    []rankRow
	// A hop: one value's tokens, and the values of all bindings' answers.
	fields   []string
	valueSet map[string]bool
	ranked   []rankedEntity // a ranking or a listing's category
}

// reset empties s for the next question, keeping its storage.
func (s *scratch) reset() {
	s.clock = clock{}
	s.toks, s.ids, s.mentions = s.toks[:0], s.ids[:0], s.mentions[:0]
	s.parses.reset()
	s.works.reset()
	s.sets.reset()
	s.cands, s.vals, s.labels = s.cands[:0], s.vals[:0], s.labels[:0]
	s.spans = s.spans[:0]
}

// newPlan returns the scratch's probe plan, emptied for a read phase.
func (s *scratch) newPlan() *probePlan {
	clear(s.plan.slot)
	s.plan.probes = s.plan.probes[:0]
	return &s.plan
}

// read fetches V(e, p) of every probe in one idx call, into the scratch,
// and returns the value sets in probe order; no probe reads nothing.
func (s *scratch) read(ctx context.Context, idx Index, probes []rdf.Probe) ([][]rdf.ID, error) {
	if len(probes) == 0 {
		return nil, nil
	}
	out := s.sets.take(len(probes))
	vals, err := idx.PathObjects(ctx, probes, out, s.vals)
	if err != nil {
		return nil, err
	}
	s.vals = vals
	return out, nil
}

// slab hands out windows of one backing array, each once per question:
// take never returns an element handed out since the last reset. An element
// keeps whatever the question before left in it; the taker sets it.
type slab[T any] struct {
	buf  []T
	used int
}

// take returns the next n elements.
func (sl *slab[T]) take(n int) []T {
	if need := sl.used + n; need > len(sl.buf) {
		sl.buf = slices.Grow(sl.buf, need-len(sl.buf))[:need]
	}
	w := sl.buf[sl.used : sl.used+n : sl.used+n]
	sl.used += n
	return w
}

func (sl *slab[T]) reset() { sl.used = 0 }

// stage names a Timings stage.
type stage uint8

const (
	parseStage stage = iota
	matchStage
	probeStage
)

// clock attributes an Answer call's time to its Timings stages with one
// clock reading per stage boundary: start reads the clock, and lap charges
// the time since the last reading to a stage and reads it again. The methods
// of a nil clock do nothing, which is how the δ oracle's read phase, inside
// one Match lap of its caller's, is left untimed.
type clock struct {
	tm   Timings
	last time.Duration
}

// epoch is the base of the engine's clock readings: time.Since(epoch) reads
// the monotonic clock alone, where time.Now reads the wall clock too.
var epoch = time.Now()

func (c *clock) start() {
	if c != nil {
		c.last = time.Since(epoch)
	}
}

func (c *clock) lap(st stage) {
	if c == nil {
		return
	}
	now := time.Since(epoch)
	d := now - c.last
	c.last = now
	switch st {
	case parseStage:
		c.tm.Parse += d
	case matchStage:
		c.tm.Match += d
	default:
		c.tm.Probe += d
	}
}
