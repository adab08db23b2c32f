// Package obs is the repo's dependency-free observability layer: a
// context-carried span tracer with probabilistic sampling and slow-query
// always-capture (trace.go), a leveled structured JSON logger (log.go),
// and runtime introspection helpers (runtime.go). Everything is nil-safe:
// an untraced request pays one context lookup per StartSpan and a nil
// Logger discards everything, so instrumentation can stay compiled in on
// hot paths. Slow capture traces every request (kbqa-server ships with
// -slow-query 500ms) and keeps almost none, so a span is a small handle
// from chunks the Trace owns, and what the spans record lives in an arena
// that Finish hands back to a pool: a trace that is not kept costs a few
// allocations per question, and a write through a span after Finish is
// dropped. A trace lives in one process: a shard server keeps no trace, and
// the caller records the server time its reply carries as a completed child
// span (StageInt). Work that times itself need not open spans at all: a
// /batch runs its questions under HideSpan, so the pipeline below takes the
// no-trace path, and records each question afterwards as one completed span
// with its stages (Record), one trace write and no handle per question.
package obs

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"math"
	mrand "math/rand/v2"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// spanKey carries the active *Span through a context.
type spanKey struct{}

// ActiveSpan returns the span carried by ctx, or nil when the request is
// untraced. The nil span is valid: every Span method no-ops on it.
func ActiveSpan(ctx context.Context) *Span {
	sp, _ := ctx.Value(spanKey{}).(*Span)
	return sp
}

// TraceID returns the ID of the trace active in ctx, or "" when untraced.
func TraceID(ctx context.Context) string {
	if sp := ActiveSpan(ctx); sp != nil {
		return sp.trace.id
	}
	return ""
}

// SampledTraceID returns the ID of the trace active in ctx if it was
// sampled at Start, and so is sure to be retained, or "" otherwise.
func SampledTraceID(ctx context.Context) string {
	if sp := ActiveSpan(ctx); sp != nil && sp.trace.sampled {
		return sp.trace.id
	}
	return ""
}

// StartSpan opens a child span under the span active in ctx and returns a
// context carrying it. When ctx carries no trace it returns (ctx, nil)
// after a single context lookup — the no-trace fast path — and the nil
// span's methods (SetAttr, SetInt, Stage, End) are all no-ops, so call
// sites never branch. It returns (ctx, nil) too once the trace has
// finished. The returned context is the span itself.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent := ActiveSpan(ctx)
	if parent == nil {
		return ctx, nil
	}
	sp := parent.child(name)
	if sp == nil {
		return ctx, nil
	}
	sp.ctx = ctx
	return (*spanCtx)(sp), sp
}

// spanCtx is a span as the context that carries it: the context it was
// opened under, but for Value(spanKey{}). Done and Value reach the
// parent's own, so context.WithCancel under it starts no goroutine.
type spanCtx Span

func (c *spanCtx) Deadline() (time.Time, bool) { return c.ctx.Deadline() }
func (c *spanCtx) Done() <-chan struct{}       { return c.ctx.Done() }
func (c *spanCtx) Err() error                  { return c.ctx.Err() }

func (c *spanCtx) Value(key any) any {
	if _, ok := key.(spanKey); ok {
		return (*Span)(c)
	}
	return c.ctx.Value(key)
}

// HideSpan returns a context with ctx's deadline, cancellation and values
// but no active span, so the work done under it takes the no-trace fast
// path: a caller that times that work itself records it with Span.Record.
func HideSpan(ctx context.Context) context.Context {
	if ActiveSpan(ctx) == nil {
		return ctx
	}
	return hiddenSpan{ctx}
}

// hiddenSpan is a context whose active span is hidden.
type hiddenSpan struct{ context.Context }

func (c hiddenSpan) Value(key any) any {
	if _, ok := key.(spanKey); ok {
		return nil
	}
	return c.Context.Value(key)
}

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// attr is an annotation as it was set: SetInt keeps the integer, and only
// a snapshot, which a retained trace alone reaches, formats it.
type attr struct {
	key, str string
	num      int64
	isInt    bool
	next     int32 // the span's next attribute
}

// Span is one timed operation inside a trace: a handle on the record the
// trace's arena keeps of it. Spans form a tree under the trace root;
// children may be created concurrently (e.g. by parallel workers), so
// the trace's mutex guards the arena. A handle is never reused, but the
// arena goes back to a pool at Trace.Finish, so a write through a span
// after Finish (a losing hedge attempt Ends its span when it gives up) is
// dropped, and a child opened then is nil. All methods are safe on a nil
// receiver.
type Span struct {
	ctx   context.Context // what StartSpan or Start opened it under; nil otherwise
	trace *Trace
	i     int32 // the span's record in the trace's arena
}

// arena holds what a trace's spans record, from Start until Finish hands
// it back to arenas. Links are indexes, and 0 links nothing: recs[0] is
// the root, nobody's child or sibling, and attrs[0] is a placeholder.
type arena struct {
	recs  []rec
	attrs []attr

	inlineRecs  [32]rec
	inlineAttrs [32]attr
}

// rec is one span's record.
type rec struct {
	name              string
	start             int64 // nanoseconds after the trace's start, on the monotonic clock
	dur               int64
	ended             bool
	first, last, next int32 // children, in the order opened, and the next sibling
	attrs, lastAttr   int32 // in the order set
}

// arenas holds the arenas of finished traces. A new one holds a
// question's trace inline, so refilling the pool after a collection costs
// one allocation per arena.
var arenas = sync.Pool{New: func() any {
	a := new(arena)
	a.recs, a.attrs = a.inlineRecs[:0], a.inlineAttrs[:1]
	return a
}}

// open appends r as the last child of recs[parent] and returns its index.
func (a *arena) open(parent int32, r rec) int32 {
	i := int32(len(a.recs))
	a.recs = append(a.recs, r)
	p := &a.recs[parent]
	if p.last == 0 {
		p.first = i
	} else {
		a.recs[p.last].next = i
	}
	p.last = i
	return i
}

// child opens a span under s, with a handle from the trace's slab. Nil
// once the trace has finished.
func (s *Span) child(name string) *Span {
	t := s.trace
	now := t.since()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.ar == nil {
		return nil
	}
	c := t.spans.take()
	*c = Span{trace: t, i: t.ar.open(s.i, rec{name: name, start: now})}
	return c
}

// Child opens a child span directly under s, for call sites that don't
// thread a context (e.g. fan-out annotation of a finished scan). Returns
// nil on a nil receiver or a finished trace, so the child chain stays
// no-op.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return s.child(name)
}

// SetAttr annotates the span with a string attribute.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.setAttr(attr{key: key, str: value})
}

// SetInt annotates the span with an integer attribute.
func (s *Span) SetInt(key string, v int64) {
	if s == nil {
		return
	}
	s.setAttr(attr{key: key, num: v, isInt: true})
}

func (s *Span) setAttr(at attr) {
	t := s.trace
	t.mu.Lock()
	if a := t.ar; a != nil {
		a.addAttr(s.i, at)
	}
	t.mu.Unlock()
}

// addAttr appends at to recs[i]'s attributes.
func (a *arena) addAttr(i int32, at attr) {
	j := int32(len(a.attrs))
	a.attrs = append(a.attrs, at)
	r := &a.recs[i]
	if r.lastAttr == 0 {
		r.attrs = j
	} else {
		a.attrs[r.lastAttr].next = j
	}
	r.lastAttr = j
}

// Stage records a completed child span with an explicit duration, for
// phases that were timed externally (e.g. the engine's Timings laps).
// The child carries the parent's start time and d as its duration.
func (s *Span) Stage(name string, d time.Duration) { s.stage(name, d, attr{}) }

// StageInt is Stage with one integer attribute on the child: a shard
// server's time, carried in its reply, becomes the shard.serve span under
// the caller's rpc.call this way.
func (s *Span) StageInt(name string, d time.Duration, key string, v int64) {
	s.stage(name, d, attr{key: key, num: v, isInt: true})
}

// stage records the child, with at as its attribute unless at has no key.
func (s *Span) stage(name string, d time.Duration, at attr) {
	if s == nil {
		return
	}
	t := s.trace
	t.mu.Lock()
	if a := t.ar; a != nil {
		c := a.open(s.i, rec{name: name, start: a.recs[s.i].start, dur: int64(d), ended: true})
		if at.key != "" {
			a.addAttr(c, at)
		}
	}
	t.mu.Unlock()
}

// Record adds a span the caller timed itself as a completed child of s,
// in one trace write: name, begun at start and lasting d, with attrs, and
// under it children, each with its own attributes and children. A child's
// StartNanos counts from start, so a child at 0 starts where the span does,
// as a Stage child does. Nothing passed in is kept, and no handle is
// returned.
func (s *Span) Record(name string, start time.Time, d time.Duration, attrs []Attr, children []SpanSnapshot) {
	if s == nil {
		return
	}
	t := s.trace
	base := int64(start.Sub(t.start))
	t.mu.Lock()
	if a := t.ar; a != nil {
		a.graft(s.i, base, rec{name: name, start: base, dur: int64(d), ended: true}, attrs, children)
	}
	t.mu.Unlock()
}

// graft appends r under recs[parent] with its attributes and children,
// whose starts count from base.
func (a *arena) graft(parent int32, base int64, r rec, attrs []Attr, children []SpanSnapshot) {
	i := a.open(parent, r)
	for _, at := range attrs {
		a.addAttr(i, attr{key: at.Key, str: at.Value})
	}
	for _, c := range children {
		a.graft(i, base, rec{name: c.Name, start: base + c.StartNanos, dur: c.DurationNanos, ended: true}, c.Attrs, c.Children)
	}
}

// End stamps the span's duration. Idempotent: the first End wins.
func (s *Span) End() {
	if s == nil {
		return
	}
	t := s.trace
	now := t.since()
	t.mu.Lock()
	if t.ar != nil {
		if r := &t.ar.recs[s.i]; !r.ended {
			r.ended, r.dur = true, now-r.start
		}
	}
	t.mu.Unlock()
}

// snapshot converts the tree under recs[i] to its immutable JSON form.
// The trace's mutex is held.
func (a *arena) snapshot(i int32) SpanSnapshot {
	r := &a.recs[i]
	snap := SpanSnapshot{Name: r.name, StartNanos: r.start, DurationNanos: r.dur}
	for j := r.attrs; j != 0; j = a.attrs[j].next {
		at := &a.attrs[j]
		v := at.str
		if at.isInt {
			v = strconv.FormatInt(at.num, 10)
		}
		snap.Attrs = append(snap.Attrs, Attr{Key: at.key, Value: v})
	}
	for c := r.first; c != 0; c = a.recs[c].next {
		snap.Children = append(snap.Children, a.snapshot(c))
	}
	return snap
}

// SpanSnapshot is the immutable JSON form of a completed span. Durations
// are integer nanoseconds so they compare exactly against
// kbqa.QueryTimings (which marshals time.Duration the same way).
type SpanSnapshot struct {
	Name          string         `json:"name"`
	StartNanos    int64          `json:"start_ns"`
	DurationNanos int64          `json:"duration_ns"`
	Attrs         []Attr         `json:"attrs,omitempty"`
	Children      []SpanSnapshot `json:"children,omitempty"`
}

// Find returns the first span named name in a depth-first walk of this
// snapshot (including itself), or nil.
func (s *SpanSnapshot) Find(name string) *SpanSnapshot {
	if s.Name == name {
		return s
	}
	for i := range s.Children {
		if m := s.Children[i].Find(name); m != nil {
			return m
		}
	}
	return nil
}

// Attr returns the value of the named attribute and whether it is set.
func (s *SpanSnapshot) Attr(key string) (string, bool) {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Value, true
		}
	}
	return "", false
}

// TraceSnapshot is one completed, retained trace as served by
// /debug/traces.
type TraceSnapshot struct {
	ID             string    `json:"id"`
	Start          time.Time `json:"start"`
	DurationNanos  int64     `json:"duration_ns"`
	DurationMillis float64   `json:"duration_ms"`
	// Slow marks traces that exceeded the tracer's SlowThreshold and were
	// therefore captured regardless of sampling.
	Slow bool         `json:"slow,omitempty"`
	Root SpanSnapshot `json:"root"`
}

// Trace is one in-flight request trace. Obtain one from Tracer.Start and
// call Finish exactly once when the request completes; Finish decides
// whether the trace is retained. The Trace itself is never reused, so its
// ID and a write through one of its spans stay safe after Finish. All
// methods are nil-safe.
type Trace struct {
	id       string
	start    time.Time
	root     *Span
	tracer   *Tracer
	sampled  bool
	finished atomic.Bool

	// mu guards ar, the span records, which Finish hands back to arenas
	// and sets to nil, and spans, the slab the handles come from, whose
	// first chunk is inline: a cache hit's handles fit in the Trace.
	mu          sync.Mutex
	ar          *arena
	spans       slab[Span]
	inlineSpans [8]Span
}

// slab hands out zeroed values from chunks it never moves or reuses, so a
// span handle outlives its trace's Finish for as long as anything holds it.
// Each chunk is twice as long as the last, up to 64 records.
type slab[T any] struct {
	chunk []T
	n     int // records of chunk handed out
}

func (s *slab[T]) take() *T {
	if s.n == len(s.chunk) {
		s.chunk, s.n = make([]T, min(2*len(s.chunk), 64)), 0
	}
	s.n++
	return &s.chunk[s.n-1]
}

// newTrace builds a trace starting now, with its root span called name.
func newTrace(id, name string, tr *Tracer) *Trace {
	t := &Trace{id: id, start: time.Now(), tracer: tr, ar: arenas.Get().(*arena)}
	t.ar.recs = append(t.ar.recs, rec{name: name})
	t.spans.chunk = t.inlineSpans[:]
	t.root = t.spans.take()
	t.root.trace = t
	return t
}

// release empties the arena and hands it back to arenas; writes after it
// are dropped. t.mu is held.
func (t *Trace) release() {
	a := t.ar
	a.recs, a.attrs = a.recs[:0], a.attrs[:1]
	arenas.Put(a)
	t.ar = nil
}

// since is the time since the trace started, in nanoseconds.
func (t *Trace) since() int64 { return int64(time.Since(t.start)) }

// ID returns the trace's identifier ("" on nil).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Root returns the root span (nil on nil trace).
func (t *Trace) Root() *Span {
	if t == nil {
		return nil
	}
	return t.root
}

// Finish ends the root span and retains the trace in the tracer's ring if
// it was sampled at start or its duration reached SlowThreshold, then
// hands the span records back to the pool. Slow traces are additionally
// summarized on the tracer's Logger. Idempotent.
func (t *Trace) Finish() {
	if t == nil || !t.finished.CompareAndSwap(false, true) {
		return
	}
	t.root.End()
	t.mu.Lock()
	dur := time.Duration(t.ar.recs[0].dur)
	tr := t.tracer
	slow := tr.opts.SlowThreshold > 0 && dur >= tr.opts.SlowThreshold
	kept := t.sampled || slow
	var root SpanSnapshot
	if kept {
		root = t.ar.snapshot(0)
	}
	t.release()
	t.mu.Unlock()
	if !kept {
		return
	}
	snap := TraceSnapshot{
		ID:             t.id,
		Start:          t.start,
		DurationNanos:  dur.Nanoseconds(),
		DurationMillis: float64(dur) / float64(time.Millisecond),
		Slow:           slow,
		Root:           root,
	}
	tr.keep(snap)
	if slow {
		fields := []Field{
			F("trace_id", t.id),
			F("span", snap.Root.Name),
			F("duration_ms", snap.DurationMillis),
		}
		for _, a := range snap.Root.Attrs {
			fields = append(fields, F(a.Key, a.Value))
		}
		tr.opts.Logger.Warn("slow query", fields...)
	}
}

// Options configures a Tracer.
type Options struct {
	// Capacity bounds the ring of retained traces (default 128).
	Capacity int
	// SampleRate is the probability in [0,1] that a trace is retained
	// regardless of duration. 0 retains only slow traces.
	SampleRate float64
	// SlowThreshold always-captures traces at or above this duration and
	// logs them; 0 disables slow capture.
	SlowThreshold time.Duration
	// Logger receives the slow-query summaries (nil discards them).
	Logger *Logger
}

// DefaultCapacity is the trace ring size when Options.Capacity is 0.
const DefaultCapacity = 128

// Tracer samples request traces into a bounded ring buffer. The zero
// Tracer is not usable; construct with NewTracer. A nil *Tracer is inert:
// Start returns (ctx, nil) and the nil Trace/Span chain no-ops.
type Tracer struct {
	opts   Options
	idBase uint64
	seq    atomic.Uint64

	mu   sync.Mutex
	ring []TraceSnapshot
	next int
}

// NewTracer builds a Tracer. SampleRate is clamped to [0,1].
func NewTracer(o Options) *Tracer {
	if o.Capacity <= 0 {
		o.Capacity = DefaultCapacity
	}
	o.SampleRate = math.Min(1, math.Max(0, o.SampleRate))
	var b [8]byte
	if _, err := rand.Read(b[:]); err == nil {
		b[0] |= 0x10 // keep the printed ID width stable
	}
	return &Tracer{
		opts:   o,
		idBase: binary.LittleEndian.Uint64(b[:]),
		ring:   make([]TraceSnapshot, 0, o.Capacity),
	}
}

// Start opens a new trace rooted at a span called name and returns a
// context carrying it. The trace's sampling decision is made up front;
// slow-query capture is decided at Finish. Nil-safe: a nil Tracer returns
// (ctx, nil), and so does a tracer that can never retain anything
// (SampleRate 0 and no SlowThreshold) — "sampling disabled" means requests
// skip span construction entirely, not just retention.
func (tr *Tracer) Start(ctx context.Context, name string) (context.Context, *Trace) {
	if tr == nil || (tr.opts.SampleRate == 0 && tr.opts.SlowThreshold == 0) {
		return ctx, nil
	}
	t := newTrace(traceID(tr.idBase+tr.seq.Add(1)), name, tr)
	t.sampled = tr.opts.SampleRate > 0 && mrand.Float64() < tr.opts.SampleRate
	t.root.ctx = ctx
	return (*spanCtx)(t.root), t
}

// traceID formats n as 16 lowercase hex digits.
func traceID(n uint64) string {
	const hex = "0123456789abcdef"
	var b [16]byte
	for i := len(b) - 1; i >= 0; i-- {
		b[i] = hex[n&0xf]
		n >>= 4
	}
	return string(b[:])
}

// keep inserts a finished trace into the ring, evicting the oldest when
// full.
func (tr *Tracer) keep(snap TraceSnapshot) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if len(tr.ring) < tr.opts.Capacity {
		tr.ring = append(tr.ring, snap)
		return
	}
	tr.ring[tr.next] = snap
	tr.next = (tr.next + 1) % tr.opts.Capacity
}

// Snapshot returns the retained traces, newest first.
func (tr *Tracer) Snapshot() []TraceSnapshot {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	out := make([]TraceSnapshot, 0, len(tr.ring))
	// The ring is chronologically ordered starting at next (oldest) when
	// full, or at 0 while filling; emit newest first.
	for i := len(tr.ring) - 1; i >= 0; i-- {
		out = append(out, tr.ring[(tr.next+i)%len(tr.ring)])
	}
	return out
}

// Find returns the retained trace with the given ID, if the ring still
// holds it. IDs come from TraceSnapshot.ID (also surfaced by the slow-query
// log and Trace.ID); a miss means the trace was never retained or has been
// evicted. Nil-safe.
func (tr *Tracer) Find(id string) (TraceSnapshot, bool) {
	if tr == nil || id == "" {
		return TraceSnapshot{}, false
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for i := range tr.ring {
		if tr.ring[i].ID == id {
			return tr.ring[i], true
		}
	}
	return TraceSnapshot{}, false
}
