// Package obs is the repo's dependency-free observability layer: a
// context-carried span tracer with probabilistic sampling and slow-query
// always-capture (trace.go), a leveled structured JSON logger (log.go),
// and runtime introspection helpers (runtime.go). Everything is nil-safe:
// an untraced request pays one context lookup per StartSpan and a nil
// Logger discards everything, so instrumentation can stay compiled in on
// hot paths.
package obs

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/json"
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

// StartSpan opens a child span under the span active in ctx and returns a
// context carrying it. When ctx carries no trace it returns (ctx, nil)
// after a single context lookup — the no-trace fast path — and the nil
// span's methods (SetAttr, SetInt, Stage, End) are all no-ops, so call
// sites never branch.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent := ActiveSpan(ctx)
	if parent == nil {
		return ctx, nil
	}
	sp := parent.newChild(name)
	return context.WithValue(ctx, spanKey{}, sp), sp
}

// NewRemoteRoot opens a detached root span for serving one remote call on
// behalf of a trace that lives in another process. traceID is the caller's
// trace ID as carried across the wire, so TraceID(ctx) and log correlation
// work on the serving side; the span belongs to no Tracer and is never
// retained locally — the server Ends it and ships AppendJSON's bytes back
// to the caller, which grafts them with AttachRemote.
func NewRemoteRoot(traceID, name string) *Span {
	t := &Trace{id: traceID, start: time.Now()}
	t.root = &Span{trace: t, name: name, start: t.start}
	return t.root
}

// AttachRemote grafts a remote span tree (another process's AppendJSON, as
// it arrived) under s. It is decoded only if the trace is
// retained, so a call that crosses a process boundary does not pay for a
// tree nobody will look at; one that does not decode is dropped then. The
// remote offsets are relative to the remote root's own start; when the
// trace is snapshotted they are rebased onto s's start, which sidesteps
// clock skew between machines (the remote work began, by construction,
// after s did). No-op on a nil receiver.
func (s *Span) AttachRemote(snapshotJSON []byte) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.remote = append(s.remote, snapshotJSON)
	s.mu.Unlock()
}

// rebaseSnapshot shifts a remote snapshot's start offsets by off
// nanoseconds, recursively.
func rebaseSnapshot(s SpanSnapshot, off int64) SpanSnapshot {
	s.StartNanos += off
	if len(s.Children) == 0 {
		return s
	}
	kids := make([]SpanSnapshot, len(s.Children))
	for i, c := range s.Children {
		kids[i] = rebaseSnapshot(c, off)
	}
	s.Children = kids
	return s
}

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// attr is an annotation as it was set: SetInt keeps the integer, and only
// snapshot, which a retained trace alone reaches, formats it.
type attr struct {
	key, str string
	num      int64
	isInt    bool
}

// Span is one timed operation inside a trace. Spans form a tree under the
// trace root; children may be created concurrently (e.g. per-shard scan
// workers), so mutation is mutex-guarded. All methods are safe on a nil
// receiver.
type Span struct {
	trace *Trace
	name  string
	start time.Time

	mu       sync.Mutex
	dur      time.Duration
	ended    bool
	attrs    []attr  // backed by inline until a span outgrows it
	inline   [5]attr // an HTTP root and engine.probe set five
	children []*Span
	remote   [][]byte // grafted remote subtrees, still JSON (AttachRemote)
}

func (s *Span) newChild(name string) *Span {
	c := &Span{trace: s.trace, name: name, start: time.Now()}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// Child opens a child span directly under s, for call sites that don't
// thread a context (e.g. fan-out annotation of a finished scan). Returns
// nil on a nil receiver, so the child chain stays no-op when untraced.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return s.newChild(name)
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

func (s *Span) setAttr(a attr) {
	s.mu.Lock()
	if s.attrs == nil {
		s.attrs = s.inline[:0]
	}
	s.attrs = append(s.attrs, a)
	s.mu.Unlock()
}

// Stage records a completed child span with an explicit duration, for
// phases that were timed externally (e.g. the engine's Timings laps).
// The child carries the parent's start time and d as its duration.
func (s *Span) Stage(name string, d time.Duration) {
	if s == nil {
		return
	}
	c := &Span{trace: s.trace, name: name, start: s.start, dur: d, ended: true}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
}

// End stamps the span's duration. Idempotent: the first End wins.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		s.ended = true
		s.dur = time.Since(s.start)
	}
	s.mu.Unlock()
}

// snapshot converts the span tree to its immutable JSON form. base is the
// trace start, so StartNanos is an offset into the trace.
func (s *Span) snapshot(base time.Time) SpanSnapshot {
	s.mu.Lock()
	snap := SpanSnapshot{
		Name:          s.name,
		StartNanos:    s.start.Sub(base).Nanoseconds(),
		DurationNanos: s.dur.Nanoseconds(),
	}
	if len(s.attrs) > 0 {
		snap.Attrs = make([]Attr, len(s.attrs))
		for i, a := range s.attrs {
			if a.isInt {
				a.str = strconv.FormatInt(a.num, 10)
			}
			snap.Attrs[i] = Attr{Key: a.key, Value: a.str}
		}
	}
	children := append([]*Span(nil), s.children...)
	remote := append([][]byte(nil), s.remote...)
	s.mu.Unlock()
	for _, c := range children {
		snap.Children = append(snap.Children, c.snapshot(base))
	}
	if len(remote) > 0 {
		off := s.start.Sub(base).Nanoseconds()
		for _, raw := range remote {
			var r SpanSnapshot
			if json.Unmarshal(raw, &r) == nil {
				snap.Children = append(snap.Children, rebaseSnapshot(r, off))
			}
		}
	}
	return snap
}

// AppendJSON appends the span tree's SpanSnapshot, with StartNanos offsets
// relative to s's own start, as exactly the JSON json.Marshal writes for it,
// without building the snapshot or reflecting over it: the wire form a
// shard server returns for AttachRemote. Nil-safe.
func (s *Span) AppendJSON(dst []byte) []byte {
	if s == nil {
		return append(dst, `{"name":"","start_ns":0,"duration_ns":0}`...)
	}
	return s.appendJSON(dst, s.start)
}

func (s *Span) appendJSON(dst []byte, base time.Time) []byte {
	s.mu.Lock()
	dst = append(dst, `{"name":`...)
	dst = AppendJSONString(dst, s.name)
	dst = append(dst, `,"start_ns":`...)
	dst = strconv.AppendInt(dst, s.start.Sub(base).Nanoseconds(), 10)
	dst = append(dst, `,"duration_ns":`...)
	dst = strconv.AppendInt(dst, s.dur.Nanoseconds(), 10)
	sep := `,"attrs":[`
	for _, a := range s.attrs {
		dst = AppendJSONString(append(append(dst, sep...), `{"key":`...), a.key)
		dst = append(dst, `,"value":`...)
		if a.isInt {
			dst = append(strconv.AppendInt(append(dst, '"'), a.num, 10), '"')
		} else {
			dst = AppendJSONString(dst, a.str)
		}
		dst, sep = append(dst, '}'), ","
	}
	if len(s.attrs) > 0 {
		dst = append(dst, ']')
	}
	// Both lists only grow, so the prefixes read here stay valid unlocked.
	children, remote := s.children, s.remote
	s.mu.Unlock()
	sep = `,"children":[`
	for _, c := range children {
		dst, sep = c.appendJSON(append(dst, sep...), base), ","
	}
	for _, raw := range remote {
		var r SpanSnapshot
		if json.Unmarshal(raw, &r) != nil {
			continue
		}
		if b, err := json.Marshal(rebaseSnapshot(r, s.start.Sub(base).Nanoseconds())); err == nil {
			dst, sep = append(append(dst, sep...), b...), ","
		}
	}
	if sep == "," {
		dst = append(dst, ']')
	}
	return append(dst, '}')
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
// whether the trace is retained. All methods are nil-safe.
type Trace struct {
	id       string
	start    time.Time
	root     *Span
	tracer   *Tracer
	sampled  bool
	finished atomic.Bool
}

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
// it was sampled at start or its duration reached SlowThreshold. Slow
// traces are additionally summarized on the tracer's Logger. Idempotent.
func (t *Trace) Finish() {
	if t == nil || !t.finished.CompareAndSwap(false, true) {
		return
	}
	t.root.End()
	t.root.mu.Lock()
	dur := t.root.dur
	t.root.mu.Unlock()
	tr := t.tracer
	slow := tr.opts.SlowThreshold > 0 && dur >= tr.opts.SlowThreshold
	if !t.sampled && !slow {
		return
	}
	snap := TraceSnapshot{
		ID:             t.id,
		Start:          t.start,
		DurationNanos:  dur.Nanoseconds(),
		DurationMillis: float64(dur) / float64(time.Millisecond),
		Slow:           slow,
		Root:           t.root.snapshot(t.start),
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
	now := time.Now()
	t := &Trace{
		id:      traceID(tr.idBase + tr.seq.Add(1)),
		start:   now,
		tracer:  tr,
		sampled: tr.opts.SampleRate > 0 && mrand.Float64() < tr.opts.SampleRate,
	}
	t.root = &Span{trace: t, name: name, start: now}
	return context.WithValue(ctx, spanKey{}, t.root), t
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
