package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/kbqa"
)

// span is one timed interval at a layer boundary. The benchmark records
// spans from its own side of each boundary only: around an HTTP request,
// around an in-process call, and from the stage timings a reply carries.
type span struct {
	Trace   string `json:"trace"` // <workload>/<pool index of the (first) question>
	ID      int    `json:"id"`
	Parent  int    `json:"parent,omitempty"` // 0: a root span
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"` // since the recorder was made
	EndNs   int64  `json:"end_ns"`
	Class   string `json:"class,omitempty"`
	Status  int    `json:"status,omitempty"`
	Bytes   int    `json:"bytes,omitempty"`
	Seq     int    `json:"seq,omitempty"`
	// Placed marks a span whose duration was measured by the server but
	// whose start the benchmark chose: a reply carries how long a stage
	// took, not when it ran.
	Placed bool `json:"placed,omitempty"`
}

// recorder keeps spans in memory, one buffer per client so that recording
// takes no lock, and writes them out when the run ends.
type recorder struct {
	epoch   time.Time
	buffers [][]span
}

func newRecorder(writers int) *recorder {
	return &recorder{epoch: time.Now(), buffers: make([][]span, writers)}
}

// add appends a span to writer's buffer and returns its id, which is unique
// across writers.
func (r *recorder) add(writer int, s span) int {
	s.ID = (len(r.buffers[writer])+1)*len(r.buffers) + writer
	r.buffers[writer] = append(r.buffers[writer], s)
	return s.ID
}

func (r *recorder) since(t time.Time) int64 { return t.Sub(r.epoch).Nanoseconds() }

// request records the span tree of one HTTP request: the client-observed
// root, and under it what the reply says the engine spent. What the root
// has left over once the engine span is taken out is the self time of the
// HTTP shell plus the serving runtime.
func (r *recorder) request(writer int, w workload, p *pool, req *request, seq int, start, end time.Time, status, size int, replies []askReply) {
	first := &p.qs[req.qis[0]]
	root := span{
		Trace: fmt.Sprintf("%s/%d", w.name, req.qis[0]), Name: "req", Seq: seq,
		StartNs: r.since(start), EndNs: r.since(end), Status: status, Bytes: size,
	}
	if req.body == nil {
		root.Class = classNames[first.class]
	}
	rootID := r.add(writer, root)
	if w.cache >= 0 {
		return // a hit replays the timings of the computation that filled the cache
	}
	for i, reply := range replies {
		tm := reply.Timings
		if tm == nil {
			continue // refusals carry no timings
		}
		r.engine(writer, root, rootID, fmt.Sprintf("%s/%d", w.name, req.qis[i]), classNames[p.qs[req.qis[i]].class], *tm)
	}
}

// engine places the reply's stage timings inside the request span: the
// engine call centred in its parent, its stages back to back from its
// start.
func (r *recorder) engine(writer int, parent span, parentID int, trace, class string, tm kbqa.QueryTimings) {
	total := tm.Total.Nanoseconds()
	at := parent.StartNs + max(0, (parent.EndNs-parent.StartNs-total)/2)
	engineID := r.add(writer, span{Trace: trace, Parent: parentID, Name: "engine", Class: class, StartNs: at, EndNs: at + total, Placed: true})
	for _, st := range []struct {
		name string
		d    time.Duration
	}{{"parse", tm.Parse}, {"match", tm.Match}, {"probe", tm.Probe}} {
		if st.d > 0 {
			r.add(writer, span{Trace: trace, Parent: engineID, Name: st.name, StartNs: at, EndNs: at + st.d.Nanoseconds(), Placed: true})
			at += st.d.Nanoseconds()
		}
	}
}

// call records an in-process call at a public boundary of repro/kbqa.
func (r *recorder) call(writer int, name, trace, class string, start, end time.Time) {
	r.add(writer, span{Trace: trace, Name: name, Class: class, StartNs: r.since(start), EndNs: r.since(end)})
}

func (r *recorder) count() int {
	n := 0
	for _, b := range r.buffers {
		n += len(b)
	}
	return n
}

// writeJSONL writes one span per line.
func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close() // the error paths; the success path checks Close below
	bw := bufio.NewWriterSize(f, 1<<20)
	enc := json.NewEncoder(bw)
	for _, b := range r.buffers {
		for i := range b {
			if err := enc.Encode(&b[i]); err != nil {
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}
