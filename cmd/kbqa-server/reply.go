package main

import (
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"repro/internal/obs"
	"repro/kbqa"
)

// reply builds one /ask or /batch body by appending, with no reflection and
// no intermediate struct. An /ask body, and each /batch item, is the object
//
//	{"question", "answered", "answer", "values", "predicate", "template",
//	 "steps", "variant", "interpretations", "trace_id", "timings", "error",
//	 "error_code"}
//
// with every field after "answered" left out when empty, except that
// variant.entities and variant.values are written even when nil (as null).
// The bytes are exactly those encoding/json writes for that object;
// reply_test.go keeps the struct and the encoder as the reference.
type reply struct {
	b   []byte
	err error // a score JSON cannot represent, reported as encoding/json would
}

// replies recycles reply buffers across requests; a buffer holds one body
// only until send has written it.
var replies = sync.Pool{New: func() any { return &reply{b: make([]byte, 0, 1024)} }}

func newReply() *reply { return replies.Get().(*reply) }

// outcome appends one Query outcome: the Result when err is nil, the typed
// failure otherwise.
func (rp *reply) outcome(q string, res *kbqa.Result, err error) {
	if err != nil {
		rp.failure(q, err.Error(), kbqa.ErrorCode(err))
		return
	}
	rp.answered(q, res, res.TraceID)
}

// answered appends a Result with tid as its trace ID: a /batch item's is
// the batch's, which its Result does not carry.
func (rp *reply) answered(q string, res *kbqa.Result, tid string) {
	var a kbqa.Answer
	if res.Answer != nil {
		a = *res.Answer
	}
	if res.Variant != nil {
		a.Value = strings.Join(res.Variant.Entities, ", ")
	}
	rp.str(`{"question":`, q)
	rp.b = append(rp.b, `,"answered":true`...)
	rp.omitEmpty(`,"answer":`, a.Value)
	rp.omitEmptyList(`,"values":`, a.Values)
	rp.omitEmpty(`,"predicate":`, a.Predicate)
	rp.omitEmpty(`,"template":`, a.Template)
	for i, st := range a.Steps {
		rp.item(`,"steps":[`, i)
		rp.str(`{"question":`, st.Question)
		rp.omitEmptyList(`,"questions":`, st.Questions)
		rp.omitEmpty(`,"template":`, st.Template)
		rp.omitEmpty(`,"predicate":`, st.Predicate)
		rp.omitEmpty(`,"value":`, st.Value)
		rp.b = append(rp.b, '}')
	}
	if len(a.Steps) > 0 {
		rp.b = append(rp.b, ']')
	}
	if v := res.Variant; v != nil {
		rp.str(`,"variant":{"kind":`, v.Kind)
		rp.list(`,"entities":`, v.Entities)
		rp.list(`,"values":`, v.Values)
		rp.str(`,"predicate":`, v.Predicate)
		rp.b = append(rp.b, '}')
	}
	for i, in := range res.Interpretations {
		rp.item(`,"interpretations":[`, i)
		rp.str(`{"entity":`, in.Entity)
		rp.str(`,"template":`, in.Template)
		rp.str(`,"predicate":`, in.Predicate)
		rp.b = append(rp.b, `,"score":`...)
		b, ok := obs.AppendJSONFloat(rp.b, in.Score)
		if !ok && rp.err == nil {
			rp.err = &json.UnsupportedValueError{Str: strconv.FormatFloat(in.Score, 'g', -1, 64)}
		}
		rp.b = b
		rp.omitEmptyList(`,"values":`, in.Values)
		rp.b = append(rp.b, '}')
	}
	if len(res.Interpretations) > 0 {
		rp.b = append(rp.b, ']')
	}
	rp.omitEmpty(`,"trace_id":`, tid)
	tm := res.Timings
	rp.b = append(rp.b, `,"timings":{"parse":`...)
	rp.b = strconv.AppendInt(rp.b, int64(tm.Parse), 10)
	rp.b = append(rp.b, `,"match":`...)
	rp.b = strconv.AppendInt(rp.b, int64(tm.Match), 10)
	rp.b = append(rp.b, `,"probe":`...)
	rp.b = strconv.AppendInt(rp.b, int64(tm.Probe), 10)
	rp.b = append(rp.b, `,"total":`...)
	rp.b = strconv.AppendInt(rp.b, int64(tm.Total), 10)
	rp.b = append(rp.b, "}}"...)
}

// failure appends an unanswered reply: the question (empty when the
// request had none), the message and the stable error code, each left out
// when empty.
func (rp *reply) failure(q, msg, code string) {
	rp.str(`{"question":`, q)
	rp.b = append(rp.b, `,"answered":false`...)
	rp.omitEmpty(`,"error":`, msg)
	rp.omitEmpty(`,"error_code":`, code)
	rp.b = append(rp.b, '}')
}

// str appends prefix, which ends in a key and its colon, then s.
func (rp *reply) str(prefix, s string) {
	rp.b = append(rp.b, prefix...)
	rp.b = obs.AppendJSONString(rp.b, s)
}

func (rp *reply) omitEmpty(prefix, s string) {
	if s != "" {
		rp.str(prefix, s)
	}
}

// item opens element i of an array field: prefix, the key and the opening
// bracket, before the first element, a comma before the others.
func (rp *reply) item(prefix string, i int) {
	if i == 0 {
		rp.b = append(rp.b, prefix...)
	} else {
		rp.b = append(rp.b, ',')
	}
}

// list appends prefix, then ss as an array, or null when ss is nil.
func (rp *reply) list(prefix string, ss []string) {
	rp.b = append(rp.b, prefix...)
	if ss == nil {
		rp.b = append(rp.b, "null"...)
		return
	}
	rp.b = append(rp.b, '[')
	for i, s := range ss {
		if i > 0 {
			rp.b = append(rp.b, ',')
		}
		rp.b = obs.AppendJSONString(rp.b, s)
	}
	rp.b = append(rp.b, ']')
}

func (rp *reply) omitEmptyList(prefix string, ss []string) {
	if len(ss) > 0 {
		rp.list(prefix, ss)
	}
}

// send writes rp's body with status in one Write, as one JSON line, and
// recycles rp.
func (s *server) send(w http.ResponseWriter, status int, rp *reply) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	err := rp.err
	if err == nil {
		rp.b = append(rp.b, '\n')
		_, err = w.Write(rp.b)
	}
	if err != nil {
		s.log.Error("encode response", kbqa.LogF("error", err))
	}
	rp.b, rp.err = rp.b[:0], nil
	replies.Put(rp)
}

// fail sends a one-object failure reply.
func (s *server) fail(w http.ResponseWriter, status int, q, msg, code string) {
	rp := newReply()
	rp.failure(q, msg, code)
	s.send(w, status, rp)
}
