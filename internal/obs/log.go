package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"sync"
	"time"
)

// Level is a log severity. Records below a Logger's minimum level are
// discarded before formatting.
type Level int32

const (
	LevelDebug Level = iota
	LevelInfo
	LevelWarn
	LevelError
)

// String returns the lowercase level name used in the "level" field.
func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "debug"
	case LevelInfo:
		return "info"
	case LevelWarn:
		return "warn"
	case LevelError:
		return "error"
	default:
		return fmt.Sprintf("level(%d)", int32(l))
	}
}

// ParseLevel maps a level name ("debug", "info", "warn", "error") to its
// Level, defaulting to LevelInfo for anything unrecognized.
func ParseLevel(s string) Level {
	switch s {
	case "debug":
		return LevelDebug
	case "warn", "warning":
		return LevelWarn
	case "error":
		return LevelError
	default:
		return LevelInfo
	}
}

// Field is one structured key/value pair of a log record.
type Field struct {
	Key   string
	Value any
}

// F builds a Field.
func F(key string, value any) Field { return Field{Key: key, Value: value} }

// Logger writes one JSON object per line: {"ts":...,"level":...,
// "msg":..., <fields>...}. A nil *Logger discards everything — all methods
// are nil-safe — so optional logging costs one nil check at the call site.
type Logger struct {
	mu  sync.Mutex // serializes writes, so concurrent records never interleave mid-line
	w   io.Writer
	min Level
}

// NewLogger builds a Logger writing JSON lines at or above min to w.
func NewLogger(w io.Writer, min Level) *Logger {
	return &Logger{w: w, min: min}
}

// Enabled reports whether records at lv would be written.
func (l *Logger) Enabled(lv Level) bool { return l != nil && lv >= l.min }

// Debug logs at LevelDebug.
func (l *Logger) Debug(msg string, fields ...Field) { l.log(LevelDebug, msg, fields) }

// Info logs at LevelInfo.
func (l *Logger) Info(msg string, fields ...Field) { l.log(LevelInfo, msg, fields) }

// Warn logs at LevelWarn.
func (l *Logger) Warn(msg string, fields ...Field) { l.log(LevelWarn, msg, fields) }

// Error logs at LevelError.
func (l *Logger) Error(msg string, fields ...Field) { l.log(LevelError, msg, fields) }

// lineBufs recycles record buffers: a record is formatted into one and
// goes out in one Write, which must not keep it.
var lineBufs = sync.Pool{New: func() any { b := make([]byte, 0, 256); return &b }}

func (l *Logger) log(lv Level, msg string, fields []Field) {
	if !l.Enabled(lv) {
		return
	}
	bp := lineBufs.Get().(*[]byte)
	buf := append((*bp)[:0], `{"ts":"`...)
	buf = time.Now().UTC().AppendFormat(buf, time.RFC3339Nano)
	buf = append(buf, `","level":"`...)
	buf = append(buf, lv.String()...)
	buf = append(buf, `","msg":`...)
	buf = AppendJSONString(buf, msg)
	for _, f := range fields {
		buf = append(buf, ',')
		buf = AppendJSONString(buf, f.Key)
		buf = append(buf, ':')
		buf = appendJSONValue(buf, f.Value)
	}
	buf = append(buf, '}', '\n')
	l.mu.Lock()
	l.w.Write(buf)
	l.mu.Unlock()
	*bp = buf
	lineBufs.Put(bp)
}

// appendJSONValue writes v as json.Marshal would, except that errors and
// durations render as their strings (json.Marshal would emit {} and a bare
// nanosecond count). The types log fields carry are appended directly;
// anything else, and a float JSON cannot represent, goes through
// reflection.
func appendJSONValue(buf []byte, v any) []byte {
	switch t := v.(type) {
	case string:
		return AppendJSONString(buf, t)
	case error:
		return AppendJSONString(buf, t.Error())
	case time.Duration:
		return AppendJSONString(buf, t.String())
	case bool:
		return strconv.AppendBool(buf, t)
	case int:
		return strconv.AppendInt(buf, int64(t), 10)
	case int8:
		return strconv.AppendInt(buf, int64(t), 10)
	case int16:
		return strconv.AppendInt(buf, int64(t), 10)
	case int32:
		return strconv.AppendInt(buf, int64(t), 10)
	case int64:
		return strconv.AppendInt(buf, t, 10)
	case uint:
		return strconv.AppendUint(buf, uint64(t), 10)
	case uint8:
		return strconv.AppendUint(buf, uint64(t), 10)
	case uint16:
		return strconv.AppendUint(buf, uint64(t), 10)
	case uint32:
		return strconv.AppendUint(buf, uint64(t), 10)
	case uint64:
		return strconv.AppendUint(buf, t, 10)
	case float64:
		if b, ok := AppendJSONFloat(buf, t); ok {
			return b
		}
	}
	b, err := json.Marshal(v)
	if err != nil {
		//kbqa:nolint errsink — marshalling a plain string cannot fail
		b, _ = json.Marshal(fmt.Sprintf("%v", v))
	}
	return append(buf, b...)
}
