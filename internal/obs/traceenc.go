package obs

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"unicode/utf8"
)

// The Chrome Trace Event encoder shared by the pipeline export
// (WriteChromeTrace) and TraceWriter. Each event is appended to one reused
// byte buffer with a fixed field order, so exports are byte-stable without
// reflection: the bytes are exactly what encoding/json writes for the
// equivalent struct, with a map[string]any for args (FuzzTraceEvent checks
// this against encoding/json itself).

// argKind tags the value an Arg carries.
type argKind uint8

const (
	argInt argKind = iota
	argUint
	argFloat
	argString
	argBool
)

// Arg is one typed key/value pair of a trace event's "args" object. Build
// it with Int64, Uint64, Float64, String or Bool. An event's args are
// written in the order given; list them in key order, the order
// encoding/json gives a map.
type Arg struct {
	Key  string
	kind argKind
	num  uint64 // int64 or float64 bits, uint64, or bool as 0/1
	str  string
}

// Int64 is a signed integer arg.
func Int64(key string, v int64) Arg { return Arg{Key: key, kind: argInt, num: uint64(v)} }

// Uint64 is an unsigned integer arg.
func Uint64(key string, v uint64) Arg { return Arg{Key: key, kind: argUint, num: v} }

// Float64 is a floating-point arg. NaN and ±Inf are not valid JSON: the
// event carrying one fails the export.
func Float64(key string, v float64) Arg {
	return Arg{Key: key, kind: argFloat, num: math.Float64bits(v)}
}

// String is a string arg.
func String(key, v string) Arg { return Arg{Key: key, kind: argString, str: v} }

// Bool is a boolean arg.
func Bool(key string, v bool) Arg {
	a := Arg{Key: key, kind: argBool}
	if v {
		a.num = 1
	}
	return a
}

// traceEvent is one Chrome Trace Event. Fields are written in declaration
// order; the empty Name, Cat, S, zero Dur and empty Args are omitted.
type traceEvent struct {
	Name string
	Cat  string
	Ph   string
	TS   uint64
	Dur  uint64
	Pid  int
	Tid  int
	S    string
	Args []Arg
}

// appendTraceEvent appends ev as one JSON object.
func appendTraceEvent(b []byte, ev *traceEvent) ([]byte, error) {
	b = append(b, '{')
	if ev.Name != "" {
		b = append(b, `"name":`...)
		b = appendJSONString(b, ev.Name)
		b = append(b, ',')
	}
	if ev.Cat != "" {
		b = append(b, `"cat":`...)
		b = appendJSONString(b, ev.Cat)
		b = append(b, ',')
	}
	b = append(b, `"ph":`...)
	b = appendJSONString(b, ev.Ph)
	b = append(b, `,"ts":`...)
	b = strconv.AppendUint(b, ev.TS, 10)
	if ev.Dur != 0 {
		b = append(b, `,"dur":`...)
		b = strconv.AppendUint(b, ev.Dur, 10)
	}
	b = append(b, `,"pid":`...)
	b = strconv.AppendInt(b, int64(ev.Pid), 10)
	b = append(b, `,"tid":`...)
	b = strconv.AppendInt(b, int64(ev.Tid), 10)
	if ev.S != "" {
		b = append(b, `,"s":`...)
		b = appendJSONString(b, ev.S)
	}
	if len(ev.Args) > 0 {
		b = append(b, `,"args":{`...)
		for i, a := range ev.Args {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendJSONString(b, a.Key)
			b = append(b, ':')
			var err error
			if b, err = appendArgValue(b, a); err != nil {
				return b, err
			}
		}
		b = append(b, '}')
	}
	return append(b, '}'), nil
}

func appendArgValue(b []byte, a Arg) ([]byte, error) {
	switch a.kind {
	case argInt:
		return strconv.AppendInt(b, int64(a.num), 10), nil
	case argUint:
		return strconv.AppendUint(b, a.num, 10), nil
	case argFloat:
		return appendJSONFloat(b, math.Float64frombits(a.num), a.Key)
	case argString:
		return appendJSONString(b, a.str), nil
	default:
		return strconv.AppendBool(b, a.num != 0), nil
	}
}

// appendJSONFloat formats f as encoding/json does: ES6 number formatting,
// 'f' except below 1e-6 or from 1e21 up, with the exponent unpadded.
func appendJSONFloat(b []byte, f float64, key string) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, fmt.Errorf("obs: trace arg %q: unsupported value %s", key, strconv.FormatFloat(f, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-09 becomes e-9.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

const hexDigits = "0123456789abcdef"

// appendJSONString quotes s as encoding/json does with HTML escaping on:
// `"` and `\` backslash-escaped, \b \f \n \r \t short-escaped, other
// control bytes and <, >, & as \u00XX, U+2028 and U+2029 as \u202X, and
// each invalid UTF-8 byte as \ufffd.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// traceFlushBytes is how much encoded output the encoder holds before
// writing it through.
const traceFlushBytes = 64 << 10

// traceEncoder streams the traceEvents array through one reused buffer,
// without holding the whole trace in memory.
type traceEncoder struct {
	w     io.Writer
	buf   []byte
	first bool
	err   error
}

func newTraceEncoder(w io.Writer) *traceEncoder {
	e := &traceEncoder{w: w, buf: make([]byte, 0, traceFlushBytes+4<<10), first: true}
	e.buf = append(e.buf, `{"traceEvents":[`...)
	return e
}

func (e *traceEncoder) event(ev *traceEvent) {
	if e.err != nil {
		return
	}
	if !e.first {
		e.buf = append(e.buf, ',')
	}
	e.first = false
	if e.buf, e.err = appendTraceEvent(e.buf, ev); e.err != nil {
		return
	}
	if len(e.buf) >= traceFlushBytes {
		e.flush()
	}
}

func (e *traceEncoder) meta(name string, pid, tid int, value string) {
	e.event(&traceEvent{Name: name, Ph: "M", Pid: pid, Tid: tid, Args: []Arg{String("name", value)}})
}

func (e *traceEncoder) flush() {
	_, e.err = e.w.Write(e.buf)
	e.buf = e.buf[:0]
}

// close terminates the traceEvents array and writes out what is buffered.
func (e *traceEncoder) close() error {
	if e.err != nil {
		return e.err
	}
	e.buf = append(e.buf, `]}`...)
	e.flush()
	return e.err
}
