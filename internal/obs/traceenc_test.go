package obs

import (
	"encoding/json"
	"math"
	"strconv"
	"testing"
)

// mapTraceEvent is the reflection form the encoder replaces: encoding/json
// over a tagged struct with a map for args. It is the oracle the appender
// must match byte for byte.
type mapTraceEvent struct {
	Name string         `json:"name,omitempty"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   uint64         `json:"ts"`
	Dur  uint64         `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

func (a Arg) value() any {
	switch a.kind {
	case argInt:
		return int64(a.num)
	case argUint:
		return a.num
	case argFloat:
		return math.Float64frombits(a.num)
	case argString:
		return a.str
	default:
		return a.num != 0
	}
}

func marshalOracle(ev *traceEvent) ([]byte, error) {
	m := mapTraceEvent{Name: ev.Name, Cat: ev.Cat, Ph: ev.Ph, TS: ev.TS, Dur: ev.Dur,
		Pid: ev.Pid, Tid: ev.Tid, S: ev.S}
	if len(ev.Args) > 0 {
		m.Args = map[string]any{}
		for _, a := range ev.Args {
			m.Args[a.Key] = a.value()
		}
	}
	return json.Marshal(m)
}

// FuzzTraceEvent checks the appender against encoding/json on arbitrary
// strings (escaping, invalid UTF-8), integers, floats (format switch,
// exponent clean-up, NaN and ±Inf refused) and arg counts.
func FuzzTraceEvent(f *testing.F) {
	names := []string{"", "add r1, r2, r3", "<script>&amp;</script>", "tab\tnl\ncr\rbs\bff\f\x00\x01\x1f\x7f",
		"redirect→17", "line sep \u2028 para sep \u2029", "bad \xff\xfe utf8 \xe2\x82", `quote " backslash \`}
	floats := []float64{0, -0.5, 1e-7, 1e21, 123.456, math.Copysign(0, -1), 1e-6, 999999999999999999999.0, math.NaN(), math.Inf(-1)}
	for i, name := range names {
		f.Add(name, "pipeline", "X", uint64(i), uint64(i%3), i, -i, "t", "k"+name, name, floats[i%len(floats)], int64(-i), uint64(1)<<63, i%2 == 0, uint8(i))
	}
	for i, v := range floats {
		f.Add("IPC", "", "C", uint64(1e9), uint64(0), 1, 0, "", "ipc", "", v, int64(math.MinInt64), uint64(math.MaxUint64), false, uint8(i))
	}
	f.Fuzz(func(t *testing.T, name, cat, ph string, ts, dur uint64, pid, tid int, scope, key, str string,
		fv float64, iv int64, uv uint64, bv bool, nargs uint8) {
		// Distinct keys in byte order, as encoding/json sorts a map's.
		all := []Arg{Float64(key+"0", fv), Int64(key+"1", iv), String(key+"2", str), Uint64(key+"3", uv), Bool(key+"4", bv)}
		ev := traceEvent{Name: name, Cat: cat, Ph: ph, TS: ts, Dur: dur, Pid: pid, Tid: tid, S: scope,
			Args: all[:int(nargs)%(len(all)+1)]}
		want, werr := marshalOracle(&ev)
		got, gerr := appendTraceEvent([]byte("prefix"), &ev)
		if (werr != nil) != (gerr != nil) {
			t.Fatalf("error mismatch: encoding/json %v, appender %v", werr, gerr)
		}
		if werr != nil {
			return
		}
		if string(got[len("prefix"):]) != string(want) {
			t.Fatalf("appender wrote\n%s\nencoding/json wrote\n%s", got[len("prefix"):], want)
		}
	})
}

func TestTraceEventNaNFails(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		ev := traceEvent{Name: "IPC", Ph: "C", Args: []Arg{Float64("ipc", v)}}
		if _, err := appendTraceEvent(nil, &ev); err == nil {
			t.Errorf("Float64(%s) encoded without error", strconv.FormatFloat(v, 'g', -1, 64))
		}
	}
}
