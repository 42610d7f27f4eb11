package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hirata/internal/asm"
	"hirata/internal/core"
)

var update = flag.Bool("update", false, "rewrite golden files")

const fibPath = "../../examples/programs/fib.s"

// runFib executes examples/programs/fib.s on a 2-slot machine with a
// collector attached and returns everything the tests inspect.
func runFib(t *testing.T, opt Options) (*Collector, core.Result, *asm.Program) {
	t.Helper()
	src, err := os.ReadFile(fibPath)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := asm.Assemble(string(src))
	if err != nil {
		t.Fatal(err)
	}
	m, err := prog.NewMemory(64)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{ThreadSlots: 2, StandbyStations: true}
	p, err := core.New(cfg, prog.Text, m)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCollector(cfg, opt)
	p.Observe(c)
	if err := p.StartThread(0); err != nil {
		t.Fatal(err)
	}
	res, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	c.Finalize(res)
	return c, res, prog
}

// TestPerfettoGoldenFib pins the Chrome Trace Event export for the fib
// example: byte-stable across runs, schema-valid (every event carries
// ph/ts/pid/tid), one named track per functional unit and per slot, and a
// profile that attributes every issued instruction to a source line.
func TestPerfettoGoldenFib(t *testing.T) {
	opt := Options{MetricsInterval: 64}
	c, res, prog := runFib(t, opt)
	var out bytes.Buffer
	if err := c.WriteChromeTrace(&out); err != nil {
		t.Fatal(err)
	}

	// Determinism: a second full simulation produces the same bytes.
	c2, _, _ := runFib(t, opt)
	var out2 bytes.Buffer
	if err := c2.WriteChromeTrace(&out2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), out2.Bytes()) {
		t.Error("trace export is not deterministic across identical runs")
	}

	golden := filepath.Join("testdata", "fib_trace.golden.json")
	if *update {
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/obs -update` to regenerate)", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("trace differs from %s (run `go test ./internal/obs -update` after intentional timing changes)", golden)
	}

	// Schema validity.
	var doc struct {
		TraceEvents []map[string]json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("empty traceEvents")
	}
	for i, e := range doc.TraceEvents {
		for _, key := range []string{"ph", "ts", "pid", "tid"} {
			if _, ok := e[key]; !ok {
				t.Fatalf("event %d lacks required field %q: %v", i, key, e)
			}
		}
	}

	// Track coverage: a named track per functional unit and per slot.
	unitTracks := map[string]bool{}
	slotTracks := map[string]bool{}
	for _, e := range doc.TraceEvents {
		var name, kind string
		json.Unmarshal(e["name"], &kind)
		if kind != "process_name" && kind != "thread_name" {
			continue
		}
		var args struct {
			Name string `json:"name"`
		}
		json.Unmarshal(e["args"], &args)
		name = args.Name
		var pid int
		json.Unmarshal(e["pid"], &pid)
		switch {
		case pid == unitsPID && kind == "thread_name":
			unitTracks[name] = true
		case pid >= slotPIDBase && kind == "process_name":
			slotTracks[name] = true
		}
	}
	if len(unitTracks) != len(c.Units()) {
		t.Errorf("unit tracks = %d, want one per functional unit (%d): %v", len(unitTracks), len(c.Units()), unitTracks)
	}
	if len(slotTracks) != c.Slots() {
		t.Errorf("slot tracks = %d, want %d: %v", len(slotTracks), c.Slots(), slotTracks)
	}

	// Profile attribution: every issued instruction maps to a source line.
	p := c.Profile()
	if p.TotalIssues != res.Instructions {
		t.Errorf("profile issues = %d, want Result.Instructions = %d", p.TotalIssues, res.Instructions)
	}
	attr := p.AttributedIssues(prog)
	if 100*attr < 95*res.Instructions {
		t.Errorf("source-line attribution %d/%d below 95%%", attr, res.Instructions)
	}
	var report bytes.Buffer
	if err := p.WriteAnnotated(&report, prog); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(report.String(), "hotspot profile") {
		t.Errorf("unexpected report header:\n%s", report.String())
	}
}

func TestPrometheusExposition(t *testing.T) {
	c, res, _ := runFib(t, Options{MetricsInterval: 50})
	var buf bytes.Buffer
	if err := c.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		fmt.Sprintf("hirata_cycles %d\n", res.Cycles),
		fmt.Sprintf("hirata_instructions_total %d\n", res.Instructions),
		`hirata_unit_utilization_percent{unit="IntALU[0]"}`,
		`hirata_stall_cycles_total{slot="0",reason="empty"}`,
		"hirata_slots_bound 0\n", // run finished: every slot unbound
		"hirata_events_dropped_total 0\n",
		"hirata_interval_ipc",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition lacks %q:\n%s", want, out)
		}
	}
}

func TestMetricsJSONAndIntervals(t *testing.T) {
	c, res, _ := runFib(t, Options{MetricsInterval: 50})
	var buf bytes.Buffer
	if err := c.WriteMetricsJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Cycles       uint64   `json:"cycles"`
		Instructions uint64   `json:"instructions"`
		Samples      []Sample `json:"samples"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Cycles != res.Cycles || doc.Instructions != res.Instructions {
		t.Errorf("JSON totals %d/%d != result %d/%d", doc.Cycles, doc.Instructions, res.Cycles, res.Instructions)
	}
	// The closed intervals partition the run: their issue counts sum to the
	// instruction total (Finalize closes the trailing partial interval).
	var issued uint64
	for i, s := range doc.Samples {
		if s.EndCycle <= s.StartCycle {
			t.Errorf("sample %d: empty interval [%d,%d)", i, s.StartCycle, s.EndCycle)
		}
		issued += s.Issued
	}
	if issued != res.Instructions {
		t.Errorf("interval issues sum to %d, want %d", issued, res.Instructions)
	}
	var table bytes.Buffer
	if err := c.WriteIntervalTable(&table); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(table.String(), "top stall") {
		t.Errorf("unexpected interval table:\n%s", table.String())
	}
}

// TestRingDropOldest: a tiny ring keeps the newest events, counts the
// drops, and still exports structurally valid JSON.
func TestRingDropOldest(t *testing.T) {
	c, _, _ := runFib(t, Options{RingCapacity: 32})
	if c.Dropped() == 0 {
		t.Fatal("expected drops from a 32-event ring")
	}
	evs := c.Events()
	if len(evs) != 32 {
		t.Fatalf("ring holds %d events, want 32", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Cycle < evs[i-1].Cycle {
			t.Fatalf("ring not chronological at %d: %d < %d", i, evs[i].Cycle, evs[i-1].Cycle)
		}
	}
	var buf bytes.Buffer
	if err := c.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("truncated-ring trace invalid: %v", err)
	}
	if !strings.Contains(buf.String(), "ring dropped") {
		t.Error("trace does not mark the dropped prefix")
	}
}

func TestCollectorTotalsMatchResult(t *testing.T) {
	c, res, _ := runFib(t, Options{})
	tot := c.TotalsSnapshot()
	if tot.Issues != res.Instructions {
		t.Errorf("Issues = %d, want %d", tot.Issues, res.Instructions)
	}
	if tot.Completes != tot.Selects {
		t.Errorf("Completes %d != Selects %d", tot.Completes, tot.Selects)
	}
	// Unit invocation totals mirror the simulator's own UnitStats.
	for _, us := range res.Units {
		ord := -1
		for o, u := range c.Units() {
			if u.Class == us.Class && u.Index == us.Index {
				ord = o
			}
		}
		if ord < 0 {
			t.Fatalf("unit %v[%d] missing from collector", us.Class, us.Index)
		}
		if tot.UnitInvocs[ord] != us.Invocations {
			t.Errorf("%v[%d]: invocations %d != simulator's %d", us.Class, us.Index, tot.UnitInvocs[ord], us.Invocations)
		}
	}
	// Stall totals mirror the simulator's per-slot stall counters.
	for s, ss := range res.Slots {
		for r, n := range ss.Stalls {
			if tot.SlotStalls[s][r] != n {
				t.Errorf("slot %d reason %v: %d != %d", s, core.StallReason(r), tot.SlotStalls[s][r], n)
			}
		}
	}
}

func TestAssignLanes(t *testing.T) {
	spans := []slotSpan{
		{start: 0, end: 10, slotID: 0},
		{start: 2, end: 5, slotID: 0},   // overlaps span 0 → lane 1
		{start: 5, end: 8, slotID: 0},   // overlaps span 0 only → reuses lane 1
		{start: 10, end: 12, slotID: 0}, // lane 0 free again
		{start: 0, end: 3, slotID: 1},
	}
	counts := assignLanes(spans, 2)
	if counts[0] != 2 || counts[1] != 1 {
		t.Errorf("lane counts = %v, want [2 1]", counts)
	}
	wantLanes := []int{0, 1, 1, 0, 0}
	for i, sp := range spans {
		if sp.lane != wantLanes[i] {
			t.Errorf("span %d lane = %d, want %d", i, sp.lane, wantLanes[i])
		}
	}
}

func TestHandlerEndpoints(t *testing.T) {
	c, _, prog := runFib(t, Options{MetricsInterval: 50})
	srv := httptest.NewServer(Handler(c, prog, nil, nil))
	defer srv.Close()

	get := func(path string) (int, string, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body), resp.Header.Get("Content-Type")
	}

	if code, body, ct := get("/metrics"); code != 200 || !strings.Contains(body, "hirata_ipc") || !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/metrics: code %d, content-type %q", code, ct)
	}
	if code, body, _ := get("/metrics.json"); code != 200 || !json.Valid([]byte(body)) {
		t.Errorf("/metrics.json: code %d, valid JSON %v", code, json.Valid([]byte(body)))
	}
	if code, body, _ := get("/trace.json"); code != 200 || !json.Valid([]byte(body)) {
		t.Errorf("/trace.json: code %d, valid JSON %v", code, json.Valid([]byte(body)))
	}
	if code, body, _ := get("/profile"); code != 200 || !strings.Contains(body, "hotspot profile") {
		t.Errorf("/profile: code %d", code)
	}
	if code, body, _ := get("/"); code != 200 || !strings.Contains(body, "/trace.json") {
		t.Errorf("index: code %d", code)
	}
	if code, _, _ := get("/nope"); code != 404 {
		t.Errorf("unknown path: code %d, want 404", code)
	}
	if code, _, _ := get("/debug/pprof/cmdline"); code != 200 {
		t.Errorf("/debug/pprof/cmdline: code %d", code)
	}
}

// TestObserveComposesWithTracer: the collector rides alongside a TextTracer
// through the composing Processor.Observe and both see the full stream.
func TestObserveComposesWithTracer(t *testing.T) {
	src, err := os.ReadFile(fibPath)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := asm.Assemble(string(src))
	if err != nil {
		t.Fatal(err)
	}
	m, err := prog.NewMemory(64)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{ThreadSlots: 1}
	p, err := core.New(cfg, prog.Text, m)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCollector(cfg, Options{})
	var text bytes.Buffer
	p.Observe(c)
	p.Observe(&core.TextTracer{W: &text})
	if err := p.StartThread(0); err != nil {
		t.Fatal(err)
	}
	res, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	c.Finalize(res)
	if c.TotalsSnapshot().Issues != res.Instructions {
		t.Errorf("collector issues %d != %d", c.TotalsSnapshot().Issues, res.Instructions)
	}
	issueLines := 0
	for _, line := range strings.Split(text.String(), "\n") {
		if strings.Contains(line, "issue ") {
			issueLines++
		}
	}
	if uint64(issueLines) != res.Instructions {
		t.Errorf("tracer printed %d issue lines, want %d", issueLines, res.Instructions)
	}
}
