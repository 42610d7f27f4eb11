package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hirata/internal/runledger"
)

const benchOut = `goos: linux
BenchmarkSimulatorThroughput-8   45   25130702 ns/op   738211 sim-cycles/s
BenchmarkSimulatorThroughput-8   44   25830702 ns/op   718211 sim-cycles/s
BenchmarkRunNoObserver-8        534    2128625 ns/op   338480 B/op   4638 allocs/op
BenchmarkRunNoObserver-8        534    2098625 ns/op   338480 B/op   4638 allocs/op
PASS
`

func TestParseBestOfN(t *testing.T) {
	m, err := parse(strings.NewReader(benchOut))
	if err != nil {
		t.Fatal(err)
	}
	if got := m.NsPerOp["BenchmarkSimulatorThroughput"]; got != 25130702 {
		t.Errorf("ns/op best = %v; want min 25130702", got)
	}
	if got := m.NsPerOp["BenchmarkRunNoObserver"]; got != 2098625 {
		t.Errorf("ns/op best = %v; want min 2098625", got)
	}
	if got := m.CyPerSec["BenchmarkSimulatorThroughput"]; got != 738211 {
		t.Errorf("sim-cycles/s best = %v; want max 738211", got)
	}
	if _, ok := m.CyPerSec["BenchmarkRunNoObserver"]; ok {
		t.Error("sim-cycles/s recorded for a benchmark that does not report it")
	}
}

func TestHistoryRegressionGate(t *testing.T) {
	mk := func(cyc float64, gover string) runledger.HistoryRow {
		return runledger.HistoryRow{
			GoVersion: gover, OS: "linux", Arch: "amd64", CPUs: 1, Revision: "abc1234",
			SimCyclesPerSec: map[string]float64{"BenchmarkSimulatorThroughput": cyc},
		}
	}
	cases := []struct {
		name  string
		rows  []runledger.HistoryRow
		fails int
	}{
		{"single row", []runledger.HistoryRow{mk(500000, "go1.24.0")}, 0},
		{"steady", []runledger.HistoryRow{mk(500000, "go1.24.0"), mk(495000, "go1.24.0")}, 0},
		{"improved", []runledger.HistoryRow{mk(500000, "go1.24.0"), mk(1500000, "go1.24.0")}, 0},
		{"within tolerance", []runledger.HistoryRow{mk(500000, "go1.24.0"), mk(460000, "go1.24.0")}, 0},
		{"regressed", []runledger.HistoryRow{mk(500000, "go1.24.0"), mk(440000, "go1.24.0")}, 1},
		{"different host class", []runledger.HistoryRow{mk(500000, "go1.23.0"), mk(100000, "go1.24.0")}, 0},
		{"skips other class to comparable row", []runledger.HistoryRow{
			mk(500000, "go1.24.0"), mk(900000, "go1.23.0"), mk(440000, "go1.24.0")}, 1},
		{"metric absent in previous row", []runledger.HistoryRow{
			{GoVersion: "go1.24.0", OS: "linux", Arch: "amd64", CPUs: 1},
			mk(440000, "go1.24.0")}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fails := checkHistoryRegression(tc.rows, 0.10)
			if len(fails) != tc.fails {
				t.Errorf("failures = %d, want %d: %v", len(fails), tc.fails, fails)
			}
			for _, f := range fails {
				if !strings.Contains(f, "sim-cycles/s") || !strings.Contains(f, "drop") {
					t.Errorf("failure message lacks context: %q", f)
				}
			}
		})
	}
}

func TestHistoryRoundTripAndTrend(t *testing.T) {
	m, err := parse(strings.NewReader(benchOut))
	if err != nil {
		t.Fatal(err)
	}
	phases := filepath.Join(t.TempDir(), "selfprofile.json")
	if err := os.WriteFile(phases, []byte(`{"phase_profile":{"steps":42},"opportunity":{}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	hist := filepath.Join(t.TempDir(), "BENCH_history.jsonl")
	for i := 0; i < 2; i++ {
		row, err := appendHistory(hist, m, phases)
		if err != nil {
			t.Fatal(err)
		}
		if row.Revision == "" || row.GoVersion == "" || row.CPUs == 0 {
			t.Fatalf("row missing host metadata: %+v", row)
		}
		if !strings.Contains(string(row.PhaseProfile), `"steps":42`) {
			t.Fatalf("phase profile not embedded: %s", row.PhaseProfile)
		}
	}
	rows, err := runledger.ReadHistory(hist)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("history holds %d rows; want 2", len(rows))
	}
	if rows[1].Benchmarks["BenchmarkSimulatorThroughput"] != 25130702 {
		t.Errorf("row benchmarks = %v", rows[1].Benchmarks)
	}

	var buf bytes.Buffer
	writeTrend(&buf, rows)
	out := buf.String()
	for _, want := range []string{"BenchmarkSimulatorThroughput", "sim-cycles/s", "+0.0%", "2 run(s)"} {
		if !strings.Contains(out, want) {
			t.Errorf("trend output missing %q:\n%s", want, out)
		}
	}
}

func TestGateSummaryOutputs(t *testing.T) {
	measured := map[string]float64{
		"BenchmarkSteady": 1000,
		"BenchmarkSlower": 2400,
		"BenchmarkNew":    500,
	}
	baseline := map[string]float64{
		"BenchmarkSteady": 1010,
		"BenchmarkSlower": 2000,
	}
	s := runGate(measured, baseline, 1.10)
	if s.Passed {
		t.Error("gate passed despite a 20% regression")
	}
	byName := map[string]gateRow{}
	for _, r := range s.Benchmarks {
		byName[r.Name] = r
	}
	if byName["BenchmarkSteady"].Status != "ok" ||
		byName["BenchmarkSlower"].Status != "FAIL" ||
		byName["BenchmarkNew"].Status != "new" {
		t.Errorf("verdicts = %+v", s.Benchmarks)
	}
	if d := byName["BenchmarkSlower"].RelDelta; d < 0.19 || d > 0.21 {
		t.Errorf("RelDelta = %v, want ~0.20", d)
	}

	var md strings.Builder
	s.writeMarkdown(&md)
	for _, want := range []string{"### Benchmark gate: FAIL", "| BenchmarkSlower | FAIL |", "| BenchmarkNew | new |", "+20.0%"} {
		if !strings.Contains(md.String(), want) {
			t.Errorf("markdown summary missing %q:\n%s", want, md.String())
		}
	}

	path := filepath.Join(t.TempDir(), "summary.json")
	if err := s.writeJSONFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back gateSummary
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Passed || len(back.Benchmarks) != 3 || back.Tolerance != 1.10 {
		t.Errorf("round-tripped summary = %+v", back)
	}

	if ok := runGate(map[string]float64{"BenchmarkSteady": 1000}, baseline, 1.10); !ok.Passed {
		t.Error("steady benchmark failed the gate")
	}
}

func TestLedgerTrend(t *testing.T) {
	led := runledger.NewMemory()
	for i, cycles := range []uint64{1000, 1000, 1500} {
		rec := &runledger.RunRecord{Tag: "ray8"}
		rec.Revision = "rev" + string(rune('a'+i))
		rec.Key = "k"
		rec.Result.Cycles = cycles
		rec.Result.Instructions = 2 * cycles
		if _, _, err := led.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	writeLedgerTrend(&buf, led.Entries())
	out := buf.String()
	for _, want := range []string{"ray8", "+50.0%", "+0.0%", "1 lineage(s)"} {
		if !strings.Contains(out, want) {
			t.Errorf("ledger trend missing %q:\n%s", want, out)
		}
	}
}
