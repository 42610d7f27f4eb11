// Command benchdiff gates simulator performance in CI. It parses `go test
// -bench` output, reduces each benchmark to its best (minimum) ns/op across
// -count repetitions, and compares that against the committed baseline in
// BENCH_sweep.json, failing when any benchmark regresses past the
// tolerance. The best-of-N reduction makes the gate robust to scheduler
// noise on shared runners; only a consistent slowdown across every
// repetition can trip it.
//
// Beyond the gate, benchdiff keeps a performance history: -history appends
// one JSON line per bench run (best ns/op, best sim-cycles/s, VCS revision,
// host metadata, optionally the cycle-loop phase breakdown from
// hirata-bench -self-profile-json) to BENCH_history.jsonl, and -trend
// prints the trajectory that file records. The history job owns one gate
// of its own that the baseline comparison cannot express: after appending,
// the last two rows from the same host class (go version, OS, arch, CPU
// count) are compared on sim-cycles/s, and a drop past -history-tolerance
// (default 10%) fails the run. ns/op regressions stay the baseline gate's
// job — the history gate watches the throughput metric the simulator
// itself reports, across consecutive recorded runs.
//
// Usage:
//
//	go test -run xxx -bench . -count 5 . | go run ./tools/benchdiff -baseline BENCH_sweep.json
//	go run ./tools/benchdiff -baseline BENCH_sweep.json -in bench-out.txt -update
//	go run ./tools/benchdiff -in bench-out.txt -history BENCH_history.jsonl -phases selfprofile.json
//	go run ./tools/benchdiff -trend -history BENCH_history.jsonl
//	go run ./tools/benchdiff -trend -ledger runs.ledger
//
// The gate writes machine-readable results alongside the console report:
// -summary-json emits the per-benchmark verdicts as JSON (a CI artifact),
// -summary-md a GitHub-flavored markdown table for $GITHUB_STEP_SUMMARY.
// With -trend, -ledger prints per-lineage simulated-cycle trajectories from
// a hirata-report run ledger instead of the host-side bench history.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"hirata/internal/buildinfo"
	"hirata/internal/runledger"
)

// benchLine matches one result line of `go test -bench` output, e.g.
//
//	BenchmarkRunNoObserver-8   534   2128625 ns/op   338480 B/op   4638 allocs/op
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+\d+\s+([0-9.]+) ns/op`)

// cycLine extracts the simulator-throughput metric benchmarks report via
// b.ReportMetric(..., "sim-cycles/s").
var cycLine = regexp.MustCompile(`([0-9.e+]+) sim-cycles/s`)

// measurement is the best-of-N reduction of one bench run: minimum ns/op
// (scheduler noise only ever adds time) and maximum sim-cycles/s per name.
type measurement struct {
	NsPerOp  map[string]float64
	CyPerSec map[string]float64
}

// parse reduces bench output to the best value per benchmark name, with
// the trailing -GOMAXPROCS suffix stripped so baselines are host-portable.
func parse(r io.Reader) (measurement, error) {
	best := measurement{NsPerOp: make(map[string]float64), CyPerSec: make(map[string]float64)}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		name := m[1]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return measurement{}, fmt.Errorf("benchdiff: bad ns/op in %q: %v", sc.Text(), err)
		}
		if cur, ok := best.NsPerOp[name]; !ok || ns < cur {
			best.NsPerOp[name] = ns
		}
		if c := cycLine.FindStringSubmatch(sc.Text()); c != nil {
			if cyc, err := strconv.ParseFloat(c[1], 64); err == nil {
				if cur, ok := best.CyPerSec[name]; !ok || cyc > cur {
					best.CyPerSec[name] = cyc
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		return measurement{}, err
	}
	if len(best.NsPerOp) == 0 {
		return measurement{}, fmt.Errorf("benchdiff: no benchmark result lines found in input")
	}
	return best, nil
}

// appendHistory writes one history row to path (JSON Lines, append-only).
// phasesPath optionally names a hirata-bench -self-profile-json file whose
// phase_profile member is embedded in the row.
func appendHistory(path string, m measurement, phasesPath string) (runledger.HistoryRow, error) {
	bi := buildinfo.Get()
	row := runledger.HistoryRow{
		Time:            time.Now().UTC().Format(time.RFC3339),
		Revision:        bi.ShortRevision(),
		Dirty:           bi.Dirty,
		GoVersion:       bi.GoVersion,
		OS:              runtime.GOOS,
		Arch:            runtime.GOARCH,
		CPUs:            runtime.NumCPU(),
		Benchmarks:      m.NsPerOp,
		SimCyclesPerSec: m.CyPerSec,
	}
	if phasesPath != "" {
		data, err := os.ReadFile(phasesPath)
		if err != nil {
			return row, err
		}
		var doc struct {
			PhaseProfile json.RawMessage `json:"phase_profile"`
		}
		if err := json.Unmarshal(data, &doc); err != nil {
			return row, fmt.Errorf("benchdiff: %s: %v", phasesPath, err)
		}
		row.PhaseProfile = doc.PhaseProfile
	}
	js, err := json.Marshal(row)
	if err != nil {
		return row, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return row, err
	}
	if _, err := f.Write(append(js, '\n')); err != nil {
		f.Close()
		return row, err
	}
	return row, f.Close()
}

// checkHistoryRegression compares the last appended row against the most
// recent earlier row of the same host class and returns one message per
// shared sim-cycles/s metric that dropped by more than tol (0.10 = 10%).
// Rows from other host classes are skipped, not compared: a container
// class change shows up as an incomparable row, never as a false failure.
func checkHistoryRegression(rows []runledger.HistoryRow, tol float64) []string {
	if len(rows) < 2 {
		return nil
	}
	last := rows[len(rows)-1]
	var prev *runledger.HistoryRow
	for i := len(rows) - 2; i >= 0; i-- {
		if rows[i].HostClass() == last.HostClass() {
			prev = &rows[i]
			break
		}
	}
	if prev == nil {
		return nil
	}
	var fails []string
	names := make([]string, 0, len(last.SimCyclesPerSec))
	for name := range last.SimCyclesPerSec {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		got := last.SimCyclesPerSec[name]
		want, ok := prev.SimCyclesPerSec[name]
		if !ok || want <= 0 {
			continue
		}
		if got < want*(1-tol) {
			fails = append(fails, fmt.Sprintf(
				"%s: %.0f sim-cycles/s, was %.0f @ %s (%.1f%% drop, tolerance %.0f%%)",
				name, got, want, prev.Revision, (1-got/want)*100, tol*100))
		}
	}
	return fails
}

// writeTrend prints each benchmark's ns/op trajectory across the history,
// with the per-row delta against the previous appearance.
func writeTrend(w io.Writer, rows []runledger.HistoryRow) {
	names := map[string]bool{}
	for _, r := range rows {
		for n := range r.Benchmarks {
			names[n] = true
		}
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	fmt.Fprintf(w, "bench history: %d run(s)\n", len(rows))
	for _, name := range sorted {
		fmt.Fprintf(w, "%s\n", name)
		prev := 0.0
		for _, r := range rows {
			ns, ok := r.Benchmarks[name]
			if !ok {
				continue
			}
			delta := "      —"
			if prev > 0 {
				delta = fmt.Sprintf("%+6.1f%%", (ns/prev-1)*100)
			}
			line := fmt.Sprintf("  %-20s %-13s %14.0f ns/op  %s", r.Time, r.Revision, ns, delta)
			if cyc, ok := r.SimCyclesPerSec[name]; ok {
				line += fmt.Sprintf("  %11.0f sim-cycles/s", cyc)
			}
			fmt.Fprintln(w, line)
			prev = ns
		}
	}
}

// gateRow is one benchmark's verdict in the baseline gate.
type gateRow struct {
	Name     string  `json:"name"`
	Status   string  `json:"status"` // ok, FAIL, new
	NsPerOp  float64 `json:"ns_per_op"`
	Baseline float64 `json:"baseline_ns_per_op,omitempty"`
	RelDelta float64 `json:"rel_delta,omitempty"` // (measured/baseline)-1; absent for new benchmarks
}

// gateSummary is the machine-readable result of one baseline-gate run,
// written by -summary-json and rendered by -summary-md for the CI step
// summary.
type gateSummary struct {
	Tolerance  float64   `json:"tolerance"`
	Passed     bool      `json:"passed"`
	Benchmarks []gateRow `json:"benchmarks"`
}

// runGate compares the measured ns/op map against the baseline and returns
// every benchmark's verdict, sorted by name.
func runGate(measured, baseline map[string]float64, tol float64) gateSummary {
	names := make([]string, 0, len(measured))
	for name := range measured {
		names = append(names, name)
	}
	sort.Strings(names)
	s := gateSummary{Tolerance: tol, Passed: true}
	for _, name := range names {
		got := measured[name]
		want, ok := baseline[name]
		if !ok {
			s.Benchmarks = append(s.Benchmarks, gateRow{Name: name, Status: "new", NsPerOp: got})
			continue
		}
		row := gateRow{Name: name, Status: "ok", NsPerOp: got, Baseline: want, RelDelta: got/want - 1}
		if got/want > tol {
			row.Status = "FAIL"
			s.Passed = false
		}
		s.Benchmarks = append(s.Benchmarks, row)
	}
	return s
}

// writeText prints the human gate report (the classic console format).
func (s gateSummary) writeText(w io.Writer) {
	for _, r := range s.Benchmarks {
		if r.Status == "new" {
			fmt.Fprintf(w, "  new  %-50s %12.0f ns/op (no baseline)\n", r.Name, r.NsPerOp)
			continue
		}
		fmt.Fprintf(w, "  %-4s %-50s %12.0f ns/op  baseline %12.0f  (%+.1f%%)\n",
			r.Status, r.Name, r.NsPerOp, r.Baseline, r.RelDelta*100)
	}
}

// writeMarkdown renders the gate as a GitHub-flavored markdown table for
// $GITHUB_STEP_SUMMARY.
func (s gateSummary) writeMarkdown(w io.Writer) {
	verdict := "PASS"
	if !s.Passed {
		verdict = "FAIL"
	}
	fmt.Fprintf(w, "### Benchmark gate: %s (tolerance %+.0f%%)\n\n", verdict, (s.Tolerance-1)*100)
	fmt.Fprintln(w, "| benchmark | status | ns/op | baseline | Δ |")
	fmt.Fprintln(w, "|---|---|---:|---:|---:|")
	for _, r := range s.Benchmarks {
		if r.Status == "new" {
			fmt.Fprintf(w, "| %s | new | %.0f | — | — |\n", r.Name, r.NsPerOp)
			continue
		}
		fmt.Fprintf(w, "| %s | %s | %.0f | %.0f | %+.1f%% |\n",
			r.Name, r.Status, r.NsPerOp, r.Baseline, r.RelDelta*100)
	}
}

// writeJSONFile writes the summary as an indented JSON document.
func (s gateSummary) writeJSONFile(path string) error {
	js, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(js, '\n'), 0o644)
}

// writeLedgerTrend prints each lineage's simulated-cycle trajectory from a
// content-addressed run ledger: the cross-run counterpart of the host-side
// bench history, keyed by what the simulator computed rather than how fast
// the host ran it.
func writeLedgerTrend(w io.Writer, entries []runledger.Entry) {
	lineage := func(e runledger.Entry) string {
		if e.Record.Tag != "" {
			return e.Record.Tag
		}
		return runledger.ShortKey(e.Record.Key)
	}
	var order []string
	byLine := map[string][]runledger.Entry{}
	for _, e := range entries {
		ln := lineage(e)
		if _, ok := byLine[ln]; !ok {
			order = append(order, ln)
		}
		byLine[ln] = append(byLine[ln], e)
	}
	fmt.Fprintf(w, "run ledger: %d record(s), %d lineage(s)\n", len(entries), len(order))
	for _, ln := range order {
		fmt.Fprintf(w, "%s\n", ln)
		prev := uint64(0)
		for _, e := range byLine[ln] {
			r := e.Record
			delta := "      —"
			if prev > 0 {
				delta = fmt.Sprintf("%+6.1f%%", (float64(r.Result.Cycles)/float64(prev)-1)*100)
			}
			fmt.Fprintf(w, "  %-13s %-13s %2d slots %12d cycles  %s  ipc %.3f\n",
				runledger.ShortKey(e.Hash), r.Revision, len(r.Result.Slots), r.Result.Cycles, delta, r.IPC())
			prev = r.Result.Cycles
		}
	}
}

func main() {
	var (
		baselinePath = flag.String("baseline", "BENCH_sweep.json", "baseline JSON file (its \"benchmarks\" map holds ns/op per name)")
		inPath       = flag.String("in", "", "bench output file (default: stdin)")
		tolerance    = flag.Float64("tolerance", 1.10, "fail when measured ns/op exceeds baseline*tolerance")
		update       = flag.Bool("update", false, "rewrite the baseline's benchmarks map with the measured values")
		outPath      = flag.String("out", "", "also write the measured map as JSON here (CI artifact)")
		historyPath  = flag.String("history", "", "append this run to a JSONL history file (with -trend: the file to read)")
		phasesPath   = flag.String("phases", "", "with -history, embed the phase_profile from this hirata-bench -self-profile-json file")
		trend        = flag.Bool("trend", false, "print the per-benchmark trajectory recorded in -history (default BENCH_history.jsonl) and exit")
		historyTol   = flag.Float64("history-tolerance", 0.10, "with -history, fail when sim-cycles/s drops by more than this fraction vs the previous same-host-class row")
		ledgerPath   = flag.String("ledger", "", "with -trend, print per-lineage run trajectories from this hirata-report run ledger instead of the bench history")
		summaryJSON  = flag.String("summary-json", "", "write the gate's per-benchmark verdicts as JSON here (CI artifact)")
		summaryMD    = flag.String("summary-md", "", "write the gate's verdicts as a markdown table here (append to $GITHUB_STEP_SUMMARY)")
	)
	flag.Parse()

	if *trend && *ledgerPath != "" {
		led, err := runledger.Open(*ledgerPath)
		if err != nil {
			fatal(err)
		}
		if led.Len() == 0 {
			fatal(fmt.Errorf("benchdiff: %s holds no run records", *ledgerPath))
		}
		writeLedgerTrend(os.Stdout, led.Entries())
		return
	}
	if *trend {
		path := *historyPath
		if path == "" {
			path = "BENCH_history.jsonl"
		}
		rows, err := runledger.ReadHistory(path)
		if err != nil {
			fatal(err)
		}
		if len(rows) == 0 {
			fatal(fmt.Errorf("benchdiff: %s holds no history rows", path))
		}
		writeTrend(os.Stdout, rows)
		return
	}

	in := io.Reader(os.Stdin)
	if *inPath != "" {
		f, err := os.Open(*inPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}
	measured, err := parse(in)
	if err != nil {
		fatal(err)
	}
	if *outPath != "" {
		js, err := json.MarshalIndent(measured.NsPerOp, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*outPath, append(js, '\n'), 0o644); err != nil {
			fatal(err)
		}
	}
	if *historyPath != "" {
		// Append first, gate second: the row is recorded even when the gate
		// trips, so the regression itself is in the history it was caught by.
		row, err := appendHistory(*historyPath, measured, *phasesPath)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("benchdiff: appended %d benchmark(s) @ %s to %s\n",
			len(row.Benchmarks), row.Revision, *historyPath)
		rows, err := runledger.ReadHistory(*historyPath)
		if err != nil {
			fatal(err)
		}
		if fails := checkHistoryRegression(rows, *historyTol); len(fails) > 0 {
			for _, f := range fails {
				fmt.Fprintf(os.Stderr, "benchdiff: %s\n", f)
			}
			fmt.Fprintf(os.Stderr, "benchdiff: sim-cycles/s regression vs previous history row\n")
			os.Exit(1)
		}
		return
	}

	// The baseline file may carry other fields (host notes, before/after
	// measurements); only the "benchmarks" map is read and rewritten.
	raw := make(map[string]json.RawMessage)
	if data, err := os.ReadFile(*baselinePath); err == nil {
		if err := json.Unmarshal(data, &raw); err != nil {
			fatal(fmt.Errorf("benchdiff: %s: %v", *baselinePath, err))
		}
	} else if !*update {
		fatal(err)
	}
	baseline := make(map[string]float64)
	if b, ok := raw["benchmarks"]; ok {
		if err := json.Unmarshal(b, &baseline); err != nil {
			fatal(fmt.Errorf("benchdiff: %s: benchmarks map: %v", *baselinePath, err))
		}
	}

	if *update {
		js, err := json.MarshalIndent(measured.NsPerOp, "", "  ")
		if err != nil {
			fatal(err)
		}
		raw["benchmarks"] = js
		out, err := json.MarshalIndent(raw, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*baselinePath, append(out, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("benchdiff: updated %s with %d benchmarks\n", *baselinePath, len(measured.NsPerOp))
		return
	}

	summary := runGate(measured.NsPerOp, baseline, *tolerance)
	summary.writeText(os.Stdout)
	if *summaryJSON != "" {
		if err := summary.writeJSONFile(*summaryJSON); err != nil {
			fatal(err)
		}
	}
	if *summaryMD != "" {
		var buf strings.Builder
		summary.writeMarkdown(&buf)
		if err := os.WriteFile(*summaryMD, []byte(buf.String()), 0o644); err != nil {
			fatal(err)
		}
	}
	if !summary.Passed {
		fmt.Fprintf(os.Stderr, "benchdiff: performance regression beyond %.0f%% tolerance\n", (*tolerance-1)*100)
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
