// Command perfbench is the repository's benchmark. One run drives one
// workload through the public functions of package hirata and its internal
// packages, checks the outputs, and prints every metric by name and unit:
//
//	perfbench -workload paper-report -seed 1 -seconds 25 -trace 0
//
// With -trace 0 the last line of standard output holds the end-to-end
// metrics; with -trace 1 it holds the per-layer metrics of a traced run.
// See README.md for the metric table, the layer-to-metric map and why each
// workload was chosen. run.sh builds the command from source and runs it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"hirata"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd lists the end-to-end metrics every untraced run reports.
var endToEnd = map[string]string{
	"setup_s":       "s",
	"wall_s":        "s",
	"ns_per_instr":  "ns",
	"item_ms_p50":   "ms",
	"item_ms_tail":  "ms",
	"alloc_mb":      "MB",
	"allocs":        "count",
	"peak_rss_mb":   "MB",
	"paper_err_pct": "%",
}

// perLayer lists the per-layer metrics every traced run reports. A layer a
// workload does not exercise reports 0.
var perLayer = map[string]string{
	"report.table2_s":             "s",
	"report.table3_s":             "s",
	"report.table4_s":             "s",
	"report.table5_s":             "s",
	"report.curve_s":              "s",
	"report.extras_s":             "s",
	"sweep.cells":                 "count",
	"sweep.cell_s_total":          "s",
	"core.mt_runs":                "count",
	"core.dup_runs":               "count",
	"core.unique_run_ratio":       "ratio",
	"core.ray8_ns_per_instr":      "ns",
	"core.sim_instr":              "count",
	"core.sim_cycles":             "count",
	"core.run_ms_p50":             "ms",
	"risc.ns_per_instr":           "ns",
	"risc.allocs_per_run":         "count",
	"exec.interpret_ns_per_instr": "ns",
	"sched.schedule_ms":           "ms",
	"workload.build_ms":           "ms",
	"model.explore_s":             "s",
	"model.self_s":                "s",
	"model.characterize_ms":       "ms",
	"obs.observed_run_ms_p50":     "ms",
	"obs.overhead_ratio":          "ratio",
	"obs.export_ms":               "ms",
	"obs.export_kb":               "KB",
	"runledger.begin_ms":          "ms",
	"runledger.finish_ms":         "ms",
	"runledger.append_ms":         "ms",
	"runledger.record_kb":         "KB",
	"runledger.dedup_hits":        "count",
	"asm.assemble_ms":             "ms",
	"minc.compile_ms":             "ms",
	"lint.interthread_ms":         "ms",
	"lint.deadlock_ms":            "ms",
	"lint.bounds_ms":              "ms",
	"lint.allocs_per_item":        "count",
	"trace.overhead_s":            "s",
}

// options are the command-line settings shared by every workload.
type options struct {
	seed    int64
	seconds time.Duration
	trace   bool
	root    string // repository checkout (holds examples/programs)
	out     string // directory for files a run writes
}

// outcome is what one workload run produced.
type outcome struct {
	attempted, failed int
	problems          []string           // failed checks, printed to stderr
	e2e               map[string]float64 // end-to-end metrics (untraced)
	layer             map[string]float64 // per-layer metrics (traced)
	digest            string             // digest over the simulated statistics
	digestOf          string             // what the digest covers
	tail              tailStat
	info              map[string]any // extra context for the info line
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}, info: map[string]any{}}
}

// fail records a failed check against the run.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(options) (*outcome, error){
	"paper-report":    runPaperReport,
	"observed-record": runObservedRecord,
	"toolchain":       runToolchain,
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: paper-report, observed-record or toolchain")
		seed     = flag.Int64("seed", 1, "workload seed")
		seconds  = flag.Int("seconds", 25, "seconds to measure")
		trace    = flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
		root     = flag.String("root", ".", "repository checkout")
		out      = flag.String("out", ".bench_build/perfbench", "directory for files the run writes")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: usage: -workload paper-report|observed-record|toolchain -seed N -seconds N -trace 0|1")
		os.Exit(2)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	// One client, one simulation at a time.
	hirata.SetParallelism(1)

	opt := options{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1, root: *root, out: *out}
	o, err := run(opt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	if !opt.trace {
		o.e2e["peak_rss_mb"] = peakRSSMB()
	}
	seen := map[string]bool{}
	for _, p := range o.problems {
		if !seen[p] {
			seen[p] = true
			fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
		}
	}
	if err := report(os.Stdout, *workload, opt, o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// report prints the info line (stamp, digest, tail rule) and then, as the
// last line, the result object.
func report(w *os.File, workload string, opt options, o *outcome) error {
	catalog, values := endToEnd, o.e2e
	if opt.trace {
		catalog, values = perLayer, o.layer
	}
	metrics := make(map[string]metric, len(catalog))
	for name, unit := range catalog {
		v, ok := values[name]
		if !ok && !opt.trace {
			return fmt.Errorf("workload %s did not measure %s", workload, name)
		}
		metrics[name] = metric{Value: v, Unit: unit}
	}
	for name := range values {
		if _, ok := catalog[name]; !ok {
			return fmt.Errorf("workload %s measured unlisted metric %s", workload, name)
		}
	}
	info := map[string]any{
		"workload":  workload,
		"seed":      opt.seed,
		"traced":    opt.trace,
		"digest":    o.digest,
		"digest_of": o.digestOf,
		"tail":      o.tail,
		"stamp": map[string]any{
			"version":    hirata.Version(),
			"go":         runtime.Version(),
			"nproc":      runtime.NumCPU(),
			"gomaxprocs": runtime.GOMAXPROCS(0),
			"parallel":   hirata.Parallelism(),
		},
	}
	for k, v := range o.info {
		info[k] = v
	}
	if err := printJSON(w, info); err != nil {
		return err
	}
	return printJSON(w, map[string]any{
		"correct":   o.failed == 0,
		"attempted": o.attempted,
		"failed":    o.failed,
		"metrics":   metrics,
	})
}

func printJSON(w *os.File, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// spanFile names the span dump of a traced run.
func spanFile(opt options, workload string) string {
	return filepath.Join(opt.out, fmt.Sprintf("spans-%s-seed%d.json", workload, opt.seed))
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
