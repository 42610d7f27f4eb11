package hirata

// Pinned runs: the exact outcome of every workload in the differential
// matrix (differential_test.go, eventcore_corpus_test.go) and of every MT
// run of the CI-sized full report, committed under testdata/pinned. Each
// golden holds the run key (program, initial memory image, start PCs,
// canonical configuration), the run's ResultRef and stall-derived cycle
// stack, and a SHA-256 of the final memory image, so a change that moves
// any cycle, stall, unit statistic or stored word fails here with DiffRuns'
// per-bucket attribution of the difference.
//
// The goldens were recorded with -update while the simulator still had a
// second, scan-everything cycle core. That core reproduced every
// per-workload golden and 52 of the 57 full-report runs; the other five,
// Table 5's linked list, differ because its decode pass handled a
// mid-pass priority rotation differently (CHANGES.md has the command and
// the details). Regenerate the goldens only for an intentional timing
// change, and say so where the change is described.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"hirata/internal/runledger"
)

var updatePinned = flag.Bool("update", false, "rewrite the pinned-run goldens under testdata/pinned")

// pinnedRun is one pinned outcome: the record's identity and result
// sections (Revision, Tag and the optional sections are left out), plus the
// digests of what the record does not carry.
type pinnedRun struct {
	Key     string               `json:"key"`
	Result  runledger.ResultRef  `json:"result"`
	Stack   runledger.CycleStack `json:"stack"`
	Memory  string               `json:"memory_sha256,omitempty"`
	Metrics string               `json:"metrics_sha256,omitempty"`
	Err     string               `json:"error,omitempty"`
}

func newPinnedRun(rec *RunRecord) pinnedRun {
	return pinnedRun{Key: rec.Key, Result: rec.Result, Stack: rec.Stack}
}

// record rebuilds a comparable RunRecord for DiffRuns.
func (r pinnedRun) record() *RunRecord {
	return &RunRecord{Key: r.Key, Result: r.Result, Stack: r.Stack}
}

// sha256Of digests whatever write emits, e.g. Memory.WriteImage.
func sha256Of(t *testing.T, write func(io.Writer) error) string {
	t.Helper()
	h := sha256.New()
	if err := write(h); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// runPinned runs text on cfg from a fresh memory image and checks the
// outcome against testdata/pinned/<name>.jsonl. A run that fails is pinned
// too: its error text is part of the golden.
func runPinned(t *testing.T, name string, cfg MTConfig, text []Instruction, mkMem func() (*Memory, error), startPCs ...int64) {
	t.Helper()
	m, err := mkMem()
	if err != nil {
		t.Fatal(err)
	}
	pend := runledger.Begin(cfg, text, m, startPCs)
	res, err := RunMT(cfg, text, m, startPCs...)
	got := newPinnedRun(pend.Finish(res, ""))
	if err != nil {
		got.Err = err.Error()
	}
	got.Memory = sha256Of(t, m.WriteImage)
	checkPinned(t, name, []pinnedRun{got})
}

// checkPinned compares runs, one JSON line each, against the golden file
// of the given name (or rewrites it under -update). On a mismatch every
// run whose line differs is reported with its per-bucket cycle attribution.
func checkPinned(t *testing.T, name string, runs []pinnedRun) {
	t.Helper()
	path := filepath.Join("testdata", "pinned", strings.ReplaceAll(name, "/", "_")+".jsonl")
	var buf bytes.Buffer
	for _, r := range runs {
		js, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(js)
		buf.WriteByte('\n')
	}
	if *updatePinned {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to record it)", err)
	}
	if bytes.Equal(buf.Bytes(), golden) {
		return
	}
	var want []pinnedRun
	for _, line := range bytes.Split(bytes.TrimSpace(golden), []byte("\n")) {
		var r pinnedRun
		if err := json.Unmarshal(line, &r); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		want = append(want, r)
	}
	// Pair by run key: a run whose inputs changed shows up as one missing
	// and one unexpected key.
	wantByKey := make(map[string]pinnedRun, len(want))
	for _, r := range want {
		wantByKey[r.Key] = r
	}
	for _, r := range runs {
		w, ok := wantByKey[r.Key]
		if !ok {
			t.Errorf("%s: run %s is not in the golden", name, runledger.ShortKey(r.Key))
			continue
		}
		delete(wantByKey, r.Key)
		if msg := describePinnedDiff(w, r); msg != "" {
			t.Errorf("%s: %s", name, msg)
		}
	}
	for k := range wantByKey {
		t.Errorf("%s: golden run %s was not produced", name, runledger.ShortKey(k))
	}
}

// describePinnedDiff explains how got departs from want ("" if it does
// not).
func describePinnedDiff(want, got pinnedRun) string {
	wj, _ := json.Marshal(want)
	gj, _ := json.Marshal(got)
	if bytes.Equal(wj, gj) {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "run %s differs from its golden:", runledger.ShortKey(want.Key))
	if want.Err != got.Err {
		fmt.Fprintf(&b, "\n  error %q -> %q", want.Err, got.Err)
	}
	if want.Memory != got.Memory {
		b.WriteString("\n  final memory image differs")
	}
	if want.Metrics != got.Metrics {
		b.WriteString("\n  metrics report JSON differs")
	}
	d, err := DiffRuns(want.record(), got.record())
	if err != nil {
		fmt.Fprintf(&b, "\n  diff: %v", err)
		return b.String()
	}
	fmt.Fprintf(&b, "\n  cycles %d -> %d, instructions %d -> %d, switches %d -> %d",
		d.CyclesA, d.CyclesB, d.InstructionsA, d.InstructionsB, d.SwitchesA, d.SwitchesB)
	for _, bk := range d.Buckets {
		if bk.Delta != 0 {
			fmt.Fprintf(&b, "\n  %-18s %+d slot-cycles (%d -> %d)", bk.Name, bk.Delta, bk.A, bk.B)
		}
	}
	return b.String()
}

// TestPinnedFullReport pins every distinct MT run of the CI-sized full
// report (Tables 2-5 and the speed-up curve): the run ledger records each
// simulation, and the runs sorted by run key are the golden.
func TestPinnedFullReport(t *testing.T) {
	led := NewRunLedger()
	SetRunLedger(led, "")
	defer SetRunLedger(nil, "")
	if _, err := RunFullReport(RayTraceConfig{Rays: 12, Spheres: 4}, 40, 24); err != nil {
		t.Fatal(err)
	}
	if err := RunLedgerError(); err != nil {
		t.Fatal(err)
	}
	// One line per run key: observed and plain runs of the same inputs
	// differ only in sections the pinned run leaves out.
	var runs []pinnedRun
	seen := map[string]bool{}
	for _, e := range led.Entries() {
		if !seen[e.Record.Key] {
			seen[e.Record.Key] = true
			runs = append(runs, newPinnedRun(e.Record))
		}
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i].Key < runs[j].Key })
	if len(runs) == 0 {
		t.Fatal("the report recorded no runs")
	}
	checkPinned(t, "full_report", runs)
}
