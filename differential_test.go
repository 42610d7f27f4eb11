package hirata

// Differential proofs for the performance layers described in
// docs/PERFORMANCE.md:
//
//   - quiescent-cycle skipping must be invisible: every workload produces a
//     bit-identical Result and final memory image with the skip disabled
//     (MTConfig.DisableCycleSkip) and enabled;
//   - the cycle core's results are pinned: the same workloads, plus every
//     MinC program shipped under examples/programs, reproduce the run
//     records, memory images and metrics reports committed under
//     testdata/pinned (pinned_test.go);
//   - the parallel sweep engine must be invisible: experiment runners
//     produce byte-identical output at any parallelism.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"hirata/internal/runledger"
)

// memWords snapshots the full memory image.
func memWords(t *testing.T, m *Memory) []uint64 {
	t.Helper()
	out := make([]uint64, m.Size())
	for a := int64(0); a < m.Size(); a++ {
		v, err := m.Load(a)
		if err != nil {
			t.Fatal(err)
		}
		out[a] = v
	}
	return out
}

// runSkipDifferential runs the same program twice — cycle skip disabled,
// then enabled — and requires identical Results and memory images.
func runSkipDifferential(t *testing.T, cfg MTConfig, text []Instruction, mkMem func() (*Memory, error), startPCs ...int64) {
	t.Helper()
	var results [2]MTResult
	var mems [2][]uint64
	for i, disable := range []bool{true, false} {
		c := cfg
		c.DisableCycleSkip = disable
		m, err := mkMem()
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunMT(c, text, m, startPCs...)
		if err != nil {
			t.Fatalf("DisableCycleSkip=%v: %v", disable, err)
		}
		results[i] = res
		mems[i] = memWords(t, m)
	}
	if !reflect.DeepEqual(results[0], results[1]) {
		t.Errorf("Result differs with cycle skip:\n  off: %+v\n  on:  %+v", results[0], results[1])
	}
	if !reflect.DeepEqual(mems[0], mems[1]) {
		t.Error("final memory image differs with cycle skip")
	}
}

func TestCycleSkipDifferentialFib(t *testing.T) {
	prog := loadProgram(t, "fib.s")
	runSkipDifferential(t, MTConfig{ThreadSlots: 1, StandbyStations: true},
		prog.Text, func() (*Memory, error) { return prog.NewMemory(128) })
}

func TestCycleSkipDifferentialSort(t *testing.T) {
	prog := loadProgram(t, "sort.s")
	runSkipDifferential(t, MTConfig{ThreadSlots: 4, LoadStoreUnits: 2, StandbyStations: true},
		prog.Text, func() (*Memory, error) { return prog.NewMemory(64) })
}

func TestCycleSkipDifferentialRadiosity(t *testing.T) {
	rd, err := BuildRadiosity(RadiosityConfig{Patches: 12, Sweeps: 2})
	if err != nil {
		t.Fatal(err)
	}
	runSkipDifferential(t, MTConfig{ThreadSlots: 8, LoadStoreUnits: 2, StandbyStations: true},
		rd.Prog.Text, func() (*Memory, error) { return rd.NewMemory(8) })
}

func TestCycleSkipDifferentialRayTrace(t *testing.T) {
	rt, err := BuildRayTrace(RayTraceConfig{Rays: 16, Spheres: 6})
	if err != nil {
		t.Fatal(err)
	}
	for _, slots := range []int{2, 8} {
		runSkipDifferential(t, MTConfig{ThreadSlots: slots, LoadStoreUnits: 2, StandbyStations: true},
			rt.Par.Text, func() (*Memory, error) { return rt.NewMemory(rt.Par, slots) })
	}
}

// TestCycleSkipDifferentialConcurrentMT is the case the skip is built for:
// high remote latency with more context frames than thread slots, so long
// quiescent stretches alternate with data-absence context switches.
func TestCycleSkipDifferentialConcurrentMT(t *testing.T) {
	prog, err := Assemble(concurrentMTSrc)
	if err != nil {
		t.Fatal(err)
	}
	mkMem := func() (*Memory, error) {
		m := NewMemoryWithRemote(8192, 4096, 300)
		for i := int64(4096); i < 8192; i++ {
			m.SetInt(i, i%97)
		}
		return m, nil
	}
	// Four threads on one slot with four frames (switching on), and the
	// stall-through variant with switching suppressed.
	for _, suppress := range []bool{false, true} {
		runSkipDifferential(t, MTConfig{
			ThreadSlots:      1,
			ContextFrames:    4,
			StandbyStations:  true,
			ExplicitRotation: suppress,
		}, prog.Text, mkMem, 0, 0, 0, 0)
	}
}

func TestCycleSkipDifferentialTraceReplay(t *testing.T) {
	rt, err := BuildRayTrace(RayTraceConfig{Rays: 8, Spheres: 4})
	if err != nil {
		t.Fatal(err)
	}
	m, err := rt.NewMemory(rt.Seq, 1)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := RecordTrace(rt.Seq.Text, m)
	if err != nil {
		t.Fatal(err)
	}
	traces := [][]TraceRecord{recs, recs, recs, recs}
	var results [2]MTResult
	for i, disable := range []bool{true, false} {
		res, err := ReplayTraces(MTConfig{
			ThreadSlots:      4,
			LoadStoreUnits:   2,
			StandbyStations:  true,
			DisableCycleSkip: disable,
		}, traces)
		if err != nil {
			t.Fatalf("DisableCycleSkip=%v: %v", disable, err)
		}
		results[i] = res
	}
	if !reflect.DeepEqual(results[0], results[1]) {
		t.Errorf("trace replay Result differs with cycle skip:\n  off: %+v\n  on:  %+v", results[0], results[1])
	}
}

// Pinned workloads: the cycle-skip matrix above plus the machine shapes
// with distinct issue paths, every shipped MinC program, and an observed
// run's metrics report, each checked against its golden under
// testdata/pinned (pinned_test.go). The goldens were cross-checked against
// an independent scan-everything cycle core when they were recorded.

func TestEventCoreDifferentialFib(t *testing.T) {
	prog := loadProgram(t, "fib.s")
	runPinned(t, "fib", MTConfig{ThreadSlots: 1, StandbyStations: true},
		prog.Text, func() (*Memory, error) { return prog.NewMemory(128) })
}

func TestEventCoreDifferentialSort(t *testing.T) {
	prog := loadProgram(t, "sort.s")
	runPinned(t, "sort", MTConfig{ThreadSlots: 4, LoadStoreUnits: 2, StandbyStations: true},
		prog.Text, func() (*Memory, error) { return prog.NewMemory(64) })
}

func TestEventCoreDifferentialRadiosity(t *testing.T) {
	rd, err := BuildRadiosity(RadiosityConfig{Patches: 12, Sweeps: 2})
	if err != nil {
		t.Fatal(err)
	}
	runPinned(t, "radiosity", MTConfig{ThreadSlots: 8, LoadStoreUnits: 2, StandbyStations: true},
		rd.Prog.Text, func() (*Memory, error) { return rd.NewMemory(8) })
}

func TestEventCoreDifferentialRayTrace(t *testing.T) {
	rt, err := BuildRayTrace(RayTraceConfig{Rays: 16, Spheres: 6})
	if err != nil {
		t.Fatal(err)
	}
	for _, slots := range []int{2, 8} {
		runPinned(t, fmt.Sprintf("raytrace_S%d", slots), MTConfig{ThreadSlots: slots, LoadStoreUnits: 2, StandbyStations: true},
			rt.Par.Text, func() (*Memory, error) { return rt.NewMemory(rt.Par, slots) })
	}
}

// TestEventCoreDifferentialIssueWidths covers the machine shapes with
// distinct issue paths: the width-1 head-stall cache, wide windows (which
// never cache), and latch-only issue without standby stations.
func TestEventCoreDifferentialIssueWidths(t *testing.T) {
	rt, err := BuildRayTrace(RayTraceConfig{Rays: 12, Spheres: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range []MTConfig{
		{ThreadSlots: 4, LoadStoreUnits: 2, StandbyStations: true, IssueWidth: 2},
		{ThreadSlots: 4, LoadStoreUnits: 2}, // issue latches, no standby
		{ThreadSlots: 8, LoadStoreUnits: 2, StandbyStations: true, RotationInterval: 3},
	} {
		runPinned(t, fmt.Sprintf("issue_widths_%d", i), cfg, rt.Par.Text,
			func() (*Memory, error) { return rt.NewMemory(rt.Par, cfg.ThreadSlots) })
	}
}

// TestEventCoreDifferentialConcurrentMT exercises the paths the event core
// optimises hardest: long remote-latency quiescent stretches (the empty
// event-set horizon) alternating with data-absence context switches.
func TestEventCoreDifferentialConcurrentMT(t *testing.T) {
	prog, err := Assemble(concurrentMTSrc)
	if err != nil {
		t.Fatal(err)
	}
	mkMem := func() (*Memory, error) {
		m := NewMemoryWithRemote(8192, 4096, 300)
		for i := int64(4096); i < 8192; i++ {
			m.SetInt(i, i%97)
		}
		return m, nil
	}
	for _, suppress := range []bool{false, true} {
		runPinned(t, fmt.Sprintf("concurrent_mt_explicit_%v", suppress), MTConfig{
			ThreadSlots:      1,
			ContextFrames:    4,
			StandbyStations:  true,
			ExplicitRotation: suppress,
		}, prog.Text, mkMem, 0, 0, 0, 0)
	}
}

// TestEventCoreDifferentialTraceReplay pins a trace-driven run. It has no
// program text or data memory, so its run key covers the configuration
// only.
func TestEventCoreDifferentialTraceReplay(t *testing.T) {
	rt, err := BuildRayTrace(RayTraceConfig{Rays: 8, Spheres: 4})
	if err != nil {
		t.Fatal(err)
	}
	m, err := rt.NewMemory(rt.Seq, 1)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := RecordTrace(rt.Seq.Text, m)
	if err != nil {
		t.Fatal(err)
	}
	cfg := MTConfig{ThreadSlots: 4, LoadStoreUnits: 2, StandbyStations: true}
	res, err := ReplayTraces(cfg, [][]TraceRecord{recs, recs, recs, recs})
	if err != nil {
		t.Fatal(err)
	}
	checkPinned(t, "trace_replay", []pinnedRun{newPinnedRun(runledger.Begin(cfg, nil, nil, nil).Finish(res, ""))})
}

// TestEventCoreDifferentialMinC pins every MinC program shipped under
// examples/programs (the curated fuzz-corpus survivors) at several machine
// widths.
func TestEventCoreDifferentialMinC(t *testing.T) {
	dir := filepath.Join("examples", "programs")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".mc") {
			continue
		}
		n++
		src, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		prog, err := CompileMinC(string(src))
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		for _, slots := range []int{1, 4, 8} {
			slots := slots
			name := fmt.Sprintf("%s/S%d", strings.TrimSuffix(e.Name(), ".mc"), slots)
			t.Run(name, func(t *testing.T) {
				runPinned(t, "minc/"+name,
					MTConfig{ThreadSlots: slots, LoadStoreUnits: 2, StandbyStations: true},
					prog.Text, func() (*Memory, error) {
						m, err := prog.NewMemory(1024)
						if err != nil {
							return nil, err
						}
						SetMinCThreads(prog, m, slots)
						return m, nil
					})
			})
		}
	}
	if n == 0 {
		t.Error("no MinC programs found under examples/programs")
	}
}

// TestEventCoreDifferentialMetricsJSON pins an observed simulation's full
// metrics report — totals, per-unit busy cycles, per-slot stall
// breakdowns, interval samples — as a SHA-256 of its JSON. Observers pin
// the machine to cycle-by-cycle stepping, so this covers the per-cycle
// dirty-set paths, not just the quiescent jumps.
func TestEventCoreDifferentialMetricsJSON(t *testing.T) {
	rt, err := BuildRayTrace(RayTraceConfig{Rays: 12, Spheres: 4})
	if err != nil {
		t.Fatal(err)
	}
	cfg := MTConfig{ThreadSlots: 4, LoadStoreUnits: 2, StandbyStations: true}
	m, err := rt.NewMemory(rt.Par, cfg.ThreadSlots)
	if err != nil {
		t.Fatal(err)
	}
	pend := runledger.Begin(cfg, rt.Par.Text, m, nil)
	col := NewCollector(cfg, CollectorOptions{MetricsInterval: 64})
	res, err := RunMTObserved(cfg, rt.Par.Text, m, []Observer{col})
	if err != nil {
		t.Fatal(err)
	}
	got := newPinnedRun(pend.Finish(res, ""))
	got.Memory = sha256Of(t, m.WriteImage)
	got.Metrics = sha256Of(t, col.WriteMetricsJSON)
	checkPinned(t, "metrics_json", []pinnedRun{got})
}

// TestParallelSweepByteIdentical proves the sweep engine is deterministic:
// the full paper-reproduction report serialises byte-identically whether
// the cells run sequentially or concurrently.
func TestParallelSweepByteIdentical(t *testing.T) {
	defer SetParallelism(0)
	w := RayTraceConfig{Rays: 12, Spheres: 4}
	var out [2][]byte
	for i, workers := range []int{1, 8} {
		SetParallelism(workers)
		rep, err := RunFullReport(w, 40, 24)
		if err != nil {
			t.Fatalf("parallelism %d: %v", workers, err)
		}
		js, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		out[i] = js
	}
	if !bytes.Equal(out[0], out[1]) {
		t.Error("report JSON differs between sequential and parallel sweeps")
	}
}

func TestParallelMultiprogramIdentical(t *testing.T) {
	defer SetParallelism(0)
	var out [2][]MultiprogramCell
	for i, workers := range []int{1, 8} {
		SetParallelism(workers)
		cells, err := RunMultiprogram([]int{2, 4})
		if err != nil {
			t.Fatalf("parallelism %d: %v", workers, err)
		}
		out[i] = cells
	}
	if !reflect.DeepEqual(out[0], out[1]) {
		t.Errorf("multiprogram cells differ:\n  seq: %+v\n  par: %+v", out[0], out[1])
	}
}
