package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"hirata"
)

// Paper sizes, as hirata-bench runs them by default.
const (
	paperRays    = 240
	paperSpheres = 12
	paperLK1N    = 400
	paperNodes   = 200
)

// paperOutput is everything one reproduction produces: Tables 2-5 and the
// speed-up curve, the in-text experiments and extensions, and the CI-sized
// design-space exploration.
type paperOutput struct {
	Report        *hirata.Report
	Utilization   hirata.MTResult
	Rotation      []hirata.RotationSweepCell
	PrivateICache []hirata.PrivateICacheCell
	FiniteCache   []hirata.FiniteCacheCell
	QueueDepth    []hirata.QueueDepthCell
	ConcurrentMT  []hirata.ConcurrentMTCell
	Doacross      []hirata.DoacrossCell
	DoacrossSeq   uint64
	IssueBW       []hirata.IssueBandwidthCell
	SWP           []hirata.SWPAblationCell
	StandbyDepth  []hirata.StandbyDepthCell
	Unroll        []hirata.UnrollCell
	BranchHiding  []hirata.BranchHidingCell
	BranchSeq     uint64
	Multiprogram  []hirata.MultiprogramCell
	Explore       *hirata.ExploreReport
}

// digest hashes the canonical JSON of every simulated statistic.
func (p *paperOutput) digest() (string, error) {
	b, err := json.Marshal(p)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// paperConfigs returns the paper-size ray trace and the CI-sized explore
// workload for a seed; the seed feeds both scene generators.
func paperConfigs(seed int64) (rt, explore hirata.RayTraceConfig) {
	return hirata.RayTraceConfig{Rays: paperRays, Spheres: paperSpheres, Seed: seed},
		hirata.RayTraceConfig{Rays: 48, Spheres: 6, Seed: seed}
}

// reproduce runs the full reproduction once: the five runners of
// hirata.RunFullReport in its order, then the extras and the explore, each
// inside its own span. With a nil tracer the spans cost nothing.
func reproduce(seed int64, tr *tracer) (*paperOutput, error) {
	rt, ert := paperConfigs(seed)
	r := &hirata.Report{Workload: rt}
	out := &paperOutput{Report: r}
	steps := []struct {
		name string
		run  func() error
	}{
		{"report.table2", func() (e error) { r.Table2, e = hirata.RunTable2(hirata.Table2Config{Workload: rt}); return }},
		{"report.table3", func() (e error) { r.Table3, e = hirata.RunTable3(hirata.Table3Config{Workload: rt}); return }},
		{"report.table4", func() (e error) { r.Table4, e = hirata.RunTable4(hirata.Table4Config{N: paperLK1N}); return }},
		{"report.table5", func() (e error) { r.Table5, e = hirata.RunTable5(hirata.Table5Config{Nodes: paperNodes}); return }},
		{"report.curve", func() (e error) { r.Curve, e = hirata.RunSpeedupCurve(rt, 8); return }},
		{"report.extras", func() error { return runExtras(rt, out) }},
		{"model.explore", func() (e error) {
			out.Explore, e = hirata.RunExplore(hirata.ExploreConfig{Workload: ert})
			return
		}},
	}
	for _, s := range steps {
		end := tr.begin(s.name)
		err := s.run()
		end()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
	}
	return out, nil
}

// runExtras runs the in-text experiments and extensions with the sizes
// hirata-bench uses.
func runExtras(rt hirata.RayTraceConfig, out *paperOutput) error {
	var err error
	steps := []func() error{
		func() (e error) { out.Utilization, e = hirata.UtilizationReport(rt, 8, 1); return },
		func() (e error) { out.Rotation, e = hirata.RunRotationSweep(rt, 4, 1); return },
		func() (e error) { out.PrivateICache, e = hirata.RunPrivateICache(rt); return },
		func() (e error) { out.FiniteCache, e = hirata.RunFiniteCache(rt, 4, []int{1024, 256, 64, 16}); return },
		func() (e error) {
			out.QueueDepth, e = hirata.RunQueueDepthAblation(paperNodes, 4, []int{1, 2, 4, 8})
			return
		},
		func() (e error) { out.ConcurrentMT, e = hirata.RunConcurrentMT(4, []int{4}, 300); return },
		func() (e error) {
			out.Doacross, out.DoacrossSeq, e = hirata.RunDoacross(paperLK1N, []int{1, 2, 3, 4, 8})
			return
		},
		func() (e error) { out.IssueBW, e = hirata.RunIssueBandwidth(rt, []int{2, 4, 8}); return },
		func() (e error) { out.SWP, e = hirata.RunSWPAblation(paperLK1N, []int{1, 4, 8}); return },
		func() (e error) { out.StandbyDepth, e = hirata.RunStandbyDepth(rt, 4, []int{1, 2, 4, 8}); return },
		func() (e error) {
			out.Unroll, e = hirata.RunUnrollAblation(384, []int{1, 2, 4, 8}, []int{1, 2, 3})
			return
		},
		func() (e error) {
			out.BranchHiding, out.BranchSeq, e = hirata.RunBranchHiding([]int{1, 2, 4, 8})
			return
		},
		func() (e error) { out.Multiprogram, e = hirata.RunMultiprogram([]int{2, 4, 8}); return },
	}
	for _, s := range steps {
		if err = s(); err != nil {
			return err
		}
	}
	return nil
}

// paperError is the mean absolute error, in percent, of the reproduced
// Tables 2-5 against the paper's values, over every cell the paper reports.
func paperError(r *hirata.Report) float64 {
	var sum float64
	var n int
	add := func(got, want float64) {
		if want == 0 {
			return
		}
		sum += math.Abs(got-want) / want * 100
		n++
	}
	for _, c := range r.Table2.Cells {
		add(c.Speedup, hirata.PaperTable2(c.Slots, c.LoadStoreUnits, c.Standby))
	}
	for _, c := range r.Table3.Cells {
		add(c.Speedup, hirata.PaperTable3(c.IssueWidth, c.Slots))
	}
	for _, c := range r.Table4.Cells {
		add(c.CyclesPerIter, hirata.PaperTable4(c.Slots, c.Strategy))
	}
	for _, c := range r.Table5.Cells {
		add(c.CyclesPerIter, hirata.PaperTable5(c.Slots))
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// paperInputs are the inputs the set-up phase builds for the seed: the
// paper-size ray trace and the scheduled Livermore Kernel 1 that the
// reproduction's runners also generate. The checks and the traced layer
// probes use them directly.
type paperInputs struct {
	rt *hirata.RayTrace
	lk *hirata.Livermore
}

func buildPaperInputs(seed int64) (*paperInputs, error) {
	rtc, _ := paperConfigs(seed)
	rt, err := hirata.BuildRayTrace(rtc)
	if err != nil {
		return nil, err
	}
	lk, err := hirata.BuildLivermore(hirata.LivermoreConfig{N: paperLK1N, Threads: 8, Strategy: hirata.ScheduleStrategyB, LoadStoreUnits: 1})
	if err != nil {
		return nil, err
	}
	return &paperInputs{rt: rt, lk: lk}, nil
}

// ray8Config is Table 2's 8-slot, one-load/store-unit machine with standby
// stations.
var ray8Config = hirata.MTConfig{ThreadSlots: 8, LoadStoreUnits: 1, StandbyStations: true}

// passTimes collects per-pass wall time and heap allocation.
type passTimes struct {
	wall, allocB, allocN []float64
}

// timedPasses runs pass until budget is spent, starting another pass only
// while the median pass so far still fits; at least minPasses run. after
// runs after each pass, outside the timed interval.
func timedPasses(budget time.Duration, minPasses int, pass func() error, after func() error) (passTimes, error) {
	var pt passTimes
	start := time.Now()
	for len(pt.wall) < minPasses || time.Since(start)+time.Duration(median(pt.wall)*float64(time.Second)) <= budget {
		b0, n0 := heapCounters()
		t0 := time.Now()
		err := pass()
		d := time.Since(t0)
		b1, n1 := heapCounters()
		if err != nil {
			return pt, err
		}
		pt.wall = append(pt.wall, d.Seconds())
		pt.allocB = append(pt.allocB, float64(b1-b0))
		pt.allocN = append(pt.allocN, float64(n1-n0))
		if err := after(); err != nil {
			return pt, err
		}
	}
	return pt, nil
}

func runPaperReport(opt options) (*outcome, error) {
	o := newOutcome()
	budget := opt.seconds
	if opt.trace {
		budget /= 2
	}

	// Set-up: build the seed's inputs. Repeats spread over the timed phase
	// build a copy and drop it; their median is setup_s.
	var in *paperInputs
	setup, err := sampleSetup(budget,
		func() (e error) { in, e = buildPaperInputs(opt.seed); return },
		func() error { _, e := buildPaperInputs(opt.seed); return e })
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}

	// Warm-up: one untimed reproduction with an in-memory run ledger
	// attached. It gives the reference digest, the simulated instructions
	// over the distinct MT runs the reproduction asks for (the ns_per_instr
	// denominator, which a memo of duplicate runs leaves unchanged), and
	// the duplicate-run census.
	led := hirata.NewRunLedger()
	hirata.SetRunLedger(led, "perfbench")
	ref, err := reproduce(opt.seed, nil)
	hirata.SetRunLedger(nil, "")
	if err != nil {
		return nil, fmt.Errorf("warm-up reproduction: %w", err)
	}
	if err := hirata.RunLedgerError(); err != nil {
		return nil, fmt.Errorf("run ledger: %w", err)
	}
	if o.digest, err = ref.digest(); err != nil {
		return nil, err
	}
	o.digestOf = "one full reproduction: Tables 2-5, curve, extras, CI-sized explore"
	var instr, cycles float64
	for _, e := range led.Entries() {
		instr += float64(e.Record.Result.Instructions)
		cycles += float64(e.Record.Result.Cycles)
	}
	st := led.Stats()
	o.info["mt_runs"], o.info["unique_mt_runs"], o.info["sim_instr"] = st.Appends, st.Records, instr

	var last *paperOutput
	check := func() {
		o.attempted++
		if d, err := last.digest(); err != nil || d != o.digest {
			o.fail("reproduction digest %s differs from the warm-up's %s", d, o.digest)
		}
	}

	untraced, err := timedPasses(budget, 2, func() (e error) { last, e = reproduce(opt.seed, nil); return },
		func() error { check(); return setup.between() })
	if err != nil {
		return nil, fmt.Errorf("reproduction: %w", err)
	}
	o.e2e["setup_s"] = setup.median()
	wall := median(untraced.wall)
	items := tail(untraced.wall)
	items.Value *= 1000
	o.tail = items
	o.e2e["wall_s"] = wall
	o.e2e["ns_per_instr"] = wall * 1e9 / instr
	o.e2e["item_ms_p50"] = wall * 1000
	o.e2e["item_ms_tail"] = items.Value
	o.e2e["alloc_mb"] = median(untraced.allocB) / (1 << 20)
	o.e2e["allocs"] = median(untraced.allocN)
	o.e2e["paper_err_pct"] = paperError(ref.Report)
	o.info["unit_s"] = untraced.wall

	if err := checkReproduction(o, in, ref); err != nil {
		return nil, err
	}

	if opt.trace {
		tr := newTracer()
		hirata.SetSweepTelemetry(tr)
		traced, err := timedPasses(budget, 2, func() (e error) {
			end := tr.begin("pass")
			last, e = reproduce(opt.seed, tr)
			end()
			return
		}, func() error { check(); return nil })
		hirata.SetSweepTelemetry(nil)
		if err != nil {
			return nil, fmt.Errorf("traced reproduction: %w", err)
		}
		if err := tr.write(spanFile(opt, "paper-report")); err != nil {
			return nil, err
		}
		sum := tr.summarize()
		passes := float64(len(traced.wall))
		for _, name := range []string{"report.table2", "report.table3", "report.table4", "report.table5", "report.curve", "report.extras"} {
			if ls := sum[name]; ls != nil {
				o.layer[name+"_s"] = median(ls.Durs) / 1000
			}
		}
		if ls := sum["sweep.cell"]; ls != nil {
			o.layer["sweep.cells"] = float64(ls.Count) / passes
			o.layer["sweep.cell_s_total"] = ls.Total.Seconds() / passes
		}
		if ls := sum["model.explore"]; ls != nil {
			o.layer["model.explore_s"] = median(ls.Durs) / 1000
			o.layer["model.self_s"] = ls.Self.Seconds() / float64(ls.Count)
		}
		o.layer["core.mt_runs"] = float64(st.Appends)
		o.layer["core.dup_runs"] = float64(st.DedupHits)
		o.layer["core.unique_run_ratio"] = float64(st.Records) / float64(st.Appends)
		o.layer["core.sim_instr"] = instr
		o.layer["core.sim_cycles"] = cycles
		o.layer["workload.build_ms"] = setup.median() * 1000
		o.layer["trace.overhead_s"] = median(traced.wall) - wall
		if err := probePaperLayers(o, in); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// simCheck is one re-run of a reproduced cell: a program on the cell's
// machine, the cycles the cell reports (0 when it reports none), how to
// read the functional results from memory, and the interpreter's results
// on the sequential program.
type simCheck struct {
	name   string
	cfg    hirata.MTConfig
	prog   *hirata.Program
	mem    func() (*hirata.Memory, error)
	cycles uint64
	result func(*hirata.Memory) []float64
	want   []float64
}

// run re-simulates the cell: its cycles must equal the cell's, its results
// must equal the interpreter's bit for bit, and its static lower bound must
// not exceed its cycles.
func (c simCheck) run(o *outcome) {
	o.attempted++
	m, err := c.mem()
	if err != nil {
		o.fail("%s: %v", c.name, err)
		return
	}
	res, err := hirata.RunMT(c.cfg, c.prog.Text, m)
	if err != nil {
		o.fail("%s: %v", c.name, err)
		return
	}
	if c.cycles != 0 && res.Cycles != c.cycles {
		o.fail("%s ran %d cycles alone, %d in the reproduction", c.name, res.Cycles, c.cycles)
	}
	if msg := compareFloats(c.result(m), c.want); msg != "" {
		o.fail("%s: %s", c.name, msg)
	}
	if b := hirata.StaticBounds(c.cfg, c.prog.Text); !b.Unbounded && uint64(b.Bound) > res.Cycles {
		o.fail("%s: static bound %d exceeds measured %d cycles", c.name, b.Bound, res.Cycles)
	}
}

// compareFloats returns "" when got equals want bit for bit.
func compareFloats(got, want []float64) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d results, interpreter %d", len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Sprintf("result %d is %v, interpreter %v", i, got[i], want[i])
		}
	}
	return ""
}

// interpretSeq runs a sequential program on hirata.Interpret and reads its
// results.
func interpretSeq(p *hirata.Program, mem func() (*hirata.Memory, error), result func(*hirata.Memory) []float64) ([]float64, error) {
	m, err := mem()
	if err != nil {
		return nil, err
	}
	if _, err := hirata.Interpret(p.Text, m); err != nil {
		return nil, err
	}
	return result(m), nil
}

// checkReproduction re-runs, once per run and outside the timings, every
// multithreaded cell of Tables 2-5, the speed-up curve and the doacross
// experiment, each on the program and machine its runner builds, and checks
// it against hirata.Interpret on the sequential program (simCheck.run).
func checkReproduction(o *outcome, in *paperInputs, out *paperOutput) error {
	var checks []simCheck
	rep := out.Report

	rt := in.rt
	rayResult := func(p *hirata.Program) func(*hirata.Memory) []float64 {
		return func(m *hirata.Memory) []float64 {
			ts, hits := rt.Results(p, m)
			for _, h := range hits {
				ts = append(ts, float64(h))
			}
			return ts
		}
	}
	rayWant, err := interpretSeq(rt.Seq, func() (*hirata.Memory, error) { return rt.NewMemory(rt.Seq, 1) }, rayResult(rt.Seq))
	if err != nil {
		return fmt.Errorf("ray trace interpreter: %w", err)
	}
	ray := func(name string, cfg hirata.MTConfig, cycles uint64) {
		checks = append(checks, simCheck{
			name: name, cfg: cfg, prog: rt.Par, cycles: cycles,
			mem:    func() (*hirata.Memory, error) { return rt.NewMemory(rt.Par, cfg.ThreadSlots) },
			result: rayResult(rt.Par), want: rayWant,
		})
	}
	for _, c := range rep.Table2.Cells {
		ray(fmt.Sprintf("table 2 (%d slots, %d LS, standby=%v)", c.Slots, c.LoadStoreUnits, c.Standby),
			hirata.MTConfig{ThreadSlots: c.Slots, LoadStoreUnits: c.LoadStoreUnits, StandbyStations: c.Standby}, c.Cycles)
	}
	for _, c := range rep.Table3.Cells {
		ray(fmt.Sprintf("table 3 (D=%d, S=%d)", c.IssueWidth, c.Slots),
			hirata.MTConfig{ThreadSlots: c.Slots, LoadStoreUnits: 2, StandbyStations: true, IssueWidth: c.IssueWidth}, c.Cycles)
	}
	for _, c := range rep.Curve {
		for _, ls := range []int{1, 2} {
			ray(fmt.Sprintf("curve (%d slots, %d LS)", c.Slots, ls),
				hirata.MTConfig{ThreadSlots: c.Slots, LoadStoreUnits: ls, StandbyStations: true}, 0)
		}
	}

	for _, c := range rep.Table4.Cells {
		lk, err := hirata.BuildLivermore(hirata.LivermoreConfig{N: paperLK1N, Threads: c.Slots, Strategy: c.Strategy, LoadStoreUnits: 1})
		if err != nil {
			return err
		}
		prog := lk.Par
		if c.Slots == 1 {
			prog = lk.Seq
		}
		result := func(p *hirata.Program) func(*hirata.Memory) []float64 {
			return func(m *hirata.Memory) []float64 { return lk.X(p, m) }
		}
		want, err := interpretSeq(lk.Seq, func() (*hirata.Memory, error) { return lk.Seq.NewMemory(64) }, result(lk.Seq))
		if err != nil {
			return fmt.Errorf("livermore interpreter: %w", err)
		}
		checks = append(checks, simCheck{
			name: fmt.Sprintf("table 4 (%v, %d slots)", c.Strategy, c.Slots),
			cfg:  hirata.MTConfig{ThreadSlots: c.Slots, LoadStoreUnits: 1, StandbyStations: true},
			prog: prog, cycles: c.TotalCycles,
			mem:    func() (*hirata.Memory, error) { return prog.NewMemory(64) },
			result: result(prog), want: want,
		})
	}

	// Table 5 walks the default list (seed 1) to its end; both programs
	// publish the iteration count.
	ll, err := hirata.BuildLinkedList(hirata.LinkedListConfig{Nodes: paperNodes, BreakAt: -1})
	if err != nil {
		return err
	}
	count := func(p *hirata.Program) func(*hirata.Memory) []float64 {
		return func(m *hirata.Memory) []float64 { return []float64{float64(m.IntAt(p.MustSymbol("gcount")))} }
	}
	llWant, err := interpretSeq(ll.Seq, func() (*hirata.Memory, error) { return ll.NewMemory(ll.Seq, 1) }, count(ll.Seq))
	if err != nil {
		return fmt.Errorf("linked list interpreter: %w", err)
	}
	for _, c := range rep.Table5.Cells {
		slots := c.Slots
		checks = append(checks, simCheck{
			name: fmt.Sprintf("table 5 (%d slots)", slots),
			cfg:  hirata.MTConfig{ThreadSlots: slots, LoadStoreUnits: 1, StandbyStations: true},
			prog: ll.Par, cycles: c.TotalCycles,
			mem:    func() (*hirata.Memory, error) { return ll.NewMemory(ll.Par, slots) },
			result: count(ll.Par), want: llWant,
		})
	}

	rc, err := hirata.BuildRecurrence(hirata.RecurrenceConfig{N: paperLK1N})
	if err != nil {
		return err
	}
	rcResult := func(p *hirata.Program) func(*hirata.Memory) []float64 {
		return func(m *hirata.Memory) []float64 { return rc.X(p, m) }
	}
	rcWant, err := interpretSeq(rc.Seq, func() (*hirata.Memory, error) { return rc.NewMemory(rc.Seq, 1) }, rcResult(rc.Seq))
	if err != nil {
		return fmt.Errorf("recurrence interpreter: %w", err)
	}
	for _, c := range out.Doacross {
		slots := c.Slots
		checks = append(checks, simCheck{
			name: fmt.Sprintf("doacross (%d slots)", slots),
			cfg:  hirata.MTConfig{ThreadSlots: slots, StandbyStations: true},
			prog: rc.Par, cycles: c.Cycles,
			mem:    func() (*hirata.Memory, error) { return rc.NewMemory(rc.Par, slots) },
			result: rcResult(rc.Par), want: rcWant,
		})
	}

	for _, c := range checks {
		c.run(o)
	}
	o.info["reproduction_checks"] = len(checks)
	return nil
}

// probePaperLayers times the single layers the reproduction is built from,
// each alone on the seed's inputs: the 8-slot core run, the baseline RISC
// machine, the functional interpreter and the static scheduler.
func probePaperLayers(o *outcome, in *paperInputs) error {
	const reps = 5
	var res hirata.MTResult
	t, err := timeMedian(reps, func() error {
		m, err := in.rt.NewMemory(in.rt.Par, ray8Config.ThreadSlots)
		if err != nil {
			return err
		}
		res, err = hirata.RunMT(ray8Config, in.rt.Par.Text, m)
		return err
	})
	if err != nil {
		return err
	}
	o.layer["core.ray8_ns_per_instr"] = t * 1e9 / float64(res.Instructions)

	var riscInstr uint64
	var riscAllocs []float64
	t, err = timeMedian(reps, func() error {
		m, err := in.rt.NewMemory(in.rt.Seq, 1)
		if err != nil {
			return err
		}
		_, n0 := heapCounters()
		r, err := hirata.RunRISC(hirata.RISCConfig{LoadStoreUnits: 1}, in.rt.Seq.Text, m)
		_, n1 := heapCounters()
		riscInstr = r.Instructions
		riscAllocs = append(riscAllocs, float64(n1-n0))
		return err
	})
	if err != nil {
		return err
	}
	o.layer["risc.ns_per_instr"] = t * 1e9 / float64(riscInstr)
	o.layer["risc.allocs_per_run"] = median(riscAllocs)

	var steps uint64
	t, err = timeMedian(reps, func() error {
		m, err := in.rt.NewMemory(in.rt.Seq, 1)
		if err != nil {
			return err
		}
		steps, err = hirata.Interpret(in.rt.Seq.Text, m)
		return err
	})
	if err != nil {
		return err
	}
	o.layer["exec.interpret_ns_per_instr"] = t * 1e9 / float64(steps)

	block := longestBlock(in.lk.Seq.Text)
	t, err = timeMedian(reps, func() error {
		for _, s := range []hirata.Strategy{hirata.ScheduleStrategyA, hirata.ScheduleStrategyB} {
			if _, err := hirata.ScheduleBlock(block, s, 8, 1); err != nil {
				return fmt.Errorf("schedule: %w", err)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	o.layer["sched.schedule_ms"] = t * 1000
	return nil
}

// longestBlock returns the longest branch-free run of instructions in text.
func longestBlock(text []hirata.Instruction) []hirata.Instruction {
	var best []hirata.Instruction
	start := 0
	for i := 0; i <= len(text); i++ {
		if i == len(text) || text[i].Op.IsBranch() {
			if i-start > len(best) {
				best = text[start:i]
			}
			start = i + 1
		}
	}
	return best
}
