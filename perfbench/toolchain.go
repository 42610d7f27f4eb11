package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"hirata"
)

// tcProgram is one toolchain corpus item: a source and the machine it is
// run on, which is the configuration it is verified against.
type tcProgram struct {
	name     string
	src      string
	minc     bool
	slots    int
	lsUnits  int
	memWords int64 // data memory of the program's run, 0 = hirata-sim's default
}

// exampleSlots are the thread slots each shipped example runs on
// (examples/programs/README.md).
var exampleSlots = map[string][2]int{ // slots, load/store units
	"fib.s":      {1, 1},
	"dotprod.s":  {4, 2},
	"pipeline.s": {3, 1},
	"sort.s":     {4, 1},
	"mandel.mc":  {8, 1},
	"matmul.mc":  {4, 1},
}

// loadCorpus reads the shipped examples and renders, as assembly source,
// the program each workload builder generates for the seed. Every rendered
// source must assemble back to the builder's program.
func loadCorpus(root string, seed int64) ([]tcProgram, error) {
	var corpus []tcProgram
	for _, name := range sortedKeys(exampleSlots) {
		src, err := os.ReadFile(filepath.Join(root, "examples", "programs", name))
		if err != nil {
			return nil, err
		}
		shape := exampleSlots[name]
		corpus = append(corpus, tcProgram{
			name: name, src: string(src), minc: strings.HasSuffix(name, ".mc"),
			slots: shape[0], lsUnits: shape[1],
		})
	}

	type built struct {
		name  string
		p     *hirata.Program
		slots int
		mem   func() (*hirata.Memory, error)
	}
	var progs []built
	rt, err := hirata.BuildRayTrace(hirata.RayTraceConfig{Rays: paperRays, Spheres: paperSpheres, Seed: seed})
	if err != nil {
		return nil, err
	}
	progs = append(progs,
		built{"raytrace-seq", rt.Seq, 1, func() (*hirata.Memory, error) { return rt.NewMemory(rt.Seq, 1) }},
		built{"raytrace-par", rt.Par, 8, func() (*hirata.Memory, error) { return rt.NewMemory(rt.Par, 8) }})
	for _, s := range []hirata.Strategy{hirata.ScheduleNone, hirata.ScheduleStrategyA, hirata.ScheduleStrategyB} {
		lk, err := hirata.BuildLivermore(hirata.LivermoreConfig{N: paperLK1N, Threads: 8, Strategy: s, LoadStoreUnits: 1})
		if err != nil {
			return nil, err
		}
		if s == hirata.ScheduleNone {
			progs = append(progs, built{"livermore-seq", lk.Seq, 1, func() (*hirata.Memory, error) { return lk.Seq.NewMemory(64) }})
		}
		progs = append(progs, built{"livermore-par-" + s.String(), lk.Par, 8, func() (*hirata.Memory, error) { return lk.Par.NewMemory(64) }})
	}
	ll, err := hirata.BuildLinkedList(hirata.LinkedListConfig{Nodes: paperNodes, Seed: seed, BreakAt: -1})
	if err != nil {
		return nil, err
	}
	progs = append(progs,
		built{"linkedlist-seq", ll.Seq, 1, func() (*hirata.Memory, error) { return ll.NewMemory(ll.Seq, 1) }},
		built{"linkedlist-par", ll.Par, 4, func() (*hirata.Memory, error) { return ll.NewMemory(ll.Par, 4) }})
	rc, err := hirata.BuildRecurrence(hirata.RecurrenceConfig{})
	if err != nil {
		return nil, err
	}
	progs = append(progs,
		built{"recurrence-seq", rc.Seq, 1, func() (*hirata.Memory, error) { return rc.NewMemory(rc.Seq, 1) }},
		built{"recurrence-par", rc.Par, 4, func() (*hirata.Memory, error) { return rc.NewMemory(rc.Par, 4) }})
	rd, err := hirata.BuildRadiosity(hirata.RadiosityConfig{Seed: seed})
	if err != nil {
		return nil, err
	}
	progs = append(progs, built{"radiosity", rd.Prog, 4, func() (*hirata.Memory, error) { return rd.NewMemory(4) }})

	for _, b := range progs {
		src := programSource(b.p)
		q, err := hirata.Assemble(src)
		if err != nil {
			return nil, fmt.Errorf("%s: rendered source does not assemble: %w", b.name, err)
		}
		if msg := sameProgram(b.p, q); msg != "" {
			return nil, fmt.Errorf("%s: rendered source assembles to another program: %s", b.name, msg)
		}
		m, err := b.mem()
		if err != nil {
			return nil, err
		}
		corpus = append(corpus, tcProgram{name: b.name, src: src, slots: b.slots, lsUnits: 1, memWords: m.Size()})
	}
	return corpus, nil
}

// machine is the configuration the program runs on.
func (t *tcProgram) machine() hirata.MTConfig {
	return hirata.MTConfig{ThreadSlots: t.slots, LoadStoreUnits: t.lsUnits, StandbyStations: true}
}

// lintConfig is the verifier configuration matching the program's run.
func (t *tcProgram) lintConfig(p *hirata.Program) hirata.LintConfig {
	mem := t.memWords
	if mem == 0 {
		mem = p.DataEnd + 4096 // hirata-sim's default -headroom
	}
	return hirata.LintConfig{ThreadSlots: t.slots, MemWords: mem}
}

// tcResult is what one item produced.
type tcResult struct {
	Name        string
	StaticInstr int
	Diagnostics []string
	Bounds      hirata.LintBounds
	Profile     *hirata.StaticModelProfile
}

// tcItem runs one corpus program through the toolchain: assemble or
// compile, verify with the cross-thread and the deadlock analyses, compute
// the static bounds, and characterize it for the analytic model.
func tcItem(t *tcProgram, tr *tracer, lintAllocs *[]float64) (tcResult, error) {
	r := tcResult{Name: t.name}
	var p *hirata.Program
	var err error
	if t.minc {
		end := tr.begin("minc.compile")
		p, err = hirata.CompileMinC(t.src)
		end()
	} else {
		end := tr.begin("asm.assemble")
		p, err = hirata.Assemble(t.src)
		end()
	}
	if err != nil {
		return r, err
	}
	r.StaticInstr = len(p.Text)

	var n0 uint64
	if lintAllocs != nil {
		_, n0 = heapCounters()
	}
	cfg := t.lintConfig(p)
	cfg.InterThread = true
	end := tr.begin("lint.interthread")
	ds := hirata.LintWithConfig(p, cfg)
	end()
	cfg.InterThread, cfg.Deadlock = false, true
	end = tr.begin("lint.deadlock")
	ds = append(ds, hirata.LintWithConfig(p, cfg)...)
	end()
	if lintAllocs != nil {
		_, n1 := heapCounters()
		*lintAllocs = append(*lintAllocs, float64(n1-n0))
	}
	for _, d := range ds {
		r.Diagnostics = append(r.Diagnostics, d.String())
	}

	end = tr.begin("lint.bounds")
	r.Bounds = hirata.StaticBounds(t.machine(), p.Text)
	end()

	end = tr.begin("model.characterize")
	w := hirata.NewModelWorkload(t.name, p.Text)
	end()
	r.Profile = w.Static
	return r, nil
}

// tcPhase is one measured run over the corpus, pass after pass.
type tcPhase struct {
	passes   passTimes
	itemMs   []float64
	instr    float64 // static instructions per pass
	digest   string  // of the first pass
	problems []string
}

// runTcPhase repeats corpus passes until the budget is spent (at least two).
// Every pass must produce the first pass's results. After each pass, the
// set-up repeats that are due run.
func runTcPhase(corpus []tcProgram, budget time.Duration, tr *tracer, lintAllocs *[]float64, setup *setupSampler) (*tcPhase, int, error) {
	ph := &tcPhase{}
	attempted := 0
	start := time.Now()
	results := make([]tcResult, len(corpus))
	for len(ph.passes.wall) < 2 || time.Since(start)+time.Duration(median(ph.passes.wall)*float64(time.Second)) <= budget {
		var pass struct {
			wall time.Duration
			b, n uint64
		}
		endPass := tr.begin("pass")
		for i := range corpus {
			b0, n0 := heapCounters()
			t0 := time.Now()
			endItem := tr.begin("item")
			r, err := tcItem(&corpus[i], tr, lintAllocs)
			endItem()
			d := time.Since(t0)
			b1, n1 := heapCounters()
			if err != nil {
				return nil, attempted, fmt.Errorf("%s: %w", corpus[i].name, err)
			}
			attempted++
			pass.wall += d
			pass.b += b1 - b0
			pass.n += n1 - n0
			ph.itemMs = append(ph.itemMs, ms(d))
			if len(ph.passes.wall) == 0 {
				ph.instr += float64(r.StaticInstr)
			}
			results[i] = r
			if len(r.Diagnostics) > 0 {
				ph.problems = append(ph.problems, fmt.Sprintf("%s: %d diagnostics with its run config, first: %s", r.Name, len(r.Diagnostics), r.Diagnostics[0]))
			}
		}
		endPass()
		ph.passes.wall = append(ph.passes.wall, pass.wall.Seconds())
		ph.passes.allocB = append(ph.passes.allocB, float64(pass.b))
		ph.passes.allocN = append(ph.passes.allocN, float64(pass.n))
		b, err := json.Marshal(results)
		if err != nil {
			return nil, attempted, err
		}
		sum := sha256.Sum256(b)
		d := hex.EncodeToString(sum[:])
		if ph.digest == "" {
			ph.digest = d
		} else if d != ph.digest {
			ph.problems = append(ph.problems, fmt.Sprintf("pass %d digest %s differs from the first pass's %s", len(ph.passes.wall), d, ph.digest))
		}
		if err := setup.between(); err != nil {
			return nil, attempted, err
		}
	}
	return ph, attempted, nil
}

// table4Error is the mean absolute error, in percent, of the reproduced
// Table 4 — the static code scheduling table — against the paper.
func table4Error() (float64, error) {
	t4, err := hirata.RunTable4(hirata.Table4Config{N: paperLK1N})
	if err != nil {
		return 0, err
	}
	var sum float64
	var n int
	for _, c := range t4.Cells {
		if want := hirata.PaperTable4(c.Slots, c.Strategy); want != 0 {
			sum += math.Abs(c.CyclesPerIter-want) / want * 100
			n++
		}
	}
	return sum / float64(n), nil
}

func runToolchain(opt options) (*outcome, error) {
	o := newOutcome()
	budget := opt.seconds
	if opt.trace {
		budget /= 2
	}
	// Set-up: read the corpus and render the builders' programs. Repeats
	// spread over the timed phase drop what they load; their median is
	// setup_s.
	var corpus []tcProgram
	setup, err := sampleSetup(budget,
		func() (e error) { corpus, e = loadCorpus(opt.root, opt.seed); return },
		func() error { _, e := loadCorpus(opt.root, opt.seed); return e })
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}

	ph, n, err := runTcPhase(corpus, budget, nil, nil, setup)
	if err != nil {
		return nil, err
	}
	o.e2e["setup_s"] = setup.median()
	o.attempted += n
	for _, p := range ph.problems {
		o.fail("%s", p)
	}
	// The tail is taken per block of whole passes, so every block holds the
	// same mix of programs.
	items := blockTail(ph.itemMs, len(corpus)*((99+len(corpus))/len(corpus)))
	o.tail = items
	o.digest = ph.digest
	o.digestOf = fmt.Sprintf("one pass over the %d-program corpus: diagnostics, static bounds, model profiles", len(corpus))
	o.e2e["wall_s"] = median(ph.passes.wall)
	o.e2e["ns_per_instr"] = median(ph.passes.wall) * 1e9 / ph.instr
	o.e2e["item_ms_p50"] = median(ph.itemMs)
	o.e2e["item_ms_tail"] = items.Value
	o.e2e["alloc_mb"] = median(ph.passes.allocB) / (1 << 20)
	o.e2e["allocs"] = median(ph.passes.allocN)
	o.info["unit_s"] = ph.passes.wall
	o.info["corpus"] = len(corpus)
	o.attempted++
	if o.e2e["paper_err_pct"], err = table4Error(); err != nil {
		o.fail("table 4: %v", err)
	}

	if opt.trace {
		tr := newTracer()
		var lintAllocs []float64
		tph, n, err := runTcPhase(corpus, budget, tr, &lintAllocs, nil)
		if err != nil {
			return nil, fmt.Errorf("traced: %w", err)
		}
		o.attempted += n
		for _, p := range tph.problems {
			o.fail("traced: %s", p)
		}
		if tph.digest != o.digest {
			o.fail("traced digest %s differs from the untraced %s", tph.digest, o.digest)
		}
		if err := tr.write(spanFile(opt, "toolchain")); err != nil {
			return nil, err
		}
		sum := tr.summarize()
		mean := func(name string) float64 {
			if ls := sum[name]; ls != nil {
				return ms(ls.Total) / float64(ls.Count)
			}
			return 0
		}
		for _, l := range []string{"asm.assemble", "minc.compile", "lint.interthread", "lint.deadlock", "lint.bounds", "model.characterize"} {
			o.layer[l+"_ms"] = mean(l)
		}
		o.layer["lint.allocs_per_item"] = median(lintAllocs)
		o.layer["workload.build_ms"] = setup.median() * 1000
		o.layer["trace.overhead_s"] = median(tph.passes.wall) - median(ph.passes.wall)
	}
	return o, nil
}
