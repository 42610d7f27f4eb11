package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"hirata"
	"hirata/internal/runledger"
)

// The observed-record item: one ray-trace scene per item, run on Table 2's
// 8-slot, one-load/store-unit machine with standby stations.
const (
	obsRays    = 48
	obsSpheres = 6
	// obsBlock is the number of items per block. A block's inputs are
	// generated before it runs and its outputs checked after it, outside
	// the item timings; wall_s and the allocation metrics are per block.
	// The digest and the paper error cover block 0, which every run
	// completes.
	obsBlock = 100
)

// obsCollectorOptions are the options hirata-bench and hirata-sim record
// with: metrics samples every 256 cycles and the default event ring, so the
// Perfetto export holds the whole run.
var obsCollectorOptions = hirata.CollectorOptions{MetricsInterval: 256}

// interpretRay runs the sequential program on the functional interpreter.
func interpretRay(rt *hirata.RayTrace) ([]float64, []int64, uint64, error) {
	m, err := rt.NewMemory(rt.Seq, 1)
	if err != nil {
		return nil, nil, 0, err
	}
	steps, err := hirata.Interpret(rt.Seq.Text, m)
	if err != nil {
		return nil, nil, 0, err
	}
	ts, hits := rt.Results(rt.Seq, m)
	return ts, hits, steps, nil
}

func compareRays(ts []float64, hits []int64, wantTs []float64, wantHits []int64) string {
	for i := range wantTs {
		if math.Float64bits(ts[i]) != math.Float64bits(wantTs[i]) || hits[i] != wantHits[i] {
			return fmt.Sprintf("ray %d: (t=%v, hit=%d), interpreter (t=%v, hit=%d)", i, ts[i], hits[i], wantTs[i], wantHits[i])
		}
	}
	return ""
}

// obsItem is one observed-record input and, once run, its outcome.
type obsItem struct {
	rt  *hirata.RayTrace
	mem *hirata.Memory

	res    hirata.MTResult
	digest string // hash of the result and the exported CPI stack
}

// obsItemSeed is the scene seed of item i: every item is a distinct scene.
func obsItemSeed(seed int64, i int) int64 { return seed + int64(i) }

// buildObsItem generates item i's scene and memory image.
func buildObsItem(seed int64, i int) (*obsItem, error) {
	rt, err := hirata.BuildRayTrace(hirata.RayTraceConfig{Rays: obsRays, Spheres: obsSpheres, Seed: obsItemSeed(seed, i)})
	if err != nil {
		return nil, err
	}
	m, err := rt.NewMemory(rt.Par, ray8Config.ThreadSlots)
	if err != nil {
		return nil, err
	}
	return &obsItem{rt: rt, mem: m}, nil
}

// buildBlock generates block b's items and returns each item's build time.
func buildBlock(seed int64, b int) ([]*obsItem, []float64, error) {
	items := make([]*obsItem, obsBlock)
	buildMs := make([]float64, obsBlock)
	for i := range items {
		t0 := time.Now()
		it, err := buildObsItem(seed, b*obsBlock+i)
		if err != nil {
			return nil, nil, fmt.Errorf("item %d: %w", b*obsBlock+i, err)
		}
		buildMs[i] = ms(time.Since(t0))
		items[i] = it
	}
	return items, buildMs, nil
}

// export writes the item's CPI stack and Perfetto trace to buf.
func export(buf *bytes.Buffer, col *hirata.Collector) error {
	buf.Reset()
	if err := col.CPIStack().WriteCPIJSON(buf); err != nil {
		return err
	}
	return col.WriteChromeTrace(buf)
}

// itemDigest hashes an item's simulated statistics and its CPI export.
func itemDigest(res hirata.MTResult, col *hirata.Collector) (string, error) {
	h := sha256.New()
	if err := json.NewEncoder(h).Encode(res); err != nil {
		return "", err
	}
	if err := col.CPIStack().WriteCPIJSON(h); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// obsPhase is one measured pass over the item stream.
type obsPhase struct {
	items    int
	itemMs   []float64
	exportB  []float64  // bytes exported per item
	buildMs  []float64  // input generation per item
	blocks   passTimes  // per full block
	nsPerIns []float64  // per full block: item time per simulated instruction
	first    []*obsItem // block 0, for the digest and the paper error
	interpNs float64    // interpreter time over the checked items
	steps    float64    // interpreter instructions over the checked items
}

// digest covers block 0.
func (p *obsPhase) digest() string {
	h := sha256.New()
	for _, it := range p.first {
		h.Write([]byte(it.digest))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// openLedger creates an empty file-backed run ledger at path.
func openLedger(path string) (*hirata.RunLedger, error) {
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	return hirata.OpenRunLedger(path)
}

// runObsPhase feeds the item stream, one item at a time and block by block,
// until the budget is spent; block 0 (already built) always runs whole.
// After each block's checks, the set-up repeats that are due run.
// Untraced (tr == nil), each item is one RunMTObserved call with the
// ledger attached to the facade, followed by the exports. Traced, the same
// steps run one layer at a time, each in a span: ledger Begin, the observed
// run, Finish with the exact CPI stack attached, Append, and the exports;
// then the item runs once more with plain RunMT, outside the item's span.
func runObsPhase(o *outcome, seed int64, block0 []*obsItem, budget time.Duration, led *hirata.RunLedger, tr *tracer, setup *setupSampler) (*obsPhase, error) {
	ph := &obsPhase{first: block0}
	var buf bytes.Buffer
	if tr == nil {
		hirata.SetRunLedger(led, "perfbench")
		defer hirata.SetRunLedger(nil, "")
	}
	start := time.Now()
	for b := 0; b == 0 || time.Since(start) < budget; b++ {
		items := block0
		if b > 0 {
			var buildMs []float64
			var err error
			if items, buildMs, err = buildBlock(seed, b); err != nil {
				return nil, err
			}
			ph.buildMs = append(ph.buildMs, buildMs...)
		}
		var block struct {
			wall  time.Duration
			b, n  uint64
			instr uint64
		}
		ran := 0
		for _, it := range items {
			if b > 0 && time.Since(start) >= budget {
				break
			}
			b0, n0 := heapCounters()
			t0 := time.Now()
			col := hirata.NewCollector(ray8Config, obsCollectorOptions)
			var err error
			if tr == nil {
				it.res, err = hirata.RunMTObserved(ray8Config, it.rt.Par.Text, it.mem, []hirata.Observer{col})
				if err == nil {
					err = export(&buf, col)
				}
			} else {
				end := tr.begin("item")
				it.res, err = tracedObsItem(tr, led, it, col, &buf)
				end()
			}
			d := time.Since(t0)
			b1, n1 := heapCounters()
			if err != nil {
				return nil, fmt.Errorf("item %d: %w", ph.items, err)
			}
			ph.items++
			ran++
			block.instr += it.res.Instructions
			block.wall += d
			block.b += b1 - b0
			block.n += n1 - n0
			ph.itemMs = append(ph.itemMs, ms(d))
			ph.exportB = append(ph.exportB, float64(buf.Len()))
			if it.digest, err = itemDigest(it.res, col); err != nil {
				return nil, err
			}
			if tr != nil {
				if err := tracedPlainRun(tr, it); err != nil {
					return nil, err
				}
			}
		}
		if ran == obsBlock {
			ph.blocks.wall = append(ph.blocks.wall, block.wall.Seconds())
			ph.blocks.allocB = append(ph.blocks.allocB, float64(block.b))
			ph.blocks.allocN = append(ph.blocks.allocN, float64(block.n))
			ph.nsPerIns = append(ph.nsPerIns, float64(block.wall)/float64(block.instr))
		}
		ns, steps := checkObsItems(o, b*obsBlock, items[:ran])
		ph.interpNs += ns
		ph.steps += steps
		if err := setup.between(); err != nil {
			return nil, err
		}
	}
	if err := hirata.RunLedgerError(); err != nil {
		return nil, fmt.Errorf("run ledger: %w", err)
	}
	return ph, nil
}

// tracedObsItem is RunMTObserved with a recording ledger, split into its
// layers.
func tracedObsItem(tr *tracer, led *hirata.RunLedger, it *obsItem, col *hirata.Collector, buf *bytes.Buffer) (hirata.MTResult, error) {
	end := tr.begin("runledger.begin")
	pend := runledger.Begin(ray8Config, it.rt.Par.Text, it.mem, nil)
	end()

	end = tr.begin("obs.observed_run")
	res, err := hirata.RunMTObserved(ray8Config, it.rt.Par.Text, it.mem, []hirata.Observer{col})
	end()
	if err != nil {
		return res, err
	}

	end = tr.begin("runledger.finish")
	rec := pend.Finish(res, "perfbench")
	hirata.AttachExactCPI(rec, col)
	end()

	end = tr.begin("runledger.append")
	_, _, err = led.Append(rec)
	end()
	if err != nil {
		return res, err
	}

	end = tr.begin("obs.export")
	err = export(buf, col)
	end()
	return res, err
}

// tracedPlainRun runs the item's scene again with plain RunMT, for the
// observer overhead ratio.
func tracedPlainRun(tr *tracer, it *obsItem) error {
	m, err := it.rt.NewMemory(it.rt.Par, ray8Config.ThreadSlots)
	if err != nil {
		return err
	}
	end := tr.begin("core.run")
	_, err = hirata.RunMT(ray8Config, it.rt.Par.Text, m)
	end()
	return err
}

// checkObsItems checks simulated items: per-ray results equal the
// functional interpreter's on the sequential program, and the static lower
// bound does not exceed the measured cycles. It returns the interpreter's
// host time and instruction count.
func checkObsItems(o *outcome, first int, items []*obsItem) (ns, steps float64) {
	for i, it := range items {
		o.attempted++
		t0 := time.Now()
		wantTs, wantHits, n, err := interpretRay(it.rt)
		ns += float64(time.Since(t0))
		steps += float64(n)
		if err != nil {
			o.fail("item %d: interpreter: %v", first+i, err)
			continue
		}
		ts, hits := it.rt.Results(it.rt.Par, it.mem)
		if msg := compareRays(ts, hits, wantTs, wantHits); msg != "" {
			o.fail("item %d: %s", first+i, msg)
			continue
		}
		if b := hirata.StaticBounds(ray8Config, it.rt.Par.Text); !b.Unbounded && uint64(b.Bound) > it.res.Cycles {
			o.fail("item %d: static bound %d exceeds measured %d cycles", first+i, b.Bound, it.res.Cycles)
		}
	}
	return ns, steps
}

// obsPaperError is the mean absolute error, in percent, of block 0's
// speed-up over the baseline RISC machine against the paper's Table 2 cell
// for this machine (8 slots, one load/store unit, standby stations).
func obsPaperError(items []*obsItem) (float64, error) {
	want := hirata.PaperTable2(ray8Config.ThreadSlots, ray8Config.LoadStoreUnits, ray8Config.StandbyStations)
	var sum float64
	for _, it := range items {
		m, err := it.rt.NewMemory(it.rt.Seq, 1)
		if err != nil {
			return 0, err
		}
		base, err := hirata.RunRISC(hirata.RISCConfig{LoadStoreUnits: ray8Config.LoadStoreUnits}, it.rt.Seq.Text, m)
		if err != nil {
			return 0, err
		}
		sum += math.Abs(float64(base.Cycles)/float64(it.res.Cycles)-want) / want * 100
	}
	return sum / float64(len(items)), nil
}

func runObservedRecord(opt options) (*outcome, error) {
	o := newOutcome()
	budget := opt.seconds
	if opt.trace {
		budget /= 2
	}
	ledgerPath := filepath.Join(opt.out, fmt.Sprintf("observed-seed%d.ledger", opt.seed))
	defer os.Remove(ledgerPath)

	// Set-up: open the ledger and generate block 0 (scene, assembly and
	// memory image of each item). Repeats spread over the timed phase open
	// a ledger of their own and drop what they build; their median is
	// setup_s. Later blocks are generated between blocks, outside the item
	// timings.
	var block0 []*obsItem
	var buildMs []float64
	var led *hirata.RunLedger
	probePath := ledgerPath + ".setup"
	defer os.Remove(probePath)
	setup, err := sampleSetup(budget,
		func() (e error) {
			if led, e = openLedger(ledgerPath); e != nil {
				return e
			}
			block0, buildMs, e = buildBlock(opt.seed, 0)
			return e
		},
		func() error {
			if _, err := openLedger(probePath); err != nil {
				return err
			}
			_, _, err := buildBlock(opt.seed, 0)
			return err
		})
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}

	ph, err := runObsPhase(o, opt.seed, block0, budget, led, nil, setup)
	if err != nil {
		return nil, err
	}
	o.e2e["setup_s"] = setup.median()
	items := blockTail(ph.itemMs, obsBlock)
	o.tail = items
	o.digest = ph.digest()
	o.digestOf = fmt.Sprintf("items 0..%d: result and CPI stack of each", obsBlock-1)
	o.e2e["wall_s"] = median(ph.blocks.wall)
	o.e2e["ns_per_instr"] = median(ph.nsPerIns)
	o.e2e["item_ms_p50"] = median(ph.itemMs)
	o.e2e["item_ms_tail"] = items.Value
	o.e2e["alloc_mb"] = median(ph.blocks.allocB) / (1 << 20)
	o.e2e["allocs"] = median(ph.blocks.allocN)
	o.info["items"] = ph.items
	o.info["unit_s"] = ph.blocks.wall
	if st := led.Stats(); st.DedupHits != 0 || st.Records != ph.items {
		o.fail("ledger holds %d records for %d items (%d dedup hits): items share a run key", st.Records, ph.items, st.DedupHits)
	}
	if o.e2e["paper_err_pct"], err = obsPaperError(ph.first); err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}

	if opt.trace {
		// The traced phase replays the stream from item 0, recording into a
		// fresh ledger.
		tblock0, _, err := buildBlock(opt.seed, 0)
		if err != nil {
			return nil, err
		}
		tled, err := openLedger(ledgerPath)
		if err != nil {
			return nil, err
		}
		tr := newTracer()
		tph, err := runObsPhase(o, opt.seed, tblock0, budget, tled, tr, nil)
		if err != nil {
			return nil, fmt.Errorf("traced: %w", err)
		}
		if d := tph.digest(); d != o.digest {
			o.fail("traced digest %s differs from the untraced %s", d, o.digest)
		}
		if err := tr.write(spanFile(opt, "observed-record")); err != nil {
			return nil, err
		}
		sum := tr.summarize()
		p50 := func(name string) float64 {
			if ls := sum[name]; ls != nil {
				return median(ls.Durs)
			}
			return 0
		}
		o.layer["core.run_ms_p50"] = p50("core.run")
		o.layer["obs.observed_run_ms_p50"] = p50("obs.observed_run")
		o.layer["obs.overhead_ratio"] = p50("obs.observed_run") / p50("core.run")
		o.layer["obs.export_ms"] = p50("obs.export")
		o.layer["obs.export_kb"] = median(tph.exportB) / 1024
		o.layer["runledger.begin_ms"] = p50("runledger.begin")
		o.layer["runledger.finish_ms"] = p50("runledger.finish")
		o.layer["runledger.append_ms"] = p50("runledger.append")
		var recBytes []float64
		for _, e := range tled.Entries() {
			recBytes = append(recBytes, float64(e.Bytes))
		}
		o.layer["runledger.record_kb"] = median(recBytes) / 1024
		st := tled.Stats()
		o.layer["runledger.dedup_hits"] = float64(st.DedupHits)
		o.layer["core.mt_runs"] = float64(st.Appends)
		o.layer["core.dup_runs"] = float64(st.DedupHits)
		o.layer["core.unique_run_ratio"] = float64(st.Records) / float64(st.Appends)
		var instr, cycles float64
		for _, it := range tph.first {
			instr += float64(it.res.Instructions)
			cycles += float64(it.res.Cycles)
		}
		o.layer["core.sim_instr"] = instr
		o.layer["core.sim_cycles"] = cycles
		o.layer["exec.interpret_ns_per_instr"] = (ph.interpNs + tph.interpNs) / (ph.steps + tph.steps)
		o.layer["workload.build_ms"] = median(append(buildMs, ph.buildMs...))
		o.layer["trace.overhead_s"] = (p50("item") - median(ph.itemMs)) / 1000
	}
	return o, nil
}
