package obs

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"testing"

	"hirata/internal/core"
	"hirata/internal/workload"
)

// ray8Config is Table 2's 8-slot, one-load/store-unit machine with standby
// stations: many slot lanes and every functional-unit track.
var ray8Config = core.Config{ThreadSlots: 8, LoadStoreUnits: 1, StandbyStations: true}

// ray8Scene builds the 48-ray, 6-sphere scene (seed 1) and its memory image.
func ray8Scene(tb testing.TB) (*workload.RayTrace, func() *core.Processor) {
	tb.Helper()
	rt, err := workload.BuildRayTrace(workload.RayTraceConfig{Rays: 48, Spheres: 6, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	newProc := func() *core.Processor {
		m, err := rt.NewMemory(rt.Par, ray8Config.ThreadSlots)
		if err != nil {
			tb.Fatal(err)
		}
		p, err := core.New(ray8Config, rt.Par.Text, m)
		if err != nil {
			tb.Fatal(err)
		}
		return p
	}
	return rt, newProc
}

// runRay8 runs the ray scene with a fresh collector attached and finalized.
func runRay8(tb testing.TB, opt Options) *Collector {
	tb.Helper()
	_, newProc := ray8Scene(tb)
	p := newProc()
	c := NewCollector(ray8Config, opt)
	p.Observe(c)
	res, err := p.Run()
	if err != nil {
		tb.Fatal(err)
	}
	c.Finalize(res)
	return c
}

// exportRay8 writes the CPI stack and the Perfetto trace, as hirata-bench
// records them, to one buffer.
func exportRay8(tb testing.TB, c *Collector) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := c.CPIStack().WriteCPIJSON(&buf); err != nil {
		tb.Fatal(err)
	}
	if err := c.WriteChromeTrace(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// ray8ExportSHA256 pins the exported bytes of the 8-slot ray scene. The fib
// golden covers two slots; this one covers many lanes and all unit tracks.
// A deliberate timing or format change updates it in the same change.
const ray8ExportSHA256 = "8fee6baf575b36ef9f0a037f36f1b606823eb4fd20fdc364c815725b88d699fe"

func TestRay8ExportPinned(t *testing.T) {
	out := exportRay8(t, runRay8(t, Options{MetricsInterval: 256}))
	sum := sha256.Sum256(out)
	if got := hex.EncodeToString(sum[:]); got != ray8ExportSHA256 {
		t.Errorf("8-slot ray export (%d bytes) hashes to %s, want %s", len(out), got, ray8ExportSHA256)
	}
}

// TestPagedRing checks the paged ring against an unbounded collector at
// capacities below, at and across the page size: Events is the newest N
// events in order, Dropped is exact, and the export marks the dropped
// prefix.
func TestPagedRing(t *testing.T) {
	all := runRay8(t, Options{MetricsInterval: 256}).Events()
	for _, capacity := range []int{32, ringPageEvents, ringPageEvents + 1, 5000} {
		if len(all) <= capacity {
			t.Fatalf("scene records %d events, too few to overflow a %d-event ring", len(all), capacity)
		}
		c := runRay8(t, Options{MetricsInterval: 256, RingCapacity: capacity})
		got := c.Events()
		want := all[len(all)-capacity:]
		if len(got) != len(want) {
			t.Fatalf("capacity %d: ring holds %d events, want %d", capacity, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("capacity %d: event %d = %+v, want %+v", capacity, i, got[i], want[i])
			}
		}
		if d, want := c.Dropped(), uint64(len(all)-capacity); d != want {
			t.Errorf("capacity %d: Dropped() = %d, want %d", capacity, d, want)
		}
		var buf bytes.Buffer
		if err := c.WriteChromeTrace(&buf); err != nil {
			t.Fatal(err)
		}
		mark := fmt.Sprintf(`"name":"ring dropped %d events"`, len(all)-capacity)
		if !bytes.Contains(buf.Bytes(), []byte(mark)) {
			t.Errorf("capacity %d: export does not mark the dropped prefix with %s", capacity, mark)
		}
	}
}

// TestWriteChromeTraceAllocs bounds the export's allocations: under one per
// 100 ring events, so the cost stays in encoding, not in the heap.
func TestWriteChromeTraceAllocs(t *testing.T) {
	c := runRay8(t, Options{MetricsInterval: 256})
	n := len(c.Events())
	allocs := testing.AllocsPerRun(3, func() {
		if err := c.WriteChromeTrace(io.Discard); err != nil {
			t.Fatal(err)
		}
	})
	if allocs*100 >= float64(n) {
		t.Errorf("WriteChromeTrace made %.0f allocations for %d events, want under %d", allocs, n, n/100)
	}
}

// BenchmarkObservedRun is the collector-attached run of the 8-slot ray
// scene, the simulation half of an observed record.
func BenchmarkObservedRun(b *testing.B) {
	_, newProc := ray8Scene(b)
	var instrs uint64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p := newProc()
		b.StartTimer()
		c := NewCollector(ray8Config, Options{MetricsInterval: 256})
		p.Observe(c)
		res, err := p.Run()
		if err != nil {
			b.Fatal(err)
		}
		c.Finalize(res)
		instrs += res.Instructions
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instrs), "ns/instr")
}

// BenchmarkWriteChromeTrace is the Perfetto export of that run.
func BenchmarkWriteChromeTrace(b *testing.B) {
	c := runRay8(b, Options{MetricsInterval: 256})
	n := len(c.Events())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.WriteChromeTrace(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/event")
}
