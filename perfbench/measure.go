package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile of xs (0 < p <= 100).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), p)-1]
}

// rank is the 1-based nearest-rank index of the p-th percentile of n items.
func rank(n int, p float64) int {
	// p*n/100 is exact for the ladder's percentiles at any realistic n; the
	// epsilon keeps a rounding error from pushing the rank up by one.
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailLadder lists the percentiles the tail rule chooses from, highest
// first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// tailStat is a tail latency with the percentile it was taken at and the
// number of samples beyond it, per block of samples.
type tailStat struct {
	Percentile float64 `json:"percentile"` // 100 means the maximum
	Value      float64 `json:"value"`
	Samples    int     `json:"samples"` // per block
	Beyond     int     `json:"beyond"`  // per block
	Blocks     int     `json:"blocks"`
}

// tail applies the tail rule: the highest percentile of the ladder with at
// least ten samples beyond it. With too few samples for any of them, the
// tail is the maximum, reported as percentile 100 with nothing beyond.
func tail(xs []float64) tailStat {
	n := len(xs)
	for _, p := range tailLadder {
		if r := rank(n, p); n-r >= 10 {
			return tailStat{Percentile: p, Value: percentile(xs, p), Samples: n, Beyond: n - r, Blocks: 1}
		}
	}
	return tailStat{Percentile: 100, Value: percentile(xs, 100), Samples: n, Blocks: 1}
}

// blockTail applies the tail rule to each full block of size consecutive
// samples and reports the median over the blocks. A host stall then moves
// the tail of one block, not the run's; samples past the last full block
// are left out. With no full block it is the tail of all samples.
func blockTail(xs []float64, size int) tailStat {
	if len(xs) < size {
		return tail(xs)
	}
	var t tailStat
	var vals []float64
	for i := 0; i+size <= len(xs); i += size {
		t = tail(xs[i : i+size])
		vals = append(vals, t.Value)
	}
	t.Value, t.Blocks = median(vals), len(vals)
	return t
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// heapCounters reads the cumulative heap allocation counters.
func heapCounters() (bytes, objects uint64) {
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return st.TotalAlloc, st.Mallocs
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// timeMedian runs f n times and returns the median wall time in seconds.
func timeMedian(n int, f func() error) (float64, error) {
	var ts []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ts = append(ts, time.Since(t0).Seconds())
	}
	return median(ts), nil
}

// setupSampler times a workload's set-up. It runs a few repeats before the
// timed phase, then, between units of work and outside their timings, one
// more repeat for each spacing of the run that has passed. The host runs in
// a fast and a slow state for seconds at a time, so repeats spread over the
// run sample both, and their median is steadier than that of repeats taken
// back to back. A nil *setupSampler samples nothing.
type setupSampler struct {
	run     func() error
	every   time.Duration
	last    time.Time
	samples []float64
}

// setupRepeats is the number of repeats taken up front, and setupSpread the
// number spread over the timed phase.
const (
	setupRepeats = 3
	setupSpread  = 24
)

// sampleSetup runs first up front, setupRepeats times, and keeps next for
// the repeats spread over a timed phase of length budget. first leaves the
// workload's inputs in place; next must not disturb a running phase.
func sampleSetup(budget time.Duration, first, next func() error) (*setupSampler, error) {
	s := &setupSampler{run: first, every: budget / setupSpread}
	for i := 0; i < setupRepeats; i++ {
		if err := s.once(); err != nil {
			return nil, err
		}
	}
	s.run = next
	return s, nil
}

func (s *setupSampler) once() error {
	t0 := time.Now()
	if err := s.run(); err != nil {
		return err
	}
	s.last = time.Now()
	s.samples = append(s.samples, s.last.Sub(t0).Seconds())
	return nil
}

// between runs the repeats that have come due since the last one.
func (s *setupSampler) between() error {
	if s == nil {
		return nil
	}
	for n := time.Since(s.last) / s.every; n > 0; n-- {
		if err := s.once(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
	}
	return nil
}

// median is setup_s: the median over every repeat.
func (s *setupSampler) median() float64 { return median(s.samples) }

// span is one traced interval: a layer call made from the benchmark, or a
// sweep cell reported through the simulator's sweep telemetry.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; a nil *tracer records nothing, so the
// untraced path pays one nil check per layer call.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	open  []int // stack of open span IDs (the benchmark is one client)
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span as a child of the innermost open span and returns a
// function that closes it.
func (t *tracer) begin(name string) func() {
	if t == nil {
		return func() {}
	}
	t.mu.Lock()
	id := len(t.spans) + 1
	parent := 0
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: int64(time.Since(t.t0))})
	t.open = append(t.open, id)
	t.mu.Unlock()
	return func() {
		t.mu.Lock()
		t.spans[id-1].End = int64(time.Since(t.t0))
		t.open = t.open[:len(t.open)-1]
		t.mu.Unlock()
	}
}

// CellDone implements the sweep telemetry interface: every sweep cell
// becomes a closed span under the innermost open span.
func (t *tracer) CellDone(worker, cell, pending int, start, end time.Time, err error) {
	t.mu.Lock()
	parent := 0
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: "sweep.cell",
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)),
	})
	t.mu.Unlock()
}

// layerStats aggregates the spans of one name.
type layerStats struct {
	Count int
	Total time.Duration // summed duration
	Self  time.Duration // summed self time
	Durs  []float64     // per-span duration, ms
}

// summarize computes, per span name, the count, total duration and self
// time. A span's self time is its duration minus the part of it that its
// children cover; children never overlap here, because one client makes
// one call at a time and sweeps run with one worker.
func (t *tracer) summarize() map[string]*layerStats {
	child := make(map[int]time.Duration)
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.dur()
		}
	}
	out := make(map[string]*layerStats)
	for _, s := range t.spans {
		ls := out[s.Name]
		if ls == nil {
			ls = &layerStats{}
			out[s.Name] = ls
		}
		self := s.dur() - child[s.ID]
		ls.Count++
		ls.Total += s.dur()
		ls.Self += self
		ls.Durs = append(ls.Durs, ms(s.dur()))
	}
	return out
}

// write dumps the spans as JSON to path.
func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
