package runledger

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// HistoryRow is one line of BENCH_history.jsonl, which tools/benchdiff
// writes and reads through this type: a bench run pinned to a time,
// revision and host, carrying best-of-N ns/op and sim-cycles/s per
// benchmark plus, optionally, the cycle-loop phase profile embedded by
// `benchdiff -history -phases`.
type HistoryRow struct {
	Time            string             `json:"time"`
	Revision        string             `json:"revision"`
	Dirty           bool               `json:"dirty,omitempty"`
	GoVersion       string             `json:"go"`
	OS              string             `json:"os"`
	Arch            string             `json:"arch"`
	CPUs            int                `json:"cpus"`
	Benchmarks      map[string]float64 `json:"benchmarks"`
	SimCyclesPerSec map[string]float64 `json:"sim_cycles_per_s,omitempty"`
	PhaseProfile    json.RawMessage    `json:"phase_profile,omitempty"`
}

// HostClass is the comparability key of a history row: rows measured by
// different toolchains or on different hardware classes are never compared.
// Revisions are deliberately not part of it — comparing the newest revision
// against an earlier one on the same host is the point of both gates.
func (r HistoryRow) HostClass() string {
	return fmt.Sprintf("%s/%s/%s/cpus=%d", r.GoVersion, r.OS, r.Arch, r.CPUs)
}

// ReadHistory parses a BENCH_history.jsonl file, skipping blank lines.
func ReadHistory(path string) ([]HistoryRow, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var rows []HistoryRow
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var row HistoryRow
		if err := json.Unmarshal([]byte(text), &row); err != nil {
			return nil, fmt.Errorf("runledger: %s:%d: %w", path, line, err)
		}
		rows = append(rows, row)
	}
	return rows, sc.Err()
}

// PhaseDelta is one cycle-loop phase whose share of host time moved between
// the windowed baseline and the flagged row.
type PhaseDelta struct {
	Name string  `json:"name"`
	From float64 `json:"from"` // fraction of host time, baseline row
	To   float64 `json:"to"`   // fraction of host time, flagged row
}

// HistoryShift is one statistically significant throughput shift in a
// bench history.
type HistoryShift struct {
	Name      string       `json:"name"` // benchmark name
	HostClass string       `json:"host_class"`
	Time      string       `json:"time"`
	Revision  string       `json:"revision"`
	Value     float64      `json:"value"` // sim-cycles/s of the flagged row
	Mean      float64      `json:"mean"`  // trailing-window mean
	Sigma     float64      `json:"sigma"` // trailing-window stddev
	RelDelta  float64      `json:"rel_delta"`
	Window    int          `json:"window"` // rows actually in the window
	Phases    []PhaseDelta `json:"phases,omitempty"`
}

// HistoryOptions tunes RegressHistory. The zero value means: window of 5,
// 2σ significance, 5% minimum relative excursion.
type HistoryOptions struct {
	Window int     // trailing rows per comparison (default 5)
	Sigma  float64 // flag beyond Sigma standard deviations (default 2)
	MinRel float64 // and beyond this relative excursion (default 0.05)
}

func (o HistoryOptions) withDefaults() HistoryOptions {
	if o.Window <= 0 {
		o.Window = 5
	}
	if o.Sigma <= 0 {
		o.Sigma = 2
	}
	if o.MinRel <= 0 {
		o.MinRel = 0.05
	}
	return o
}

// RegressHistory flags statistically significant sim-cycles/s shifts: for
// each benchmark within each host class, every row is tested against the
// mean and standard deviation of up to Window preceding rows, and flagged
// when its excursion exceeds both Sigma standard deviations and MinRel of
// the mean. Both directions are reported (a silent speedup usually means
// the workload changed, which is worth knowing too). When the flagged row
// and its window carry cycle-loop phase profiles, the phases whose share of
// host time moved most are attached as attribution.
func RegressHistory(rows []HistoryRow, opt HistoryOptions) []HistoryShift {
	opt = opt.withDefaults()
	byClass := map[string][]int{}
	var classes []string
	for i, r := range rows {
		c := r.HostClass()
		if _, ok := byClass[c]; !ok {
			classes = append(classes, c)
		}
		byClass[c] = append(byClass[c], i)
	}

	var shifts []HistoryShift
	for _, class := range classes {
		idx := byClass[class]
		names := map[string]bool{}
		for _, i := range idx {
			for n := range rows[i].SimCyclesPerSec {
				names[n] = true
			}
		}
		sorted := make([]string, 0, len(names))
		for n := range names {
			sorted = append(sorted, n)
		}
		sort.Strings(sorted)
		for _, name := range sorted {
			type point struct {
				row   int
				value float64
			}
			var series []point
			for _, i := range idx {
				if v, ok := rows[i].SimCyclesPerSec[name]; ok && v > 0 {
					series = append(series, point{i, v})
				}
			}
			for i := 1; i < len(series); i++ {
				lo := i - opt.Window
				if lo < 0 {
					lo = 0
				}
				window := series[lo:i]
				var sum float64
				for _, p := range window {
					sum += p.value
				}
				mean := sum / float64(len(window))
				var varsum float64
				for _, p := range window {
					varsum += (p.value - mean) * (p.value - mean)
				}
				sigma := math.Sqrt(varsum / float64(len(window)))
				v := series[i].value
				rel := v/mean - 1
				// A one-row window has σ=0; the MinRel threshold alone decides.
				if abs(rel) <= opt.MinRel || (sigma > 0 && abs(v-mean) <= opt.Sigma*sigma) {
					continue
				}
				row := rows[series[i].row]
				shifts = append(shifts, HistoryShift{
					Name:      name,
					HostClass: class,
					Time:      row.Time,
					Revision:  row.Revision,
					Value:     v,
					Mean:      mean,
					Sigma:     sigma,
					RelDelta:  rel,
					Window:    len(window),
					Phases:    phaseAttribution(rows[window[len(window)-1].row], row),
				})
			}
		}
	}
	return shifts
}

// phaseAttribution compares the cycle-loop phase profiles of two history
// rows and returns the phases whose share of host time moved by more than
// two percentage points, largest movement first.
func phaseAttribution(from, to HistoryRow) []PhaseDelta {
	fp, tp := parsePhases(from.PhaseProfile), parsePhases(to.PhaseProfile)
	if fp == nil || tp == nil {
		return nil
	}
	names := map[string]bool{}
	var order []string
	add := func(m map[string]float64) {
		ks := make([]string, 0, len(m))
		for k := range m {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		for _, k := range ks {
			if !names[k] {
				names[k] = true
				order = append(order, k)
			}
		}
	}
	add(fp)
	add(tp)
	var out []PhaseDelta
	for _, n := range order {
		if abs(tp[n]-fp[n]) > 0.02 {
			out = append(out, PhaseDelta{Name: n, From: fp[n], To: tp[n]})
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		return abs(out[i].To-out[i].From) > abs(out[j].To-out[j].From)
	})
	return out
}

// parsePhases extracts name → fraction-of-host-time from an embedded
// hostobs phase profile.
func parsePhases(raw json.RawMessage) map[string]float64 {
	if len(raw) == 0 {
		return nil
	}
	var doc struct {
		Phases []struct {
			Name     string  `json:"name"`
			Fraction float64 `json:"fraction"`
		} `json:"phases"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil || len(doc.Phases) == 0 {
		return nil
	}
	m := make(map[string]float64, len(doc.Phases))
	for _, p := range doc.Phases {
		m[p.Name] = p.Fraction
	}
	return m
}

// WriteHistoryShifts renders history regression shifts for a terminal.
func WriteHistoryShifts(w io.Writer, shifts []HistoryShift) {
	for _, s := range shifts {
		direction := "drop"
		if s.RelDelta > 0 {
			direction = "rise"
		}
		fmt.Fprintf(w, "%s @ %s (%s): %.0f sim-cycles/s vs window mean %.0f (%+.1f%%, %d-row window, sigma %.0f) — %s\n",
			s.Name, s.Revision, s.Time, s.Value, s.Mean, s.RelDelta*100, s.Window, s.Sigma, direction)
		for _, p := range s.Phases {
			fmt.Fprintf(w, "    phase %-18s %.1f%% -> %.1f%% of host time\n", p.Name, p.From*100, p.To*100)
		}
	}
}
