package hostobs

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// The dirty-set opportunity report. The cycle loop's per-cycle structure
// work is event-driven (internal/core's dirty-set core): each phase visits
// only the entries its dirty set admits. The touch census measures, per
// workload, how selective those sets are — a *visit* is a loop body run
// past the O(1) filter, a *hit* is a visit that performed or recorded work
// — and 1 − hits/visits is the waste the dirty sets still admit.

// StructureRow is the visit-vs-hit census of one per-cycle structure.
// Scans/Touches keep their historical JSON names (they now carry visit and
// hit counts); HitRate is Touches/Scans, the dirty-set hit rate.
type StructureRow struct {
	Name       string  `json:"name"`
	Scans      uint64  `json:"scans"`   // visits: loop bodies run past the dirty filter
	Touches    uint64  `json:"touches"` // hits: visits that performed or recorded work
	WastedFrac float64 `json:"wasted_fraction"`
	HitRate    float64 `json:"hit_rate"`
}

// OpportunityReport aggregates the census over all sampled steps.
type OpportunityReport struct {
	SampledSteps uint64         `json:"sampled_steps"`
	Rows         []StructureRow `json:"structures"`
	TotalScans   uint64         `json:"total_scans"`
	TotalTouches uint64         `json:"total_touches"`
	// WastedFrac is the headline: the fraction of structure visits that did
	// no work, i.e. the waste the dirty sets still admit.
	WastedFrac float64 `json:"wasted_fraction"`
	// HitRate = 1 − WastedFrac, the dirty-set hit rate.
	HitRate float64 `json:"hit_rate"`
	// ScansPerStep contextualizes against loop cost.
	ScansPerStep float64 `json:"scans_per_sampled_step"`
}

// row builds one StructureRow, clamping hits to visits (hit events can
// outnumber visits for event-indexed structures; the waste metric is about
// visits that found nothing).
func row(name string, visits, hits uint64) StructureRow {
	r := StructureRow{Name: name, Scans: visits, Touches: hits}
	if hits > visits {
		r.Touches = visits
	}
	if visits > 0 {
		r.HitRate = float64(r.Touches) / float64(visits)
		r.WastedFrac = 1 - r.HitRate
	}
	return r
}

// Opportunity computes the dirty-set opportunity report from the touch
// aggregate.
func (p *Profiler) Opportunity() OpportunityReport {
	t, steps := p.Totals()
	rep := OpportunityReport{SampledSteps: steps}
	rep.Rows = []StructureRow{
		row("thread slots", t.SlotVisits, t.SlotHits),
		row("functional units", t.UnitVisits, t.UnitHits),
		row("queue registers", t.QueueVisits, t.QueueHits),
		row("context frames", t.FrameVisits, t.FrameHits),
		row("fetch units", t.FetchVisits, t.FetchHits),
	}
	for _, r := range rep.Rows {
		rep.TotalScans += r.Scans
		rep.TotalTouches += r.Touches
	}
	if rep.TotalScans > 0 {
		rep.HitRate = float64(rep.TotalTouches) / float64(rep.TotalScans)
		rep.WastedFrac = 1 - rep.HitRate
	}
	if steps > 0 {
		rep.ScansPerStep = float64(rep.TotalScans) / float64(steps)
	}
	return rep
}

// Format renders the report as a table with the headline fractions.
func (r OpportunityReport) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "dirty-set census (%d sampled steps)\n", r.SampledSteps)
	fmt.Fprintf(&b, "  %-18s %12s %12s %8s %8s\n", "structure", "visits", "hits", "hit", "wasted")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-18s %12d %12d %7.1f%% %7.1f%%\n",
			row.Name, row.Scans, row.Touches, 100*row.HitRate, 100*row.WastedFrac)
	}
	fmt.Fprintf(&b, "  %-18s %12d %12d %7.1f%% %7.1f%%\n",
		"TOTAL", r.TotalScans, r.TotalTouches, 100*r.HitRate, 100*r.WastedFrac)
	fmt.Fprintf(&b, "  %.1f structure visits per executed cycle; %.1f%% of them did work\n"+
		"  (the wasted column is what the dirty sets still admit).\n",
		r.ScansPerStep, 100*r.HitRate)
	return b.String()
}

// writeJSON marshals v indented to w.
func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
