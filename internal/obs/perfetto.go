package obs

import (
	"fmt"
	"io"
	"strconv"

	"hirata/internal/isa"
)

// Chrome Trace Event export. The format is the JSON "trace event" schema
// consumed by ui.perfetto.dev and chrome://tracing: an object with a
// traceEvents array whose members carry ph (phase), ts (microseconds),
// pid, tid and phase-specific fields. One simulated cycle maps to one
// microsecond of trace time.
//
// Track layout:
//
//	pid 1          "machine"           — rotate instants + IPC / slots-bound
//	                                     counters from the interval sampler
//	pid 2          "functional units"  — tid = unit ordinal; complete ("X")
//	                                     slices span the issue-latency
//	                                     occupancy of each selection
//	pid 100+slot   "slot N"            — instruction lifetime slices from
//	                                     issue to result-ready, lane-packed
//	                                     across tids so overlapping
//	                                     lifetimes never cross on a track;
//	                                     redirect/trap/bind/end instants
//
// Within one slot, instruction lifetimes overlap (that is the point of
// standby stations), and crossing "X" slices on a single track render
// badly; assignLanes packs them into the minimal set of non-overlapping
// lanes instead.
const (
	machinePID    = 1
	unitsPID      = 2
	slotPIDBase   = 100
	machineTID    = 0
	instrumentCat = "pipeline"
)

// slotSpan is one instruction lifetime on a slot track.
type slotSpan struct {
	start, end uint64
	name       string
	pc         int64
	unit       string // empty until selected
	slotID     int
	lane       int
	next       int // the span queued after this one in buildSlotSpans, plus one
}

// WriteChromeTrace exports the collector's ring buffer as Chrome Trace
// Event JSON, viewable directly in ui.perfetto.dev. Dropped ring events
// truncate the timeline's beginning, never its structure.
func (c *Collector) WriteChromeTrace(w io.Writer) error {
	c.mu.Lock()
	events := c.eventsLocked()
	samples := make([]Sample, len(c.samples))
	copy(samples, c.samples)
	units := c.units
	slots := c.slots
	dropped := c.dropped
	c.mu.Unlock()

	enc := newTraceEncoder(w)

	// Track-naming metadata.
	enc.meta("process_name", machinePID, machineTID, "machine")
	enc.meta("thread_name", machinePID, machineTID, "scheduler")
	enc.meta("process_name", unitsPID, 0, "functional units")
	for ord, u := range units {
		enc.meta("thread_name", unitsPID, ord, u.Name)
	}
	names := newTraceNames(c)
	spans := buildSlotSpans(events, names)
	lanes := assignLanes(spans, slots)
	for s := 0; s < slots; s++ {
		enc.meta("process_name", slotPIDBase+s, 0, fmt.Sprintf("slot %d", s))
		n := lanes[s]
		if n == 0 {
			n = 1
		}
		for l := 0; l < n; l++ {
			enc.meta("thread_name", slotPIDBase+s, l, fmt.Sprintf("slot %d issue lane %d", s, l))
		}
	}
	if dropped > 0 {
		enc.event(&traceEvent{Name: fmt.Sprintf("ring dropped %d events", dropped), Ph: "i",
			TS: 0, Pid: machinePID, Tid: machineTID, S: "g"})
	}

	// One event value and args array serve every event below.
	var ev traceEvent
	var args [3]Arg

	// Functional-unit occupancy slices (select → select + issue latency).
	for i := range events {
		e := &events[i]
		if e.Kind != KindSelect {
			continue
		}
		ord := c.ordinal(e.Unit, int(e.UnitIndex))
		if ord < 0 {
			continue
		}
		dur := uint64(e.Ins.Op.IssueLatency())
		if dur == 0 {
			dur = 1
		}
		ev = traceEvent{Name: names.instruction(e.Ins), Cat: instrumentCat, Ph: "X",
			TS: e.Cycle, Dur: dur, Pid: unitsPID, Tid: ord,
			Args: append(args[:0], Int64("pc", e.PC), Uint64("ready_at", e.ReadyAt), Int64("slot", int64(e.Slot)))}
		enc.event(&ev)
	}

	// Slot instruction-lifetime slices.
	for i := range spans {
		sp := &spans[i]
		dur := sp.end - sp.start
		if dur == 0 {
			dur = 1
		}
		ev = traceEvent{Name: sp.name, Cat: instrumentCat, Ph: "X",
			TS: sp.start, Dur: dur, Pid: slotPIDBase + sp.slotID, Tid: sp.lane,
			Args: append(args[:0], Int64("pc", sp.pc))}
		if sp.unit != "" {
			ev.Args = append(ev.Args, String("unit", sp.unit))
		}
		enc.event(&ev)
	}

	// Instant events: redirects, traps, binds, thread ends, rotations.
	for i := range events {
		if names.instantEvent(&ev, &events[i]) {
			enc.event(&ev)
		}
	}

	// Counters from the interval sampler.
	for _, s := range samples {
		ev = traceEvent{Name: "IPC", Ph: "C", TS: s.StartCycle, Pid: machinePID, Tid: machineTID,
			Args: append(args[:0], Float64("ipc", s.IPC))}
		enc.event(&ev)
		ev = traceEvent{Name: "slots bound", Ph: "C", TS: s.StartCycle, Pid: machinePID, Tid: machineTID,
			Args: append(args[:0], Int64("bound", int64(s.SlotsBound)))}
		enc.event(&ev)
	}

	return enc.close()
}

// traceNames memoizes, within one export, the strings the export repeats:
// each distinct instruction's disassembly, unit names, and each distinct
// instant label.
type traceNames struct {
	c       *Collector
	ins     map[isa.Instruction]string
	instant map[Event]string // keyed by the event with Cycle and Slot cleared
}

func newTraceNames(c *Collector) *traceNames {
	return &traceNames{c: c, ins: map[isa.Instruction]string{}, instant: map[Event]string{}}
}

func (n *traceNames) instruction(ins isa.Instruction) string {
	s, ok := n.ins[ins]
	if !ok {
		s = ins.String()
		n.ins[ins] = s
	}
	return s
}

func (n *traceNames) unit(cls isa.UnitClass, idx int) string {
	if ord := n.c.ordinal(cls, idx); ord >= 0 {
		return n.c.units[ord].Name
	}
	return unitName(cls, idx)
}

// instantEvent sets ev to e's instant event and reports whether e has one:
// rotations go on the machine track, the other kinds on lane 0 of their
// slot.
func (n *traceNames) instantEvent(ev *traceEvent, e *Event) bool {
	scope := "t"
	switch e.Kind {
	case KindRedirect, KindBind, KindThreadEnd, KindStall:
	case KindTrap, KindRotate:
		scope = "p"
	default:
		return false
	}
	key := *e
	key.Cycle, key.Slot = 0, 0
	name, ok := n.instant[key]
	if !ok {
		name = instantName(e)
		n.instant[key] = name
	}
	*ev = traceEvent{Name: name, Ph: "i", TS: e.Cycle, Pid: slotPIDBase + int(e.Slot), Tid: 0, S: scope}
	if e.Kind == KindRotate {
		ev.Pid, ev.Tid = machinePID, machineTID
	}
	return true
}

// instantName labels an instant event.
func instantName(e *Event) string {
	switch e.Kind {
	case KindRedirect:
		return "redirect→" + strconv.FormatInt(e.PC, 10)
	case KindTrap:
		return "trap frame=" + strconv.Itoa(int(e.Frame)) + " addr=" + strconv.FormatInt(e.Aux, 10)
	case KindBind:
		return "bind frame=" + strconv.Itoa(int(e.Frame)) + " tid=" + strconv.FormatInt(e.Aux, 10)
	case KindThreadEnd:
		how := "halt"
		if e.Killed {
			how = "killed"
		}
		return "end frame=" + strconv.Itoa(int(e.Frame)) + " (" + how + ")"
	case KindRotate:
		return "rotate head=slot" + strconv.FormatInt(e.Aux, 10)
	default:
		return "stall " + e.Reason.String()
	}
}

// buildSlotSpans correlates Issue events with the Select that commits them
// and returns one lifetime span per issued instruction. Decode-executed
// instructions (branches, thread control) never select; their span covers
// the single decode cycle.
func buildSlotSpans(events []Event, names *traceNames) []slotSpan {
	issues := 0
	for i := range events {
		if events[i].Kind == KindIssue {
			issues++
		}
	}
	spans := make([]slotSpan, 0, issues)
	// A Select commits the oldest issued-but-unselected instruction of its
	// slot and pc: pending holds that FIFO per (slot, pc), linked through
	// slotSpan.next.
	pending := map[pendingKey]spanFIFO{}
	for i := range events {
		e := &events[i]
		key := pendingKey{int(e.Slot), e.PC}
		switch e.Kind {
		case KindIssue:
			spans = append(spans, slotSpan{
				start: e.Cycle, end: e.Cycle + 1,
				name: names.instruction(e.Ins), pc: e.PC, slotID: key.slot,
			})
			q := pending[key]
			if q.tail == 0 {
				q.head = len(spans)
			} else {
				spans[q.tail-1].next = len(spans)
			}
			q.tail = len(spans)
			pending[key] = q
		case KindSelect:
			q := pending[key]
			if q.head == 0 {
				continue
			}
			sp := &spans[q.head-1]
			end := e.ReadyAt
			if end <= sp.start {
				end = sp.start + 1
			}
			sp.end = end
			sp.unit = names.unit(e.Unit, int(e.UnitIndex))
			if q.head = sp.next; q.head == 0 {
				q.tail = 0
			}
			pending[key] = q
		}
	}
	return spans
}

// pendingKey groups issued instructions a Select may commit.
type pendingKey struct {
	slot int
	pc   int64
}

// spanFIFO is a queue of spans linked through slotSpan.next; head and tail
// are span indexes plus one, zero when empty.
type spanFIFO struct{ head, tail int }

// assignLanes packs each slot's spans into the minimal number of
// non-overlapping lanes (greedy interval partitioning; spans arrive sorted
// by start cycle because the ring is chronological). Returns the lane
// count per slot.
func assignLanes(spans []slotSpan, slots int) []int {
	laneEnds := make([][]uint64, slots)
	counts := make([]int, slots)
	for i := range spans {
		s := spans[i].slotID
		if s < 0 || s >= slots {
			continue
		}
		lane := -1
		for l, end := range laneEnds[s] {
			if end <= spans[i].start {
				lane = l
				break
			}
		}
		if lane == -1 {
			laneEnds[s] = append(laneEnds[s], 0)
			lane = len(laneEnds[s]) - 1
		}
		laneEnds[s][lane] = spans[i].end
		spans[i].lane = lane
		if lane+1 > counts[s] {
			counts[s] = lane + 1
		}
	}
	return counts
}
