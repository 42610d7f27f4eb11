package core

import "math/bits"

// Quiescent-cycle skipping: when no slot is running a thread, nothing can
// decode, fetch or retire until a scheduled future event — a completion
// leaving the ring, a waiting frame's remote data arriving, an idle slot's
// rebind delay elapsing, a functional or fetch unit going free. Instead of
// spinning stepCycle through those cycles (the dominant cost of concurrent
// multithreading runs with 100+-cycle remote latency, §2.1.3), Run jumps
// p.cycle straight to the earliest such event. Results are cycle-exact:
// per-cycle stall statistics only accrue on running slots, so a stretch
// with runningSlots == 0 is observationally identical whether stepped or
// skipped, provided priority rotation is fast-forwarded the same number of
// boundaries.
//
// The jump is the degenerate case of the event-driven core's pending-event
// set (event.go): with the per-cycle dirty sets empty, the horizon is
// simply the earliest pending event (wheel or heap top, folded with the
// frame wake heap). A structural horizon scan in event_test.go is the
// reference the event-set tests compare against.

// skipEnabled reports whether quiescent-cycle fast-forwarding is safe.
// An observer may watch per-cycle activity (e.g. rotation events), so its
// presence pins the machine to cycle-by-cycle stepping, as does
// Config.DisableCycleSkip (the differential-test reference path). A
// HostProbe does not (see advanceCycle).
func (p *Processor) skipEnabled() bool {
	return !p.cfg.DisableCycleSkip && p.observer == nil
}

// advanceCycle moves the machine to the next simulated cycle, jumping over
// provably quiescent stretches. A HostProbe does not disable skipping (it
// observes the simulator, not the machine): jumps are reported through
// SkipJump, and on sampled steps the horizon machinery is charged to
// HostPhaseSkip — but only when it actually arms. A step that advances
// normally closes its sampled window through hostStepDone without touching
// the event-horizon phase, so phase profiles separate "cycle simulated"
// from "cycle jumped by event horizon".
func (p *Processor) advanceCycle() {
	next := p.cycle + 1
	if p.runningSlots > 0 || !p.skipEnabled() {
		// Normal step: retire pending events up to the cycle being entered
		// (each push is popped exactly once, keeping the heap bounded).
		p.drainEv(next)
		p.cycle = next
		p.hostStepDone()
		return
	}
	t := p.quiescentHorizonEvent()
	if t > p.cfg.MaxCycles {
		// Jump to the limit so Run reports the runaway/deadlock error at
		// the same cycle, with the same statistics, as stepping would.
		t = p.cfg.MaxCycles
	}
	if t <= next {
		p.drainEv(next)
		p.cycle = next
		p.hostSkipDone()
		return
	}
	if p.hostProbe != nil {
		p.hostProbe.SkipJump(next-1, t)
	}
	p.fastForwardRotation(t)
	p.drainEv(t)
	p.cycle = t
	p.hostSkipDone()
}

// hostStepDone closes a sampled step that advanced normally: the sampled
// flag is cleared so no touch-census increment can run between two steps,
// and nothing is charged to the event-horizon phase (it never ran).
func (p *Processor) hostStepDone() {
	p.hostSampled = false
}

// hostSkipDone closes the event-horizon phase of a sampled step on which
// the skip machinery armed (runningSlots == 0 and skipping enabled).
func (p *Processor) hostSkipDone() {
	if p.hostSampled {
		p.hostProbe.PhaseEnd(HostPhaseSkip)
		p.hostSampled = false
	}
}

// maxU returns the larger of two cycle numbers.
func maxU(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// minEvent folds one candidate event cycle into the horizon.
func minEvent(t, c uint64) uint64 {
	if c < t {
		return c
	}
	return t
}

// noEvent is the horizon sentinel: no resource reports a future event.
const noEvent = ^uint64(0)

// quiescentHorizonEvent returns the earliest future cycle at which any
// pipeline activity can occur, given that no slot is running: the earliest
// bit of the near-event wheel, folded with the far-event heap top and the
// earliest frame-wake deadline (kept in its own heap for (when, id) wake
// ordering).
// Stale events — a killed slot's rebind, a re-busied unit — are at worst
// early, never late, costing one extra step. If the whole event set is
// empty the machine can never make progress (and finished() was false),
// i.e. a genuine deadlock: return MaxCycles so Run raises the same
// diagnostic the cycle-by-cycle loop would reach.
func (p *Processor) quiescentHorizonEvent() uint64 {
	floor := p.cycle + 1
	p.drainEv(p.cycle)
	t := uint64(noEvent)
	if p.evNear != 0 {
		t = p.cycle + 1 + uint64(bits.TrailingZeros64(p.evNear))
	}
	if len(p.evFar) > 0 {
		t = minEvent(t, p.evFar[0])
	}
	if len(p.waitHeap) > 0 {
		t = minEvent(t, maxU(p.waitHeap[0].when, floor))
	}
	if t == noEvent {
		return p.cfg.MaxCycles
	}
	return t
}

// fastForwardRotation applies the implicit-rotation boundaries in the
// half-open interval (p.cycle, t) that a cycle-by-cycle walk to t would
// have crossed, leaving the priority order and the nextRotation counter
// exactly as stepping would. A boundary landing on t itself stays pending
// for rotatePriorities at cycle t. Boundaries are consumed even in
// explicit-rotation mode (matching rotatePriorities); rotations only apply
// in implicit mode, reduced modulo the priority-list length since rotation
// is cyclic.
func (p *Processor) fastForwardRotation(t uint64) {
	if p.nextRotation >= t {
		return
	}
	interval := uint64(p.cfg.RotationInterval)
	k := (t-1-p.nextRotation)/interval + 1
	p.nextRotation += k * interval
	if p.explicit || len(p.prio) < 2 {
		return
	}
	for i := uint64(0); i < k%uint64(len(p.prio)); i++ {
		p.rotateOnce()
	}
}
