package core_test

import (
	"testing"

	"hirata/internal/core"
	"hirata/internal/isa"
	"hirata/internal/workload"
)

// issueCounter counts issues per (cycle, slot) and priority rotations; the
// embedded nil MultiObserver ignores every other event.
type issueCounter struct {
	core.MultiObserver
	n         map[[2]uint64]int
	rotations int
}

func (c *issueCounter) Rotate(uint64, []int) { c.rotations++ }

func (c *issueCounter) Issue(cycle uint64, slot int, _ int64, _ isa.Instruction) {
	c.n[[2]uint64{cycle, uint64(slot)}]++
}

// TestChgpriMidPassIssuesOncePerSlot runs Table 5's eager linked-list walk
// on 2 slots. Its explicit-mode chgpri rotates the priority order in the
// middle of a decode pass; at IssueWidth 1 no slot may issue twice in one
// cycle, and the rotation must not skip the slot rotated past the other.
func TestChgpriMidPassIssuesOncePerSlot(t *testing.T) {
	ll, err := workload.BuildLinkedList(workload.LinkedListConfig{Nodes: 40, BreakAt: -1})
	if err != nil {
		t.Fatal(err)
	}
	m, err := ll.NewMemory(ll.Par, 2)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.New(core.Config{ThreadSlots: 2, LoadStoreUnits: 1, StandbyStations: true}, ll.Par.Text, m)
	if err != nil {
		t.Fatal(err)
	}
	c := &issueCounter{n: map[[2]uint64]int{}}
	p.Observe(c)
	if _, err := p.Run(); err != nil {
		t.Fatal(err)
	}
	if c.rotations == 0 {
		t.Fatal("the walk never rotated the priorities; the test exercises nothing")
	}
	twice := 0
	for _, n := range c.n {
		if n > 1 {
			twice++
		}
	}
	if twice > 0 {
		t.Errorf("%d (cycle, slot) pairs issued more than one instruction at IssueWidth 1", twice)
	}
}
