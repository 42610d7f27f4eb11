package hostobs

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"hirata/internal/core"
)

// hostTraceSHA256 pins WriteHostTrace's bytes for the fixed profile below.
const hostTraceSHA256 = "fb5167ec3fbd1ab3c538e8891128f5c38e3691b388c6e9786a68511c123db2f1"

// TestWriteHostTracePinned renders a fixed profile and sweep (host timings
// are not reproducible, so the samples are set by hand) and checks the
// exact bytes: every track, arg type and the zero-duration widening.
func TestWriteHostTracePinned(t *testing.T) {
	p := New(Options{})
	for i := uint64(0); i < 5; i++ {
		var s StepSample
		s.Cycle = 1000*i + 7
		s.StartNs = 1_234_567*i + 999
		for ph := core.HostPhase(0); ph < core.NumHostPhases; ph++ {
			s.PhaseNs[ph] = (uint64(ph) + i) * 377 % 2500 // some zero, some sub-microsecond
		}
		s.Touch.RunningSlots = i % 3
		p.ring = append(p.ring, s)
	}
	p.skips = []SkipEvent{{From: 10, To: 42, AtNs: 5_000}, {From: 100, To: 101, AtNs: 999}}
	rec := NewSweepRecorder()
	rec.cells = []CellSpan{
		{Worker: 0, Cell: 0, Pending: 2, StartNs: 0, DurNs: 800},
		{Worker: 1, Cell: 1, Pending: 1, StartNs: 1_500, DurNs: 250_000, Failed: true},
		{Worker: 0, Cell: 1152, Pending: 0, StartNs: 3_000_000, DurNs: 12_345},
	}
	rec.workers = 2
	var buf bytes.Buffer
	if err := WriteHostTrace(&buf, p, rec); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != hostTraceSHA256 {
		t.Errorf("host trace hashes to %s, want %s:\n%s", got, hostTraceSHA256, buf.Bytes())
	}
}
