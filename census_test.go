package hirata

// End-to-end check of the dirty-set core's headline number: on the
// parallel ray trace (the benchmark-class workload) the touch census must
// report under 20% wasted structure visits — the dirty sets admit almost
// exclusively entries with real work.

import "testing"

func TestEventCoreCensusWasteBelow20Percent(t *testing.T) {
	rt, err := BuildRayTrace(RayTraceConfig{Rays: 48, Spheres: 6})
	if err != nil {
		t.Fatal(err)
	}
	cfg := MTConfig{ThreadSlots: 8, LoadStoreUnits: 2, StandbyStations: true}
	m, err := rt.NewMemory(rt.Par, cfg.ThreadSlots)
	if err != nil {
		t.Fatal(err)
	}
	// Dense sampling: the census fractions, not the timing, are under
	// test, so a stable estimate beats low overhead here.
	prof := NewHostProfiler(HostProfilerOptions{SampleEvery: 4})
	if _, err := RunMTProfiledObserved(cfg, rt.Par.Text, m, nil, prof); err != nil {
		t.Fatal(err)
	}
	rep := prof.Opportunity()
	if rep.SampledSteps == 0 || rep.TotalScans == 0 {
		t.Fatalf("empty census (%d steps, %d visits)", rep.SampledSteps, rep.TotalScans)
	}
	t.Logf("%.1f%% wasted of %d visits", 100*rep.WastedFrac, rep.TotalScans)
	if rep.WastedFrac >= 0.20 {
		t.Errorf("event core wasted fraction = %.1f%%, want < 20%%\n%s",
			100*rep.WastedFrac, rep.Format())
	}
}
