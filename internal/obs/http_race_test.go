package obs

// Race-hardening: every HTTP endpoint must serve consistent snapshots
// while a live simulation writes the collector. Run under -race (the CI
// race step covers this package); the test drives a long-running loop and
// hammers the JSON endpoints concurrently with the run.

import (
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"hirata/internal/asm"
	"hirata/internal/core"
)

const liveLoopSrc = `
	.text
	li   r1, 8000
loop:	addi r2, r1, 7
	addi r1, r1, -1
	bnez r1, loop
	halt
`

func TestHTTPEndpointsDuringLiveRun(t *testing.T) {
	prog, err := asm.Assemble(liveLoopSrc)
	if err != nil {
		t.Fatal(err)
	}
	m, err := prog.NewMemory(64)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{ThreadSlots: 2, StandbyStations: true}
	p, err := core.New(cfg, prog.Text, m)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCollector(cfg, Options{MetricsInterval: 64})
	p.Observe(c)
	if err := p.StartThread(0); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(Handler(c, prog, nil, nil))
	defer srv.Close()

	runDone := make(chan error, 1)
	go func() {
		res, err := p.Run()
		if err == nil {
			c.Finalize(res)
		}
		runDone <- err
	}()

	paths := []string{"/metrics", "/metrics.json", "/trace.json", "/cpistack.json", "/critpath.json", "/profile"}
	var wg sync.WaitGroup
	errs := make(chan error, len(paths)*8)
	for _, path := range paths {
		for k := 0; k < 8; k++ {
			wg.Add(1)
			go func(path string) {
				defer wg.Done()
				resp, err := http.Get(srv.URL + path)
				if err != nil {
					errs <- err
					return
				}
				defer resp.Body.Close()
				// /critpath.json may legitimately refuse (503) if the ring
				// dropped events; everything else must answer 200.
				if resp.StatusCode != http.StatusOK &&
					!(path == "/critpath.json" && resp.StatusCode == http.StatusServiceUnavailable) {
					body, _ := io.ReadAll(resp.Body)
					t.Errorf("GET %s during live run: %d: %s", path, resp.StatusCode, body)
					return
				}
				if _, err := io.ReadAll(resp.Body); err != nil {
					errs <- err
				}
			}(path)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if err := <-runDone; err != nil {
		t.Fatal(err)
	}

	// After the run: the accounting must still be exact.
	st := c.CPIStack()
	for _, s := range st.Slots {
		if got := s.Total(); got != st.Cycles {
			t.Errorf("post-run slot %d buckets sum to %d, want %d", s.Slot, got, st.Cycles)
		}
	}
}
