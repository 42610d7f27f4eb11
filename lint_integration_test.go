package hirata_test

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hirata"
)

// TestWorkloadsLintClean runs the static verifier over every paper
// workload program; the generators must emit protocol-clean code.
func TestWorkloadsLintClean(t *testing.T) {
	progs := map[string]*hirata.Program{}

	rt, err := hirata.BuildRayTrace(hirata.RayTraceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	progs["raytrace-seq"], progs["raytrace-par"] = rt.Seq, rt.Par

	lk, err := hirata.BuildLivermore(hirata.LivermoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	progs["livermore-seq"], progs["livermore-par"] = lk.Seq, lk.Par

	ll, err := hirata.BuildLinkedList(hirata.LinkedListConfig{})
	if err != nil {
		t.Fatal(err)
	}
	progs["linkedlist-seq"], progs["linkedlist-par"] = ll.Seq, ll.Par

	rc, err := hirata.BuildRecurrence(hirata.RecurrenceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	progs["recurrence-seq"], progs["recurrence-par"] = rc.Seq, rc.Par

	rd, err := hirata.BuildRadiosity(hirata.RadiosityConfig{})
	if err != nil {
		t.Fatal(err)
	}
	progs["radiosity"] = rd.Prog

	for name, p := range progs {
		t.Run(name, func(t *testing.T) {
			for _, d := range hirata.Lint(p) {
				t.Errorf("%s: %v", name, d)
			}
		})
	}
}

// TestWorkloadsDeadlockClean runs the queue-protocol deadlock verifier
// (L015-L017, docs/LINT.md) over every paper workload: the generators'
// queue rings must be provably free of ring deadlocks, overflows and
// unbounded spins. CI runs this alongside `hirata-lint -deadlock` over the
// shipped examples (make lint-bounds).
func TestWorkloadsDeadlockClean(t *testing.T) {
	progs := map[string]*hirata.Program{}

	rt, err := hirata.BuildRayTrace(hirata.RayTraceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	progs["raytrace-seq"], progs["raytrace-par"] = rt.Seq, rt.Par

	lk, err := hirata.BuildLivermore(hirata.LivermoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	progs["livermore-seq"], progs["livermore-par"] = lk.Seq, lk.Par

	ll, err := hirata.BuildLinkedList(hirata.LinkedListConfig{})
	if err != nil {
		t.Fatal(err)
	}
	progs["linkedlist-seq"], progs["linkedlist-par"] = ll.Seq, ll.Par

	rc, err := hirata.BuildRecurrence(hirata.RecurrenceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	progs["recurrence-seq"], progs["recurrence-par"] = rc.Seq, rc.Par

	rd, err := hirata.BuildRadiosity(hirata.RadiosityConfig{})
	if err != nil {
		t.Fatal(err)
	}
	progs["radiosity"] = rd.Prog

	for name, p := range progs {
		t.Run(name, func(t *testing.T) {
			cfg := hirata.LintConfig{InterThread: true, Deadlock: true}
			for _, d := range hirata.LintWithConfig(p, cfg) {
				t.Errorf("%s: %v", name, d)
			}
		})
	}
}

// TestExampleMinCLintClean compiles every shipped MinC example and
// verifies the generated code.
func TestExampleMinCLintClean(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("examples", "programs", "*.mc"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no MinC examples found")
	}
	for _, path := range paths {
		t.Run(filepath.Base(path), func(t *testing.T) {
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			p, err := hirata.CompileMinC(string(src))
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			for _, d := range hirata.Lint(p) {
				t.Errorf("%s: %v", filepath.Base(path), d)
			}
		})
	}
}

// TestStrictVerify checks the StrictVerify run gate on both machines.
func TestStrictVerify(t *testing.T) {
	bad := hirata.Program{}
	{
		p, err := hirata.Assemble("\tadd r3, r1, r2\n") // uninit reads, no halt
		if err != nil {
			t.Fatal(err)
		}
		bad = *p
	}
	good, err := hirata.Assemble("\tli r1, 2\n\tadd r2, r1, r1\n\thalt\n")
	if err != nil {
		t.Fatal(err)
	}

	if _, err := hirata.RunMT(hirata.MTConfig{StrictVerify: true}, bad.Text, hirata.NewMemory(16)); err == nil {
		t.Error("RunMT(StrictVerify) accepted a bad program")
	} else if !strings.Contains(err.Error(), "L001") {
		t.Errorf("RunMT error does not carry diagnostics: %v", err)
	}
	if _, err := hirata.RunMT(hirata.MTConfig{StrictVerify: true}, good.Text, hirata.NewMemory(16)); err != nil {
		t.Errorf("RunMT(StrictVerify) rejected a clean program: %v", err)
	}

	if _, err := hirata.RunRISC(hirata.RISCConfig{StrictVerify: true}, bad.Text, hirata.NewMemory(16)); err == nil {
		t.Error("RunRISC(StrictVerify) accepted a bad program")
	}
	if _, err := hirata.RunRISC(hirata.RISCConfig{StrictVerify: true}, good.Text, hirata.NewMemory(16)); err != nil {
		t.Errorf("RunRISC(StrictVerify) rejected a clean program: %v", err)
	}
}

// TestStrictVerifyEveryRunMT runs every RunMT variant on a deadlocked
// fixture with StrictVerify set: run as one thread from pc 0, its queue pop
// has no producer (L006). Each variant must refuse it before simulating,
// with the same diagnostics RunMT gives.
func TestStrictVerifyEveryRunMT(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("cmd", "hirata-lint", "testdata", "deadlock.s"))
	if err != nil {
		t.Fatal(err)
	}
	p, err := hirata.Assemble(string(src))
	if err != nil {
		t.Fatal(err)
	}
	// A small MaxCycles keeps a variant that skips the gate from spinning
	// for long before it fails differently.
	cfg := hirata.MTConfig{StrictVerify: true, MaxCycles: 10000}
	variants := []struct {
		name string
		run  func() error
	}{
		{"RunMT", func() error {
			_, err := hirata.RunMT(cfg, p.Text, hirata.NewMemory(64))
			return err
		}},
		{"RunMTTraced", func() error {
			_, err := hirata.RunMTTraced(cfg, p.Text, hirata.NewMemory(64), io.Discard)
			return err
		}},
		{"RunMTObserved", func() error {
			col := hirata.NewCollector(cfg, hirata.CollectorOptions{})
			_, err := hirata.RunMTObserved(cfg, p.Text, hirata.NewMemory(64), []hirata.Observer{col})
			return err
		}},
		{"RunMTHostProfiled", func() error {
			prof := hirata.NewHostProfiler(hirata.HostProfilerOptions{})
			_, err := hirata.RunMTHostProfiled(cfg, p.Text, hirata.NewMemory(64), prof)
			return err
		}},
		{"RunMTProfiledObserved", func() error {
			col := hirata.NewCollector(cfg, hirata.CollectorOptions{})
			prof := hirata.NewHostProfiler(hirata.HostProfilerOptions{})
			_, err := hirata.RunMTProfiledObserved(cfg, p.Text, hirata.NewMemory(64), []hirata.Observer{col}, prof)
			return err
		}},
	}
	var want string
	for _, v := range variants {
		err := v.run()
		if err == nil {
			t.Errorf("%s(StrictVerify) ran a deadlocked program", v.name)
			continue
		}
		if !strings.Contains(err.Error(), "strict verify") || !strings.Contains(err.Error(), "L006") {
			t.Errorf("%s: want a strict-verify refusal carrying L006, got: %v", v.name, err)
			continue
		}
		if want == "" {
			want = err.Error()
		} else if err.Error() != want {
			t.Errorf("%s refusal differs from RunMT's:\n%v\nwant:\n%s", v.name, err, want)
		}
	}
}
