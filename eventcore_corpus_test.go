package hirata_test

// Pinned runs over the MinC fuzz corpus: every corpus entry that compiles
// must reproduce its golden under testdata/pinned — Result, memory image,
// and, for runaway or deadlocked entries, the error at the same cycle. The
// fuzzer's job is to find control shapes the curated examples miss
// (degenerate loops, dead branches, deep expression spills).

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"hirata"
)

func TestEventCoreDifferentialFuzzCorpus(t *testing.T) {
	dir := filepath.Join("internal", "minc", "testdata", "fuzz", "FuzzCompile")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Skipf("no fuzz corpus: %v", err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		src, ok := corpusString(string(data))
		if !ok {
			continue
		}
		prog, err := hirata.CompileMinC(src)
		if err != nil {
			continue // the fuzzer keeps crashers and rejects alike
		}
		for _, slots := range []int{1, 4} {
			slots := slots
			name := fmt.Sprintf("%s/S%d", e.Name(), slots)
			t.Run(name, func(t *testing.T) {
				cfg := hirata.MTConfig{
					ThreadSlots:     slots,
					LoadStoreUnits:  2,
					StandbyStations: true,
					MaxCycles:       2_000_000,
				}
				hirata.RunPinned(t, "fuzz_corpus/"+name, cfg, prog.Text, func() (*hirata.Memory, error) {
					m, err := prog.NewMemory(4096)
					if err != nil {
						t.Skipf("memory: %v", err)
					}
					hirata.SetMinCThreads(prog, m, slots)
					return m, nil
				})
			})
		}
	}
}
