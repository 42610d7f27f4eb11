package main

import (
	"testing"
	"time"

	"hirata"
	"hirata/internal/runledger"
)

func TestTailRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	cases := []struct {
		n      int
		p      float64
		value  float64
		beyond int
	}{
		{1, 100, 1, 0},
		{19, 100, 19, 0}, // p50 would leave 9 beyond
		{20, 50, 10, 10},
		{100, 90, 90, 10},
		{199, 90, 180, 19},  // p95 would leave 9 beyond
		{1000, 99, 990, 10}, // p99.9 would leave 1 beyond
		{10000, 99.9, 9990, 10},
	}
	for _, c := range cases {
		got := tail(seq(c.n))
		if got.Percentile != c.p || got.Value != c.value || got.Beyond != c.beyond || got.Samples != c.n {
			t.Errorf("tail of %d samples = %+v, want p%v = %v with %d beyond", c.n, got, c.p, c.value, c.beyond)
		}
		if c.p < 100 && got.Beyond < 10 {
			t.Errorf("tail of %d samples leaves %d beyond, want at least 10", c.n, got.Beyond)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// TestSelfTime checks that a span's self time excludes its children.
func TestSelfTime(t *testing.T) {
	ms := int64(time.Millisecond)
	tr := &tracer{spans: []span{
		{ID: 1, Name: "model.explore", Start: 0, End: 10 * ms},
		{ID: 2, Parent: 1, Name: "sweep.cell", Start: 1 * ms, End: 4 * ms},
		{ID: 3, Parent: 1, Name: "sweep.cell", Start: 5 * ms, End: 9 * ms},
		{ID: 4, Name: "report.table2", Start: 10 * ms, End: 12 * ms},
	}}
	sum := tr.summarize()
	if got := sum["model.explore"].Self; got != 3*time.Millisecond {
		t.Errorf("explore self time = %v, want 3ms", got)
	}
	if got := sum["sweep.cell"]; got.Count != 2 || got.Total != 7*time.Millisecond {
		t.Errorf("sweep cells = %d totalling %v, want 2 totalling 7ms", got.Count, got.Total)
	}
	if got := sum["report.table2"].Self; got != 2*time.Millisecond {
		t.Errorf("table 2 self time = %v, want 2ms", got)
	}
}

// TestObservedItemsDistinctRunKeys checks that observed-record items never
// share a run key, so no result memo can turn the stream into lookups:
// recording them gives no ledger dedup hits.
func TestObservedItemsDistinctRunKeys(t *testing.T) {
	const items = 12
	led := hirata.NewRunLedger()
	keys := map[string]bool{}
	for _, seed := range []int64{1, 1000} {
		for i := 0; i < items; i++ {
			it, err := buildObsItem(seed, i)
			if err != nil {
				t.Fatal(err)
			}
			keys[runledger.Begin(ray8Config, it.rt.Par.Text, it.mem, nil).Key()] = true
			hirata.SetRunLedger(led, "test")
			_, err = hirata.RunMT(ray8Config, it.rt.Par.Text, it.mem)
			hirata.SetRunLedger(nil, "")
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	if len(keys) != 2*items {
		t.Errorf("%d items gave %d distinct run keys", 2*items, len(keys))
	}
	if st := led.Stats(); st.DedupHits != 0 || st.Records != 2*items {
		t.Errorf("ledger: %d records, %d dedup hits; want %d records, 0 dedup hits", st.Records, st.DedupHits, 2*items)
	}
}

// TestCorpusRoundTripsAndLintsClean builds the toolchain corpus (which
// re-assembles every rendered builder program) and runs one item of each
// program: none may draw a diagnostic with its run configuration.
func TestCorpusRoundTripsAndLintsClean(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		corpus, err := loadCorpus("..", seed)
		if err != nil {
			t.Fatal(err)
		}
		for i := range corpus {
			r, err := tcItem(&corpus[i], nil, nil)
			if err != nil {
				t.Fatalf("%s: %v", corpus[i].name, err)
			}
			for _, d := range r.Diagnostics {
				t.Errorf("seed %d: %s: %s", seed, r.Name, d)
			}
		}
	}
}
