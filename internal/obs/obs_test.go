package obs

import (
	"sync"
	"testing"
)

// TestConcurrentExactTotals hammers one counter, one gauge, and one
// histogram from 16 goroutines and asserts exact totals — run under -race
// this is the registry's concurrency contract.
func TestConcurrentExactTotals(t *testing.T) {
	const (
		workers = 16
		iters   = 10_000
	)
	reg := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				// Lookup inside the loop: the get-or-create path must be as
				// safe as the cached-pointer path.
				reg.Counter("hammer_total", "h").Inc()
				reg.Gauge("hammer_gauge", "h").Add(1)
				reg.Histogram("hammer_seconds", "h", []float64{0.5, 1, 2}).Observe(1)
			}
		}()
	}
	wg.Wait()

	const want = workers * iters
	if got := reg.Counter("hammer_total", "h").Value(); got != want {
		t.Errorf("counter = %d, want %d", got, want)
	}
	if got := reg.Gauge("hammer_gauge", "h").Value(); got != want {
		t.Errorf("gauge = %d, want %d", got, want)
	}
	h := reg.Histogram("hammer_seconds", "h", nil)
	if got := h.Count(); got != want {
		t.Errorf("histogram count = %d, want %d", got, want)
	}
	if got := h.Sum(); got != float64(want) {
		t.Errorf("histogram sum = %g, want %d", got, want)
	}
	// Every observation was 1.0: the 0.5 bucket stays empty, the rest are
	// cumulative-full.
	if buckets := h.Buckets(); buckets[0] != 0 || buckets[1] != want ||
		buckets[2] != want || buckets[3] != want {
		t.Errorf("histogram buckets = %v, want [0 %d %d %d]", buckets, want, want, want)
	}
}

func TestGaugeUpDown(t *testing.T) {
	reg := NewRegistry()
	g := reg.Gauge("conns_open", "open connections")
	g.Inc()
	g.Inc()
	g.Dec()
	if got := g.Value(); got != 1 {
		t.Fatalf("gauge = %d, want 1", got)
	}
	g.Set(-5)
	if got := g.Value(); got != -5 {
		t.Fatalf("gauge = %d, want -5", got)
	}
}

func TestHistogramBucketAssignment(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat_seconds", "latency", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.01, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	// Bounds are inclusive upper bounds: 0.01 lands in the first bucket.
	want := []uint64{2, 3, 4, 5}
	got := h.Buckets()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cumulative buckets = %v, want %v", got, want)
		}
	}
	// Accumulate the expectation the same way Observe does (sequential
	// float64 adds), since constant folding would be exact where runtime
	// addition rounds.
	want2 := 0.0
	for _, v := range []float64{0.005, 0.01, 0.05, 0.5, 5} {
		want2 += v
	}
	if h.Sum() != want2 {
		t.Fatalf("sum = %g, want %g", h.Sum(), want2)
	}
}

func TestKindClashPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("x_total", "x")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic registering x_total as a gauge")
		}
	}()
	reg.Gauge("x_total", "x")
}

func TestNamespace(t *testing.T) {
	reg := NewRegistry()
	ns := reg.Namespace("tdb_wal")
	c := ns.Counter("records_total", "records appended")
	c.Add(3)
	if got := reg.Counter("tdb_wal_records_total", "").Value(); got != 3 {
		t.Fatalf("namespaced counter not shared with full-name lookup: %d", got)
	}
	if c.Name() != "tdb_wal_records_total" {
		t.Fatalf("name = %q", c.Name())
	}
}

func TestRegistryTracer(t *testing.T) {
	reg := NewRegistry()
	tr := NewRegistryTracer(reg, "tdb_query")
	sp := tr.Start("execute")
	sp.Note("rows_scanned", 40)
	sp.Note("rows_scanned", 2)
	sp.End()
	sp = tr.Start("execute")
	sp.End()

	h := reg.Histogram(`tdb_query_span_seconds{span="execute"}`, "", nil)
	if h.Count() != 2 {
		t.Fatalf("span histogram count = %d, want 2", h.Count())
	}
	c := reg.Counter(`tdb_query_span_note_total{span="execute",key="rows_scanned"}`, "")
	if c.Value() != 42 {
		t.Fatalf("note counter = %d, want 42", c.Value())
	}
}
