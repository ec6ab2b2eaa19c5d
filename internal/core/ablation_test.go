package core_test

// Ablation A1 (DESIGN.md): the full-state-copy rollback store the paper
// rejects as "impractical, due to excessive duplication" (§4.2), against the
// tuple-timestamped store that replaces it, on generated histories. The copy
// store is test code (copyrollback_test.go); these tests and benchmarks are
// what it is kept for. EXPERIMENTS.md's A1 table is regenerated with
//
//	go test -run '^$' -bench AblationCopyVsStamped -benchmem ./internal/core

import (
	"fmt"
	"sort"
	"testing"

	"tdb/internal/core"
	"tdb/internal/dataset"
	"tdb/internal/tuple"
)

// BenchmarkAblationCopyVsStamped loads the same generated history into the
// tuple-timestamped rollback store and into the full-state-copy store of
// Figure 3, across increasing history depth. The reported
// tuple-copies/event metric is the paper's "excessive duplication" made
// measurable: it grows linearly with entity count for the copy store and
// stays at ~1 for the timestamped store.
func BenchmarkAblationCopyVsStamped(b *testing.B) {
	for _, versions := range []int{4, 16, 64} {
		cfg := dataset.DefaultConfig()
		cfg.Entities = 50
		cfg.VersionsPerEntity = versions
		events := dataset.History(cfg)
		b.Run(fmt.Sprintf("stamped/versions=%d", versions), func(b *testing.B) {
			var stored int
			for i := 0; i < b.N; i++ {
				s := core.New(core.StaticRollback, dataset.Schema(), false)
				if err := dataset.LoadState(s, events); err != nil {
					b.Fatal(err)
				}
				stored = s.VersionCount()
			}
			b.ReportMetric(float64(stored)/float64(len(events)), "copies/event")
		})
		b.Run(fmt.Sprintf("copy/versions=%d", versions), func(b *testing.B) {
			var stored int
			for i := 0; i < b.N; i++ {
				s := core.NewCopyRollbackStore(dataset.Schema())
				if err := dataset.LoadState(s, events); err != nil {
					b.Fatal(err)
				}
				stored = s.TupleCopies()
			}
			b.ReportMetric(float64(stored)/float64(len(events)), "copies/event")
		})
	}
}

// TestCopyMatchesStampedOnHistory loads one generated history into both
// rollback representations: at every commit they answer "as of" with the
// same state.
func TestCopyMatchesStampedOnHistory(t *testing.T) {
	cfg := dataset.DefaultConfig()
	cfg.Entities, cfg.VersionsPerEntity = 20, 8
	events := dataset.History(cfg)
	rb := core.New(core.StaticRollback, dataset.Schema(), false)
	if err := dataset.LoadState(rb, events); err != nil {
		t.Fatalf("rollback: %v", err)
	}
	cp := core.NewCopyRollbackStore(dataset.Schema())
	if err := dataset.LoadState(cp, events); err != nil {
		t.Fatalf("copy: %v", err)
	}
	render := func(ts []tuple.Tuple) string {
		out := make([]string, len(ts))
		for i, tp := range ts {
			out[i] = tp.String()
		}
		sort.Strings(out)
		return fmt.Sprint(out)
	}
	for _, at := range dataset.Commits(events) {
		var stamped []tuple.Tuple
		if err := rb.Read(core.ScanSpec{AsOf: &at}, func(v core.Version) bool {
			stamped = append(stamped, v.Data)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if got, want := render(cp.AsOf(at)), render(stamped); got != want {
			t.Fatalf("as of %v: copy %s, stamped %s", at, got, want)
		}
	}
}
