package dataset

import (
	"testing"

	"tdb/internal/core"
	"tdb/internal/tuple"
	"tdb/temporal"
)

func TestHistoryDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	a, b := History(cfg), History(cfg)
	if len(a) != cfg.Entities*cfg.VersionsPerEntity {
		t.Fatalf("length = %d", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs between identical seeds", i)
		}
	}
	cfg.Seed++
	c := History(cfg)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical histories")
	}
}

func TestHistoryCommitsMonotone(t *testing.T) {
	events := History(DefaultConfig())
	for i := 1; i < len(events); i++ {
		if events[i].Commit <= events[i-1].Commit {
			t.Fatalf("commit times not strictly increasing at %d", i)
		}
	}
	commits := Commits(events)
	if len(commits) != len(events) {
		t.Errorf("Commits = %d, want %d distinct", len(commits), len(events))
	}
}

func TestHistoryFractions(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Entities, cfg.VersionsPerEntity = 50, 100
	cfg.RetroFraction, cfg.RetractFraction = 0.3, 0.2
	events := History(cfg)
	retro, retract := 0, 0
	for _, e := range events {
		if !e.Assert {
			retract++
		}
		if e.Valid.From < e.Commit {
			retro++
		}
	}
	n := float64(len(events))
	if f := float64(retract) / n; f < 0.15 || f > 0.25 {
		t.Errorf("retract fraction = %.2f, want ~0.2", f)
	}
	if f := float64(retro) / n; f < 0.2 || f > 0.4 {
		t.Errorf("retro fraction = %.2f, want ~0.3", f)
	}
	for _, e := range events {
		if e.Valid.IsEmpty() || !e.Valid.IsValid() {
			t.Fatalf("malformed valid period %v", e.Valid)
		}
	}
}

func TestLoadersAllStores(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Entities, cfg.VersionsPerEntity = 20, 8
	events := History(cfg)
	sch := Schema()

	ts := core.New(core.Temporal, sch, false)
	if err := LoadHistory(ts, events); err != nil {
		t.Fatalf("temporal: %v", err)
	}
	if ts.VersionCount() < len(events) {
		t.Errorf("temporal stored %d versions for %d events", ts.VersionCount(), len(events))
	}

	hs := core.New(core.Historical, sch, false)
	if err := LoadHistory(hs, events); err != nil {
		t.Fatalf("historical: %v", err)
	}

	rb := core.New(core.StaticRollback, sch, false)
	if err := LoadState(rb, events); err != nil {
		t.Fatalf("rollback: %v", err)
	}
	st := core.New(core.Static, sch, false)
	if err := LoadState(st, events); err != nil {
		t.Fatalf("static: %v", err)
	}

	// The final static state matches the rollback store's current state.
	// (internal/core's ablation tests compare the rollback store with the
	// full-copy one at every commit.)
	asSet := func(ts []tuple.Tuple) map[string]bool {
		out := make(map[string]bool, len(ts))
		for _, t := range ts {
			out[t.String()] = true
		}
		return out
	}
	sameSet := func(a, b map[string]bool) bool {
		if len(a) != len(b) {
			return false
		}
		for k := range a {
			if !b[k] {
				return false
			}
		}
		return true
	}
	read := func(s *core.Store, spec core.ScanSpec) []tuple.Tuple {
		var out []tuple.Tuple
		if err := s.Read(spec, func(v core.Version) bool { out = append(out, v.Data); return true }); err != nil {
			t.Fatal(err)
		}
		return out
	}
	if !sameSet(asSet(read(st, core.ScanSpec{})), asSet(read(rb, core.ScanSpec{}))) {
		t.Fatal("final static state differs from rollback current state")
	}

	// Temporal-vs-historical agreement on current belief: the temporal
	// store's current time slices equal the historical store's.
	for probe := cfg.Start; probe < MidCommit(events); probe += temporal.Chronon(cfg.Step * 100) {
		at := temporal.At(probe)
		if !sameSet(asSet(read(ts, core.ScanSpec{When: &at})), asSet(read(hs, core.ScanSpec{When: &at}))) {
			t.Fatalf("time slice at %v diverges between temporal and historical", probe)
		}
	}
}
