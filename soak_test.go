package tdb_test

import (
	"errors"
	"testing"

	"tdb"
	"tdb/internal/dataset"
	"tdb/temporal"
)

// TestScaleSoak loads a larger generated history (1000 entities × 20
// versions) through the facade into temporal, historical and rollback
// relations and cross-checks the representations against each other at many
// probe points — the taxonomy's semantic relationships, validated at scale.
// Skipped under -short.
func TestScaleSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	cfg := dataset.DefaultConfig()
	cfg.Entities = 1000
	cfg.VersionsPerEntity = 20
	events := dataset.History(cfg)

	db, err := tdb.Open("", tdb.Options{Clock: temporal.NewLogicalClock(0)})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	sch := schemaT(t)
	for _, name := range []string{"temporal", "historical", "rollback"} {
		kind := map[string]tdb.Kind{
			"temporal": tdb.Temporal, "historical": tdb.Historical, "rollback": tdb.StaticRollback,
		}[name]
		if _, err := db.CreateRelation(name, kind, sch); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range events {
		e := e
		if err := db.UpdateAt(e.Commit, func(tx *tdb.Tx) error {
			tup := tdb.NewTuple(tdb.String(e.Name), tdb.String(e.Rank))
			key := tdb.Key(tdb.String(e.Name))
			tr, _ := tx.Rel("temporal")
			hr, _ := tx.Rel("historical")
			rr, _ := tx.Rel("rollback")
			if e.Assert {
				if err := tr.Assert(tup, e.Valid.From, e.Valid.To); err != nil {
					return err
				}
				if err := hr.Assert(tup, e.Valid.From, e.Valid.To); err != nil {
					return err
				}
				if err := rr.Insert(tup); errors.Is(err, tdb.ErrDuplicateKey) {
					return rr.Replace(key, tup)
				} else if err != nil {
					return err
				}
				return nil
			}
			if err := tr.Retract(key, e.Valid.From, e.Valid.To); err != nil &&
				!errors.Is(err, tdb.ErrNoSuchTuple) {
				return err
			}
			if err := hr.Retract(key, e.Valid.From, e.Valid.To); err != nil &&
				!errors.Is(err, tdb.ErrNoSuchTuple) {
				return err
			}
			if err := rr.Delete(key); err != nil && !errors.Is(err, tdb.ErrNoSuchTuple) {
				return err
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}

	tr, _ := db.Relation("temporal")
	hr, _ := db.Relation("historical")
	rr, _ := db.Relation("rollback")

	t.Logf("temporal versions: %d (events: %d)", tr.VersionCount(), len(events))

	// Compare slice *contents*: the temporal store fragments periods at
	// correction boundaries while the historical store coalesces on write,
	// so interval bounds may differ even though every time slice agrees.
	asSet := func(vs []tdb.Version) map[string]bool {
		out := map[string]bool{}
		for _, v := range vs {
			out[v.Data.String()] = true
		}
		return out
	}
	scan := func(rel *tdb.Relation, spec tdb.ScanSpec) []tdb.Version {
		t.Helper()
		vs, err := rel.Scan(spec)
		if err != nil {
			t.Fatal(err)
		}
		return vs
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

	// Relationship 1: the temporal relation's current belief equals the
	// historical relation, at every probed valid instant.
	for probe := cfg.Start; probe < cfg.Start.Add(cfg.Step*int64(len(events))); probe = probe.Add(cfg.Step * 997) {
		when := temporal.At(probe)
		a, b := scan(tr, tdb.ScanSpec{When: &when}), scan(hr, tdb.ScanSpec{When: &when})
		if !sameSet(asSet(a), asSet(b)) {
			t.Fatalf("temporal vs historical diverge at %v: %d vs %d rows",
				probe, len(a), len(b))
		}
	}

	// Relationship 2: the rollback relation's state as of each probed
	// commit equals the key->latest-rank reduction of the event stream.
	commits := dataset.Commits(events)
	for i := 101; i < len(commits); i += 1013 {
		at := commits[i]
		want := map[string]string{}
		for _, e := range events {
			if e.Commit > at {
				break
			}
			if e.Assert {
				want[e.Name] = e.Rank
			} else {
				delete(want, e.Name)
			}
		}
		vs := scan(rr, tdb.ScanSpec{AsOf: &at})
		if len(vs) != len(want) {
			t.Fatalf("rollback as of %v: %d rows, want %d", at, len(vs), len(want))
		}
		for _, v := range vs {
			tup := v.Data
			if want[tup[0].Str()] != tup[1].Str() {
				t.Fatalf("rollback as of %v: %v, want rank %q", at, tup, want[tup[0].Str()])
			}
		}
	}
}
