package core

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"testing"

	"tdb/internal/segment"
	"tdb/internal/tuple"
	"tdb/internal/value"
	"tdb/temporal"
)

// The one reference for the append-only stores' reads: Versions() — the raw
// stored rows in commit order — filtered by a brute-force predicate. Every
// transaction-time read of RollbackStore and TemporalStore must return
// exactly those versions, in that order, whatever the seal threshold, and
// Versions() itself must not depend on the threshold (the default leaves
// these histories entirely in the row tail).

// sealThresholds are the TDB_SEGMENT_ROWS settings each property test runs
// under; "" is the default (no seal at these sizes).
var sealThresholds = []string{"", "2", "4"}

func allVersions(s Store) []Version {
	var out []Version
	s.Versions(func(v Version) bool { out = append(out, v); return true })
	return out
}

// keep returns, in commit order, the versions satisfying pred.
func keep(all []Version, pred func(Version) bool) []Version {
	var out []Version
	for _, v := range all {
		if pred(v) {
			out = append(out, v)
		}
	}
	return out
}

func render(vs []Version) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.String()
	}
	return out
}

func renderTuples(ts []tuple.Tuple) []string {
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = t.String()
	}
	return out
}

func dataOf(vs []Version) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.Data.String()
	}
	return out
}

func mustMatch(t *testing.T, what string, got, want []string) {
	t.Helper()
	if !equalStrings(got, want) {
		t.Fatalf("TDB_SEGMENT_ROWS=%q: %s:\n got %v\nwant %v", os.Getenv("TDB_SEGMENT_ROWS"), what, got, want)
	}
}

// rankFilter is the pushed-down pre-filter rank = v and its row-wise twin.
func rankFilter(t *testing.T, s Store, v string) ([]*segment.Filter, func(Version) bool) {
	t.Helper()
	f, ok := segment.NewEqFilter(s.Schema(), 1, value.NewString(v))
	if !ok {
		t.Fatal("rank filter rejected")
	}
	return []*segment.Filter{f}, func(ver Version) bool { return ver.Data[1].Str() == v }
}

// churn runs a seeded history of small transactions against s: each holds
// one to three ops from op, and one in five aborts — after which the stored
// rows must be exactly what they were before it began. Every 25th
// transaction commits a straggler: a key written once and never touched
// again, so that with a small seal threshold every few segments pin one
// current row among superseded ones.
func churn(t *testing.T, s appendOnly, r *rand.Rand, txns int, op func(at temporal.Chronon, i int), straggler func(at temporal.Chronon, i int)) (commits []temporal.Chronon) {
	t.Helper()
	at := temporal.Chronon(1000)
	for i := 0; i < txns; i++ {
		at += temporal.Chronon(r.Intn(3)) // ties: several transactions per chronon
		abort := r.Intn(5) == 0
		var before []string
		if abort {
			before = render(allVersions(s))
		}
		s.BeginTxn()
		if i%25 == 0 && !abort {
			straggler(at, i)
		}
		for n := 1 + r.Intn(3); n > 0; n-- {
			op(at, i)
		}
		if abort {
			s.AbortTxn()
			mustMatch(t, fmt.Sprintf("txn %d: stored rows after abort", i), render(allVersions(s)), before)
			continue
		}
		s.CommitTxn()
		commits = append(commits, at)
	}
	return commits
}

// probes spreads instants over the committed span, plus both outsides.
func probes(commits []temporal.Chronon) []temporal.Chronon {
	out := []temporal.Chronon{0, commits[0] - 1, commits[len(commits)-1] + 1, temporal.Forever - 1}
	for i := 0; i < len(commits); i += 7 {
		out = append(out, commits[i])
	}
	return out
}

// appendOnly is what the two append-only stores have in common.
type appendOnly interface {
	Store
	Transactional
	During(temporal.Interval) []Version
	ScanKey(uint64, func(Version) bool)
	SegmentStats() segment.Stats
	VersionCount() int
	CurrentCount() int
}

// checkShared holds the reads both stores spell the same way to the
// reference and returns it: Versions() must not depend on the seal threshold
// (*unsealed carries the default-threshold rendering from the first
// iteration to the sealed ones), the counters must agree with it, and During
// and ScanKey must return its matching versions in commit order.
func checkShared(t *testing.T, s appendOnly, rows string, commits []temporal.Chronon, unsealed *[]string) []Version {
	t.Helper()
	all := allVersions(s)
	if rows == "" {
		if n := s.SegmentStats().Segments; n != 0 {
			t.Fatalf("default threshold sealed %d segments", n)
		}
		*unsealed = render(all)
	} else {
		if s.SegmentStats().Segments < 20 {
			t.Fatalf("threshold %s sealed only %v", rows, s.SegmentStats())
		}
		mustMatch(t, "Versions() across the seal boundary", render(all), *unsealed)
	}
	if current := len(keep(all, Version.Current)); s.VersionCount() != len(all) || s.CurrentCount() != current {
		t.Fatalf("counters (%d, %d) disagree with %d stored / %d current",
			s.VersionCount(), s.CurrentCount(), len(all), current)
	}
	for _, at := range probes(commits) {
		for _, width := range []temporal.Chronon{1, 9, 200} {
			w := temporal.Interval{From: at, To: at + width}
			if !w.IsValid() {
				continue
			}
			mustMatch(t, fmt.Sprintf("During(%v)", w), render(s.During(w)),
				render(keep(all, func(v Version) bool { return v.Trans.Overlaps(w) })))
		}
	}
	for _, name := range []string{"a", "pin0", "pin100", "nobody"} {
		kh := nameKey(name).Hash64()
		var got []Version
		s.ScanKey(kh, func(v Version) bool { got = append(got, v); return true })
		mustMatch(t, "ScanKey("+name+")", render(got),
			render(keep(all, func(v Version) bool { return v.Data.Key(s.Schema()).Hash64() == kh })))
	}
	return all
}

func TestRollbackStoreMatchesReference(t *testing.T) {
	var unsealed []string // Versions() at the default threshold
	for _, rows := range sealThresholds {
		t.Setenv("TDB_SEGMENT_ROWS", rows)
		s := NewRollbackStore(facultySchema(t))
		r := rand.New(rand.NewSource(4))
		names := []string{"a", "b", "c", "d", "e"}
		commits := churn(t, s, r, 400, func(at temporal.Chronon, i int) {
			name := names[r.Intn(len(names))]
			var err error
			switch r.Intn(3) {
			case 0:
				err = s.Insert(fac(name, fmt.Sprint("r", i%4)), at)
			case 1:
				err = s.Delete(nameKey(name), at)
			default:
				err = s.Replace(nameKey(name), fac(name, fmt.Sprint("r", i%4)), at)
			}
			if err != nil && !errors.Is(err, ErrDuplicateKey) && !errors.Is(err, ErrNoSuchTuple) {
				t.Fatal(err)
			}
		}, func(at temporal.Chronon, i int) {
			if err := s.Insert(fac(fmt.Sprint("pin", i), "r0"), at); err != nil {
				t.Fatal(err)
			}
		})

		all := checkShared(t, s, rows, commits, &unsealed)

		filters, rankIs := rankFilter(t, s, "r1")
		for _, at := range probes(commits) {
			visible := keep(all, func(v Version) bool { return v.Trans.Contains(at) })
			mustMatch(t, fmt.Sprintf("AsOf(%v)", at), renderTuples(s.AsOf(at)), dataOf(visible))
			mustMatch(t, fmt.Sprintf("AsOfVersions(%v)", at), render(s.AsOfVersions(at)), render(visible))
			mustMatch(t, fmt.Sprintf("AsOfVersionsFiltered(%v)", at),
				render(s.AsOfVersionsFiltered(at, filters)), render(keep(visible, rankIs)))
		}
		mustMatch(t, "Snapshot", renderTuples(s.Snapshot(0)), dataOf(keep(all, Version.Current)))
	}
}

func TestTemporalStoreMatchesReference(t *testing.T) {
	var unsealed []string
	for _, rows := range sealThresholds {
		t.Setenv("TDB_SEGMENT_ROWS", rows)
		s := NewTemporalStore(facultySchema(t))
		r := rand.New(rand.NewSource(9))
		names := []string{"a", "b", "c", "d"}
		commits := churn(t, s, r, 200, func(at temporal.Chronon, i int) {
			name := names[r.Intn(len(names))]
			from := temporal.Chronon(r.Intn(80))
			valid := temporal.Interval{From: from, To: from + 1 + temporal.Chronon(r.Intn(40))}
			if r.Intn(4) == 0 {
				valid.To = temporal.Forever
			}
			var err error
			if r.Intn(3) > 0 {
				err = s.Assert(fac(name, fmt.Sprint("r", i%4)), valid, at)
			} else {
				err = s.Retract(nameKey(name), valid, at)
			}
			if err != nil && !errors.Is(err, ErrNoSuchTuple) {
				t.Fatal(err)
			}
		}, func(at temporal.Chronon, i int) {
			if err := s.Assert(fac(fmt.Sprint("pin", i), "r0"), temporal.Since(5), at); err != nil {
				t.Fatal(err)
			}
		})

		all := checkShared(t, s, rows, commits, &unsealed)

		filters, rankIs := rankFilter(t, s, "r1")
		for _, at := range probes(commits) {
			visible := keep(all, func(v Version) bool { return v.Trans.Contains(at) })
			mustMatch(t, fmt.Sprintf("AsOf(%v)", at), render(s.AsOf(at)), render(visible))
			mustMatch(t, fmt.Sprintf("AsOfFiltered(%v)", at),
				render(s.AsOfFiltered(at, filters)), render(keep(visible, rankIs)))
			for _, q := range []temporal.Interval{temporal.At(7), {From: 20, To: 60}, temporal.Since(100)} {
				overlapping := keep(visible, func(v Version) bool { return v.Valid.Overlaps(q) })
				mustMatch(t, fmt.Sprintf("When(%v, %v)", q, at), render(s.When(q, at)), render(overlapping))
				mustMatch(t, fmt.Sprintf("WhenFiltered(%v, %v)", q, at),
					render(s.WhenFiltered(q, at, filters)), render(keep(overlapping, rankIs)))
			}
			mustMatch(t, fmt.Sprintf("TimeSlice(7, %v)", at), renderTuples(s.TimeSlice(7, at)),
				dataOf(keep(visible, func(v Version) bool { return v.Valid.Contains(7) })))
		}
		for _, now := range []temporal.Chronon{7, 50, 500} {
			mustMatch(t, fmt.Sprintf("Snapshot(%v)", now), renderTuples(s.Snapshot(now)),
				dataOf(keep(all, func(v Version) bool { return v.Current() && v.Valid.Contains(now) })))
		}
	}
}
