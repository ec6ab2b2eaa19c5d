package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"tdb/internal/segment"
	"tdb/temporal"
)

// present is the twin's current belief as a kind without transaction time
// shows it: the universal transaction period.
func present(t *testing.T, twin *Store) []Version {
	t.Helper()
	vs := read(t, twin, ScanSpec{})
	for i := range vs {
		vs[i].Trans = temporal.All
	}
	return vs
}

// coalesced renders versions with the value-equivalent periods of each tuple
// merged, sorted: what a historical state says, whatever rows it is split
// into.
func coalesced(vs []Version) []string {
	byData := map[string][]temporal.Interval{}
	for _, v := range vs {
		byData[v.Data.String()] = append(byData[v.Data.String()], v.Valid)
	}
	var out []string
	for data, ivs := range byData {
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].From < ivs[j].From })
		merged := ivs[:1]
		for _, iv := range ivs[1:] {
			if u, ok := merged[len(merged)-1].Union(iv); ok {
				merged[len(merged)-1] = u
			} else {
				merged = append(merged, iv)
			}
		}
		for _, iv := range merged {
			out = append(out, data+" "+iv.String())
		}
	}
	sort.Strings(out)
	return out
}

// twinHistory drives a no-rollback store and its rollback twin through one
// seeded history: each step is a lone op or a transaction of one to three
// ops, one transaction in five aborted. op applies the same mutation to both
// and returns their errors, which must agree. After every step check holds
// the two to each other, and the no-rollback store's log holds at most twice
// its current rows plus settleSlack: no past is kept, and the history is long
// enough that the log is rebuilt.
func twinHistory(t *testing.T, s *Store, twin *Store, steps int, r *rand.Rand, op func(at temporal.Chronon, i int) (error, error), check func(step int)) {
	t.Helper()
	at, rebuilt, log := temporal.Chronon(1000), 0, s.log
	both := func(i int) {
		at++
		if err, twinErr := op(at, i); !errors.Is(err, twinErr) && !errors.Is(twinErr, err) {
			t.Fatalf("step %d: error %v, twin %v", i, err, twinErr)
		}
	}
	for i := 0; i < steps; i++ {
		if r.Intn(3) == 0 {
			both(i)
		} else {
			s.BeginTxn()
			twin.BeginTxn()
			for n := 1 + r.Intn(3); n > 0; n-- {
				both(i)
			}
			if r.Intn(5) == 0 {
				s.AbortTxn()
				twin.AbortTxn()
			} else {
				s.CommitTxn()
				twin.CommitTxn()
			}
		}
		check(i)
		if live := s.CurrentCount(); s.log.Len() > 2*live+settleSlack || s.VersionCount() != live {
			t.Fatalf("step %d: log of %d rows, %d stored, for %d current", i, s.log.Len(), s.VersionCount(), live)
		}
		if s.log != log {
			rebuilt, log = rebuilt+1, s.log
		}
	}
	if rebuilt == 0 {
		t.Fatalf("%d steps never rebuilt the log", steps)
	}
}

// Each kind without rollback is the current state of its rollback twin
// (§4.1–§4.4): a static relation is the latest state of a static rollback
// one, a historical relation the latest historical state of a temporal one.
// Run at every seal threshold, so dropped rows are sealed, pruned and
// rebuilt away.
func TestNoPastIsRollbackTwinsPresent(t *testing.T) {
	old := segment.SealRows
	t.Cleanup(func() { segment.SealRows = old })
	names := make([]string, 12)
	for i := range names {
		names[i] = fmt.Sprint("e", i)
	}
	for _, rows := range sealThresholds {
		segment.SealRows = rows
		t.Run(fmt.Sprint("static/seal=", rows), func(t *testing.T) {
			s, twin := New(Static, refSchema(t), false), New(StaticRollback, refSchema(t), false)
			r := rand.New(rand.NewSource(int64(rows)))
			twinHistory(t, s, twin, 1500, r, func(at temporal.Chronon, i int) (error, error) {
				key := nameKey(names[r.Intn(len(names))])
				row := refRow(names[r.Intn(len(names))], i)
				switch r.Intn(4) {
				case 0:
					return s.Insert(row, at), twin.Insert(row, at)
				case 1:
					return s.Delete(key, at), twin.Delete(key, at)
				default:
					return s.Replace(key, row, at), twin.Replace(key, row, at)
				}
			}, func(step int) {
				mustMatch(t, fmt.Sprint("step ", step, ": Versions()"), render(allVersions(s)), render(present(t, twin)))
			})
		})
		t.Run(fmt.Sprint("historical/seal=", rows), func(t *testing.T) {
			s, twin := New(Historical, refSchema(t), false), New(Temporal, refSchema(t), false)
			r := rand.New(rand.NewSource(int64(rows)))
			twinHistory(t, s, twin, 1500, r, func(at temporal.Chronon, i int) (error, error) {
				name := names[r.Intn(len(names)/3)]
				from := temporal.Chronon(r.Intn(100))
				valid := temporal.Interval{From: from, To: from + 1 + temporal.Chronon(r.Intn(30))}
				if r.Intn(8) == 0 {
					valid.To = temporal.Forever
				}
				if r.Intn(2) == 0 {
					return s.Retract(nameKey(name), valid, at), twin.Retract(nameKey(name), valid, at)
				}
				row := refRow(name, r.Intn(2))
				return s.Assert(row, valid, at), twin.Assert(row, valid, at)
			}, func(step int) {
				got := allVersions(s)
				mustMatch(t, fmt.Sprint("step ", step, ": Versions()"), coalesced(got), coalesced(present(t, twin)))
				// The store coalesces as it goes: no two of its rows merge.
				var split []string
				for _, v := range got {
					split = append(split, v.Data.String()+" "+v.Valid.String())
				}
				sort.Strings(split)
				mustMatch(t, fmt.Sprint("step ", step, ": coalescing"), split, coalesced(got))
			})
		})
	}
}
