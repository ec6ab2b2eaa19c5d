package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"tdb/temporal"
)

// fingerprint captures the externally observable state of a store: every
// version plus snapshots and rollbacks at many probe instants.
func fingerprint(s txnStore, probes []temporal.Chronon) []string {
	var out []string
	s.Versions(func(v Version) bool {
		out = append(out, "v:"+v.String())
		return true
	})
	for _, p := range probes {
		st, ok := s.(*Store)
		if !ok { // the copy baseline answers rollback only
			for _, t := range s.(*CopyRollbackStore).AsOf(p) {
				out = append(out, fmt.Sprintf("a%v:%v", p, t))
			}
			continue
		}
		observe := func(tag string, spec ScanSpec) {
			if err := st.Read(spec, func(v Version) bool {
				out = append(out, fmt.Sprintf("%s%v:%v", tag, p, v))
				return true
			}); err != nil {
				panic(err)
			}
		}
		observe("s", whenAt(p))
		if st.Kind().SupportsRollback() {
			observe("a", asOf(p))
		}
	}
	// Index-backed enumeration order (treap shape) may legitimately differ
	// after undo; only the set of observations matters.
	sort.Strings(out)
	return out
}

// randomOp applies one random (possibly failing) mutation appropriate to
// the store kind.
func randomOp(r *rand.Rand, s txnStore, clock *temporal.TickingClock, i int) {
	names := []string{"a", "b", "c", "d"}
	name := names[r.Intn(len(names))]
	data := fac(name, fmt.Sprint(i%4))
	key := nameKey(name)
	from := temporal.Chronon(r.Intn(60))
	valid := temporal.Interval{From: from, To: from + 1 + temporal.Chronon(r.Intn(30))}
	at := clock.Now()
	if st, ok := s.(*Store); ok && st.Kind().SupportsHistorical() {
		if r.Intn(3) > 0 {
			_ = st.Assert(data, valid, at)
		} else {
			_ = st.Retract(key, valid, at)
		}
		return
	}
	st := s.(rollbackOps)
	switch r.Intn(3) {
	case 0:
		_ = st.Insert(data, at)
	case 1:
		_ = st.Delete(key, at)
	default:
		_ = st.Replace(key, data, at)
	}
}

// txnStore is what the abort property needs of a store — the four kinds and
// the copy baseline alike.
type txnStore interface {
	Versions(fn func(Version) bool)
	BeginTxn()
	CommitTxn()
	AbortTxn()
}

// TestAbortRestoresState: for every store kind, a random prefix of
// committed work followed by an aborted transaction of random work must
// leave the store observably identical to the pre-transaction state —
// and a committed transaction must keep its effects.
func TestAbortRestoresState(t *testing.T) {
	makeStores := func(t *testing.T) map[string]txnStore {
		return map[string]txnStore{
			"static":     New(Static, facultySchema(t), false),
			"rollback":   New(StaticRollback, facultySchema(t), false),
			"copy":       NewCopyRollbackStore(facultySchema(t)),
			"historical": New(Historical, facultySchema(t), false),
			"temporal":   New(Temporal, facultySchema(t), false),
		}
	}
	var probes []temporal.Chronon
	for p := temporal.Chronon(0); p < 3000; p += 97 {
		probes = append(probes, p)
	}
	for name, s := range makeStores(t) {
		t.Run(name, func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(len(name))))
			clock := temporal.NewTickingClock(100)
			for trial := 0; trial < 20; trial++ {
				// Committed prefix.
				for i := 0; i < 10; i++ {
					randomOp(r, s, clock, i)
				}
				before := fingerprint(s, probes)

				// Aborted transaction.
				s.BeginTxn()
				for i := 0; i < 15; i++ {
					randomOp(r, s, clock, i+100)
				}
				s.AbortTxn()
				after := fingerprint(s, probes)
				if !equalStrings(before, after) {
					t.Fatalf("trial %d: abort did not restore state:\nbefore %v\nafter  %v",
						trial, before, after)
				}

				// Committed transaction keeps effects and can be fingerprinted.
				s.BeginTxn()
				for i := 0; i < 5; i++ {
					randomOp(r, s, clock, i+200)
				}
				s.CommitTxn()
			}
		})
	}
}

func TestNestedTxnPanics(t *testing.T) {
	s := New(Static, facultySchema(t), false)
	s.BeginTxn()
	defer func() {
		if recover() == nil {
			t.Fatal("nested BeginTxn must panic")
		}
	}()
	s.BeginTxn()
}

// TestJournalLetsGoOfClosures: once a transaction commits or aborts, the
// undo array holds no closure. Each one captures what its mutation touched,
// and a large transaction's would otherwise stay reachable until later ones
// overwrote them.
func TestJournalLetsGoOfClosures(t *testing.T) {
	for _, end := range []struct {
		name string
		fn   func(*journal)
	}{{"commit", (*journal).commit}, {"abort", (*journal).abort}} {
		var j journal
		j.begin()
		for range 5 {
			j.record(func() {})
		}
		end.fn(&j)
		for i, fn := range j.undo[:cap(j.undo)] {
			if fn != nil {
				t.Errorf("after %s: undo slot %d still holds a closure", end.name, i)
			}
		}
	}
}
