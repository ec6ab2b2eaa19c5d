package core

import (
	"fmt"
	"runtime"
	"testing"

	"tdb/internal/tuple"
	"tdb/temporal"
)

// liveHeap is the heap in use after two collections.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// A relation whose keys churn pays for the keys it holds, not for every key
// it ever held: 200 000 entities pass through a static and a historical
// relation, at most 1 000 of them present at once, and what the two stores
// keep is a few hundred bytes a row. (The index this replaced kept a 40-byte
// bucket per distinct key for ever — 2¹⁹ of them here, 20 MB a store.)
func TestKeyIndexFollowsLiveCount(t *testing.T) {
	const live, churn, limit = 1000, 200_000, 1 << 20
	name := func(i int) string { return fmt.Sprintf("e%07d", i) }

	before := liveHeap()
	st := New(Static, facultySchema(t), false)
	hs := New(Historical, facultySchema(t), false)
	for i := 0; i < churn; i++ {
		if err := st.Insert(fac(name(i), "x"), noPast); err != nil {
			t.Fatal(err)
		}
		if err := hs.Assert(fac(name(i), "x"), temporal.Since(temporal.Chronon(i)), noPast); err != nil {
			t.Fatal(err)
		}
		if i >= live {
			if err := st.Delete(nameKey(name(i-live)), noPast); err != nil {
				t.Fatal(err)
			}
			if err := hs.Retract(nameKey(name(i-live)), temporal.All, noPast); err != nil {
				t.Fatal(err)
			}
		}
	}
	if st.VersionCount() != live || hs.VersionCount() != live {
		t.Fatalf("live counts %d and %d, want %d", st.VersionCount(), hs.VersionCount(), live)
	}
	if held := int64(liveHeap()) - int64(before); held > limit {
		t.Errorf("two stores of %d rows hold %d bytes after %d keys, want at most %d", live, held, churn, limit)
	}
	if _, ok := get(t, st, nameKey(name(churn-1))); !ok {
		t.Error("static: the last key inserted is not found")
	}
	if len(history(t, hs, nameKey(name(churn-live)))) != 1 || len(history(t, hs, nameKey(name(0)))) != 0 {
		t.Error("historical: the index lost a live key or kept a retracted one")
	}
}

// A bulk path that knows its row count sizes the key index once. Reattaching
// a checkpoint segment allocates the index's two arrays and the log's segment
// list and nothing else — growth by doubling rebuilt the table a dozen times
// on the way to 4 000 current rows — and a store told a Load chunk's size
// spares it the same rebuilds.
func TestBulkPathsSizeKeyIndexOnce(t *testing.T) {
	const n = 5000
	src := New(Temporal, facultySchema(t), false)
	for i := 0; i < n; i++ {
		if err := src.Assert(fac(fmt.Sprintf("e%05d", i), "x"), temporal.Since(10), temporal.Chronon(100+i)); err != nil {
			t.Fatal(err)
		}
		if i%5 == 0 { // a fifth of the versions are superseded: not indexed on reload
			if err := src.Retract(nameKey(fmt.Sprintf("e%05d", i)), temporal.All, temporal.Chronon(100+i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	src.log.SealNow()
	dst := New(Temporal, facultySchema(t), false)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	blocks, tail := src.Blocks()
	if err := dst.Restore(blocks, tail); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	if got := m1.Mallocs - m0.Mallocs; got > 4 {
		t.Errorf("reattaching one segment of %d current rows allocated %d times, want at most 4", src.CurrentCount(), got)
	}
	if dst.CurrentCount() != src.CurrentCount() || dst.LastCommit() != src.LastCommit() {
		t.Fatalf("reload: %d current versions as of %v, source has %d as of %v",
			dst.CurrentCount(), dst.LastCommit(), src.CurrentCount(), src.LastCommit())
	}

	rows := make([]tuple.Tuple, n)
	for i := range rows {
		rows[i] = fac(fmt.Sprint(i), "x")
	}
	for _, fresh := range []func() (*Store, func(tuple.Tuple) error){
		func() (*Store, func(tuple.Tuple) error) {
			s := New(Static, facultySchema(t), false)
			return s, func(r tuple.Tuple) error { return s.Insert(r, noPast) }
		},
		func() (*Store, func(tuple.Tuple) error) {
			s := New(StaticRollback, facultySchema(t), false)
			return s, func(r tuple.Tuple) error { return s.Insert(r, 100) }
		},
		func() (*Store, func(tuple.Tuple) error) {
			s := New(Historical, facultySchema(t), false)
			return s, func(r tuple.Tuple) error { return s.Assert(r, temporal.Since(10), noPast) }
		},
		func() (*Store, func(tuple.Tuple) error) {
			s := New(Temporal, facultySchema(t), false)
			return s, func(r tuple.Tuple) error { return s.Assert(r, temporal.Since(10), 100) }
		},
	} {
		// The same load into two fresh stores, the second told its size: the
		// difference is the index's growth, some ten tables and a dozen arenas.
		var mallocs [2]uint64
		var kind Kind
		for reserve := range mallocs {
			s, add := fresh()
			kind = s.Kind()
			runtime.ReadMemStats(&m0)
			if reserve == 1 {
				s.Reserve(n)
			}
			for _, r := range rows {
				if err := add(r); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&m1)
			mallocs[reserve] = m1.Mallocs - m0.Mallocs
		}
		if mallocs[1]+10 > mallocs[0] {
			t.Errorf("%v: loading %d rows allocated %d times after Reserve, %d times without", kind, n, mallocs[1], mallocs[0])
		}
	}
}
