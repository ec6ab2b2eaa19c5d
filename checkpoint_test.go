package tdb

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"tdb/internal/obs"
	"tdb/internal/segment"
	"tdb/internal/stats"
	"tdb/internal/wal"
	"tdb/temporal"
)

// stateDigest captures everything observable about a database, for
// before/after-recovery comparison.
func stateDigest(t *testing.T, db *DB) []string {
	t.Helper()
	var out []string
	for _, name := range db.Relations() {
		rel, err := db.Relation(name)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, "rel:"+name+":"+rel.Kind().String())
		for _, v := range rel.Versions() {
			out = append(out, name+":"+v.String())
		}
	}
	sort.Strings(out)
	return out
}

func digestsEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// buildMixedDB populates one relation of every kind through dated history.
func buildMixedDB(t *testing.T, db *DB) {
	t.Helper()
	sch := facultySchema(t)
	for _, k := range []Kind{Static, StaticRollback, Historical, Temporal} {
		if _, err := db.CreateRelation("r_"+k.String(), k, sch); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.CreateEventRelation("r_events", Temporal, sch); err != nil {
		t.Fatal(err)
	}
	for i, at := range []temporal.Chronon{d770825, d821201, d821215} {
		rank := []string{"a", "b", "c"}[i]
		if err := db.UpdateAt(at, func(tx *Tx) error {
			for _, k := range []Kind{Static, StaticRollback} {
				h, _ := tx.Rel("r_" + k.String())
				tup := fac("X", rank)
				if err := h.Insert(tup); errors.Is(err, ErrDuplicateKey) {
					if err := h.Replace(Key(String("X")), tup); err != nil {
						return err
					}
				} else if err != nil {
					return err
				}
			}
			for _, k := range []Kind{Historical, Temporal} {
				h, _ := tx.Rel("r_" + k.String())
				if err := h.Assert(fac("X", rank), at, temporal.Forever); err != nil {
					return err
				}
			}
			ev, _ := tx.Rel("r_events")
			return ev.AssertAt(fac("X", rank), at)
		}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tdb.wal")
	db := reopen(t, path)
	buildMixedDB(t, db)
	before := stateDigest(t, db)

	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// The log is now empty; the snapshot holds everything.
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != 0 {
		t.Errorf("log not truncated: %d bytes", fi.Size())
	}
	if _, err := os.Stat(path + ".snap"); err != nil {
		t.Fatalf("snapshot missing: %v", err)
	}
	// State unchanged in the live database.
	if got := stateDigest(t, db); !digestsEqual(before, got) {
		t.Fatal("checkpoint changed live state")
	}
	db.Close()

	db2 := reopen(t, path)
	if got := stateDigest(t, db2); !digestsEqual(before, got) {
		t.Fatalf("state after snapshot recovery differs:\nbefore %v\nafter  %v", before, got)
	}
	// Rollback still reaches pre-checkpoint history: as of 12/10/82 the
	// belief was "a until 12/01/82, then b".
	rel, _ := db2.Relation("r_temporal")
	at := d821210
	vs, err := rel.Scan(ScanSpec{AsOf: &at})
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 2 {
		t.Fatalf("as of 12/10/82 after checkpoint recovery: %v", vs)
	}
	current := ""
	for _, v := range vs {
		if v.Valid.Overlaps(temporal.At(d821210)) {
			current = v.Data[1].Str()
		}
	}
	if current != "b" {
		t.Fatalf("belief at 12/10/82 = %q, want b (%v)", current, vs)
	}
}

func TestCheckpointThenMoreWrites(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tdb.wal")
	db := reopen(t, path)
	buildMixedDB(t, db)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint writes land in the fresh log.
	rel, _ := db.Relation("r_temporal")
	if err := db.UpdateAt(d840225, func(tx *Tx) error {
		h, _ := tx.Rel("r_temporal")
		return h.Assert(fac("Y", "new"), d840301, temporal.Forever)
	}); err != nil {
		t.Fatal(err)
	}
	_ = rel
	before := stateDigest(t, db)
	db.Close()

	db2 := reopen(t, path)
	if got := stateDigest(t, db2); !digestsEqual(before, got) {
		t.Fatalf("snapshot+suffix recovery differs:\nbefore %v\nafter  %v", before, got)
	}
}

func TestCheckpointRepeatedly(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tdb.wal")
	db := reopen(t, path)
	buildMixedDB(t, db)
	for i := 0; i < 3; i++ {
		if err := db.Checkpoint(); err != nil {
			t.Fatalf("checkpoint %d: %v", i, err)
		}
		at := temporal.Date(1990+i, 1, 1)
		if err := db.UpdateAt(at, func(tx *Tx) error {
			h, _ := tx.Rel("r_historical")
			return h.Assert(fac("Z", string(rune('a'+i))), at, temporal.Forever)
		}); err != nil {
			t.Fatal(err)
		}
	}
	before := stateDigest(t, db)
	db.Close()
	db2 := reopen(t, path)
	if got := stateDigest(t, db2); !digestsEqual(before, got) {
		t.Fatal("repeated checkpoint recovery differs")
	}
}

// Crash window: snapshot written, log NOT truncated (the pre-normalization
// snapshot still counts the covered prefix). Recovery must not double-apply.
func TestCheckpointCrashBeforeTruncate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tdb.wal")
	db := reopen(t, path)
	buildMixedDB(t, db)
	before := stateDigest(t, db)

	// Simulate the crash by writing the snapshot exactly as Checkpoint
	// does (next epoch, covering the whole log), then *not* truncating.
	snap := wal.Snapshot{LastCommit: temporal.Chronon(db.last.Load()), Epoch: db.epoch + 1, Records: db.log.Records()}
	for _, name := range db.names() {
		rel := db.rels[name]
		rs := wal.RelationSnapshot{Name: name, Kind: rel.Kind(), Event: rel.Event(), Schema: rel.Schema(),
			Stats: stats.EncodeRel(rel.stats)}
		rel.store.Versions(func(v Version) bool {
			rs.Versions = append(rs.Versions, v)
			return true
		})
		snap.Relations = append(snap.Relations, rs)
	}
	if err := wal.WriteSnapshot(nil, path+".snap", snap); err != nil {
		t.Fatal(err)
	}
	db.Close()

	db2 := reopen(t, path)
	if got := stateDigest(t, db2); !digestsEqual(before, got) {
		t.Fatalf("recovery double-applied the covered prefix:\nbefore %v\nafter  %v", before, got)
	}
	// And it keeps working: more writes, another reopen.
	if err := db2.UpdateAt(temporal.Date(1995, 1, 1), func(tx *Tx) error {
		h, _ := tx.Rel("r_historical")
		return h.Assert(fac("W", "w"), temporal.Date(1995, 1, 1), temporal.Forever)
	}); err != nil {
		t.Fatal(err)
	}
	before2 := stateDigest(t, db2)
	db2.Close()
	db3 := reopen(t, path)
	if got := stateDigest(t, db3); !digestsEqual(before2, got) {
		t.Fatal("post-crash-recovery writes lost")
	}
}

// Crash window: log truncated but snapshot still says Records=N (crash
// between truncate and normalization). Recovery must skip nothing, then
// post-recovery writes must survive another reopen (the stale Records
// field is normalized away).
func TestCheckpointCrashAfterTruncate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tdb.wal")
	db := reopen(t, path)
	buildMixedDB(t, db)
	before := stateDigest(t, db)
	records := db.log.Records()

	snap := wal.Snapshot{LastCommit: temporal.Chronon(db.last.Load()), Epoch: db.epoch + 1, Records: records}
	for _, name := range db.names() {
		rel := db.rels[name]
		rs := wal.RelationSnapshot{Name: name, Kind: rel.Kind(), Event: rel.Event(), Schema: rel.Schema(),
			Stats: stats.EncodeRel(rel.stats)}
		rel.store.Versions(func(v Version) bool {
			rs.Versions = append(rs.Versions, v)
			return true
		})
		snap.Relations = append(snap.Relations, rs)
	}
	if err := wal.WriteSnapshot(nil, path+".snap", snap); err != nil {
		t.Fatal(err)
	}
	db.Close()
	// Truncate the log "by hand" (the crash happened before normalization).
	if err := os.Truncate(path, 0); err != nil {
		t.Fatal(err)
	}

	db2 := reopen(t, path)
	if got := stateDigest(t, db2); !digestsEqual(before, got) {
		t.Fatal("recovery after truncate-crash differs")
	}
	// Fewer than Records new writes, then reopen: they must NOT be skipped.
	if err := db2.UpdateAt(temporal.Date(1995, 1, 1), func(tx *Tx) error {
		h, _ := tx.Rel("r_historical")
		return h.Assert(fac("V", "v"), temporal.Date(1995, 1, 1), temporal.Forever)
	}); err != nil {
		t.Fatal(err)
	}
	before2 := stateDigest(t, db2)
	db2.Close()
	db3 := reopen(t, path)
	if got := stateDigest(t, db3); !digestsEqual(before2, got) {
		t.Fatal("write after truncate-crash was skipped on recovery")
	}
}

// segCount returns the number of sealed segments behind a relation.
func segCount(t *testing.T, db *DB, name string) int {
	t.Helper()
	rel, ok := db.rels[name]
	if !ok {
		t.Fatalf("no relation %q", name)
	}
	return rel.store.SegmentStats().Segments
}

// buildSealedDB writes enough versions through tiny seal thresholds that
// both append-only relations hold sealed segments plus a non-empty tail.
func buildSealedDB(t *testing.T, db *DB) {
	t.Helper()
	sch := facultySchema(t)
	if _, err := db.CreateRelation("r_temporal", Temporal, sch); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateRelation("r_rollback", StaticRollback, sch); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 11; i++ {
		at := temporal.Date(1982, 1, 1+i)
		if err := db.UpdateAt(at, func(tx *Tx) error {
			h, _ := tx.Rel("r_temporal")
			if err := h.Assert(fac("X", string(rune('a'+i))), at, temporal.Forever); err != nil {
				return err
			}
			r, _ := tx.Rel("r_rollback")
			tup := fac("X", string(rune('a'+i)))
			if err := r.Insert(tup); errors.Is(err, ErrDuplicateKey) {
				return r.Replace(Key(String("X")), tup)
			} else if err != nil {
				return err
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// Stats (one call per /statz scrape) and VersionCount read the stores'
// counters: over sealed history they must not build a single tuple from the
// columns — the Versions walk they replaced builds every one — and must still
// report what that walk counted.
func TestStatsLeavesSegmentsUnmaterialized(t *testing.T) {
	sealEvery(t, 4)
	path := filepath.Join(t.TempDir(), "tdb.wal")
	db := reopen(t, path)
	buildSealedDB(t, db)
	for _, k := range []Kind{Static, Historical} { // the kinds without a log count too
		if _, err := db.CreateRelation("r_"+k.String(), k, facultySchema(t)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Update(func(tx *Tx) error {
		st, _ := tx.Rel("r_static")
		if err := st.Insert(fac("S", "s")); err != nil {
			return err
		}
		h, _ := tx.Rel("r_historical")
		return h.Assert(fac("H", "h"), temporal.Date(1980, 1, 1), temporal.Date(1981, 1, 1))
	}); err != nil {
		t.Fatal(err)
	}
	// Reopen from a checkpoint so the segments come back with cold caches.
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	db.Close()
	db = reopen(t, path)

	materialized := obs.Default.Counter("tdb_segment_rows_materialized_total", "")
	before := materialized.Value()
	st := db.Stats()
	counts := map[string]int{}
	for _, name := range db.Relations() {
		rel, _ := db.Relation(name)
		counts[name] = rel.VersionCount()
	}
	if st.SealedRows == 0 {
		t.Fatal("fixture sealed nothing")
	}
	if n := materialized.Value() - before; n != 0 {
		t.Fatalf("Stats/VersionCount materialized %d of %d sealed rows", n, st.SealedRows)
	}

	// The walk the counters replace.
	var versions, current int
	for _, name := range db.Relations() {
		rel, _ := db.Relation(name)
		vs := rel.Versions()
		if counts[name] != len(vs) {
			t.Errorf("%s: VersionCount = %d, walk finds %d", name, counts[name], len(vs))
		}
		versions += len(vs)
		for _, v := range vs {
			if v.Current() {
				current++
			}
		}
	}
	if st.Versions != versions || st.CurrentVersions != current {
		t.Fatalf("Stats counts (%d, %d current) differ from the walk (%d, %d current)",
			st.Versions, st.CurrentVersions, versions, current)
	}
	if n := materialized.Value() - before; n < uint64(st.SealedRows) {
		t.Fatalf("the reference walk materialized %d of %d sealed rows; the probe is blind", n, st.SealedRows)
	}
}

// A checkpoint of a segmented store ships sealed segments as columnar
// blocks; recovery must reattach them and produce the same observable state
// the same history has when it never seals at all.
func TestCheckpointSegmentedRoundTrip(t *testing.T) {
	// At the default threshold these eleven versions stay in the tail.
	unsealed := memDB(t)
	buildSealedDB(t, unsealed)
	if n := segCount(t, unsealed, "r_temporal"); n != 0 {
		t.Fatalf("default threshold sealed %d segments", n)
	}
	sealEvery(t, 4)
	path := filepath.Join(t.TempDir(), "tdb.wal")
	db := reopen(t, path)
	buildSealedDB(t, db)
	if n := segCount(t, db, "r_temporal"); n == 0 {
		t.Fatal("no sealed segments before checkpoint; threshold knob inert")
	}
	before := stateDigest(t, db)
	if want := stateDigest(t, unsealed); !digestsEqual(want, before) {
		t.Fatalf("sealing changed the observable state:\nunsealed %v\nsealed   %v", want, before)
	}

	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := stateDigest(t, db); !digestsEqual(before, got) {
		t.Fatal("checkpoint changed live state")
	}
	db.Close()

	db2 := reopen(t, path)
	if got := stateDigest(t, db2); !digestsEqual(before, got) {
		t.Fatalf("segmented recovery differs:\nbefore %v\nafter  %v", before, got)
	}
	if n := segCount(t, db2, "r_temporal"); n == 0 {
		t.Fatal("recovery flattened the segments")
	}
	if n := segCount(t, db2, "r_rollback"); n == 0 {
		t.Fatal("recovery flattened the rollback segments")
	}
	// Post-restore writes land in the tail behind the reattached segments
	// and survive another reopen.
	at := temporal.Date(1983, 6, 1)
	if err := db2.UpdateAt(at, func(tx *Tx) error {
		h, _ := tx.Rel("r_temporal")
		return h.Assert(fac("Y", "new"), at, temporal.Forever)
	}); err != nil {
		t.Fatal(err)
	}
	before2 := stateDigest(t, db2)
	db2.Close()
	db3 := reopen(t, path)
	if got := stateDigest(t, db3); !digestsEqual(before2, got) {
		t.Fatal("post-restore writes lost after segmented recovery")
	}
	db3.Close()
}

func TestCheckpointInMemoryFails(t *testing.T) {
	db := memDB(t)
	if err := db.Checkpoint(); err == nil {
		t.Fatal("in-memory checkpoint must fail")
	}
}

func TestCorruptSnapshotSurfaces(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tdb.wal")
	db := reopen(t, path)
	buildMixedDB(t, db)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	db.Close()
	data, err := os.ReadFile(path + ".snap")
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path+".snap", data, 0o644); err != nil {
		t.Fatal(err)
	}
	// The log is empty after the checkpoint, so nothing can prove which era
	// the fallback belongs to: the open must fail rather than guess, and the
	// error must match both the exported sentinel and the internal cause.
	_, err = Open(path, Options{})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt snapshot: want ErrCorrupt, got %v", err)
	}
	if !errors.Is(err, wal.ErrSnapshotCorrupt) {
		t.Fatalf("corrupt snapshot: cause lost from chain: %v", err)
	}
}

// A relation's (created, changed) stamps drive query-cache invalidation. A
// checkpoint is not a write, so it must move neither.
func TestCheckpointMovesNoStamps(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tdb.wal")
	db := reopen(t, path)
	defer db.Close()
	buildMixedDB(t, db)

	type stamps struct{ created, changed uint64 }
	want := map[string]stamps{}
	for _, name := range db.Relations() {
		rel, err := db.Relation(name)
		if err != nil {
			t.Fatal(err)
		}
		created, changed := rel.Seq()
		if changed <= created {
			t.Errorf("relation %s: not stamped changed after writes (%d, %d)", name, created, changed)
		}
		want[name] = stamps{created, changed}
	}

	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for _, name := range db.Relations() {
		rel, _ := db.Relation(name)
		if created, changed := rel.Seq(); (stamps{created, changed}) != want[name] {
			t.Errorf("relation %s: checkpoint moved stamps %v -> %v", name, want[name], stamps{created, changed})
		}
	}
}

// A kind that keeps no past checkpoints its present alone. After 100 000
// static replaces over 1 000 keys and a carve-heavy historical history,
// sealed and rebuilt on the way, the snapshot holds exactly the current rows,
// row by row and in no segment, and reopening restores them.
func TestCheckpointKeepsNoPast(t *testing.T) {
	sealEvery(t, 64)
	path := filepath.Join(t.TempDir(), "tdb.wal")
	db := reopen(t, path)
	sch := facultySchema(t)
	for _, k := range []Kind{Static, Historical} {
		if _, err := db.CreateRelation(k.String(), k, sch); err != nil {
			t.Fatal(err)
		}
	}
	const keys, replaces, perTxn = 1000, 100_000, 500
	name := func(i int) string { return fmt.Sprint("k", i%keys) }
	r := rand.New(rand.NewSource(7))
	for i := 0; i < keys+replaces; i += perTxn { // keys inserts, then the replaces
		if err := db.Update(func(tx *Tx) error {
			st, _ := tx.Rel("static")
			hs, _ := tx.Rel("historical")
			for j := i; j < i+perTxn; j++ {
				rank := fmt.Sprint("r", j)
				if j < keys {
					if err := st.Insert(fac(name(j), rank)); err != nil {
						return err
					}
				} else if err := st.Replace(Key(String(name(j))), fac(name(j), rank)); err != nil {
					return err
				}
				if j%20 != 0 {
					continue
				}
				key, from := fmt.Sprint("h", r.Intn(50)), temporal.Chronon(r.Intn(1000))
				if r.Intn(2) == 0 {
					if err := hs.Assert(fac(key, fmt.Sprint(r.Intn(2))), from, from+1+temporal.Chronon(r.Intn(200))); err != nil {
						return err
					}
				} else if err := hs.Retract(Key(String(key)), from, from+1+temporal.Chronon(r.Intn(50))); err != nil && !errors.Is(err, ErrNoSuchTuple) {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	before := stateDigest(t, db)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	snap, ok, err := wal.ReadSnapshot(nil, path+".snap")
	if !ok || err != nil {
		t.Fatalf("reading the snapshot: %v, %v", ok, err)
	}
	for _, rs := range snap.Relations {
		rel, err := db.Relation(rs.Name)
		if err != nil {
			t.Fatal(err)
		}
		live := rel.Versions()
		if rs.Name == "static" && len(live) != keys {
			t.Fatalf("static holds %d current rows, want %d", len(live), keys)
		}
		if len(rs.Segments) != 0 || len(rs.Versions) != len(live) {
			t.Fatalf("%s: snapshot of %d segments and %d rows, want %d current rows",
				rs.Name, len(rs.Segments), len(rs.Versions), len(live))
		}
		for i, v := range rs.Versions {
			if v.String() != live[i].String() {
				t.Fatalf("%s row %d: snapshot %v, live %v", rs.Name, i, v, live[i])
			}
		}
	}
	db.Close()
	if got := stateDigest(t, reopen(t, path)); !digestsEqual(before, got) {
		t.Fatalf("reopened:\nbefore %v\nafter  %v", before, got)
	}
}

// sealEvery lowers the seal threshold of the logs created during the test
// to n rows, restoring it on cleanup.
func sealEvery(t testing.TB, n int) {
	t.Helper()
	old := segment.SealRows
	segment.SealRows = n
	t.Cleanup(func() { segment.SealRows = old })
}
