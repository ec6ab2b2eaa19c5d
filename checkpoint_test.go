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
		for _, v := range mustScan(t, rel, ScanSpec{AllVersions: true}) {
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

// lockedSnapshot is the snapshot Checkpoint would write now, built by the
// function Checkpoint builds it with, under the lock Checkpoint holds.
func lockedSnapshot(db *DB) wal.Snapshot {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.snapshot()
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
	if err := wal.WriteSnapshot(nil, path+".snap", lockedSnapshot(db)); err != nil {
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
	if snap := lockedSnapshot(db); snap.Records == 0 {
		t.Fatal("the fixture logged nothing")
	} else if err := wal.WriteSnapshot(nil, path+".snap", snap); err != nil {
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
		vs := mustScan(t, rel, ScanSpec{AllVersions: true})
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

// matrixShapes is every kind × class of the taxonomy's matrix.
var matrixShapes = []relShape{
	{"static", Static, false},
	{"rollback", StaticRollback, false},
	{"historical", Historical, false},
	{"historical-event", Historical, true},
	{"temporal", Temporal, false},
	{"temporal-event", Temporal, true},
}

// layoutOf is the part of Stats that says how the rows lie in segments.
func layoutOf(st Stats) [3]int { return [3]int{st.Segments, st.SealedRows, st.TailRows} }

// A checkpoint writes every relation, whatever its kind, as its sealed
// segments and its open one. Reopening from it restores the layout the live
// database had after the checkpoint and its observable state, at the default
// seal threshold and at 4; a kind that keeps no past writes exactly its
// current rows.
func TestCheckpointLayoutRoundTrip(t *testing.T) {
	for _, seal := range []int{segment.DefaultSealRows, 4} {
		t.Run(fmt.Sprint("seal=", seal), func(t *testing.T) {
			sealEvery(t, seal)
			path := filepath.Join(t.TempDir(), "tdb.wal")
			db := reopen(t, path)
			for _, s := range matrixShapes {
				mk := db.CreateRelation
				if s.event {
					mk = db.CreateEventRelation
				}
				if _, err := mk(s.name, s.kind, facultySchema(t)); err != nil {
					t.Fatal(err)
				}
			}
			for i := range 30 {
				at := temporal.Chronon(100 + 10*i)
				name, rank := []string{"A", "B", "C", "D", "E"}[i%5], fmt.Sprint("r", i)
				key := Key(String(name))
				if err := db.UpdateAt(at, func(tx *Tx) error {
					for _, s := range matrixShapes {
						h, _ := tx.Rel(s.name)
						var err error
						switch {
						case !s.kind.SupportsHistorical():
							if err = h.Insert(fac(name, rank)); errors.Is(err, ErrDuplicateKey) {
								err = h.Replace(key, fac(name, rank))
							}
						case s.event:
							err = h.AssertAt(fac(name, rank), at+temporal.Chronon(i%3))
						case i%7 == 6:
							err = h.Retract(key, at-20, at)
						default:
							err = h.Assert(fac(name, rank), at-15, at+50)
						}
						if err != nil && !errors.Is(err, ErrNoSuchTuple) {
							return fmt.Errorf("%s: %w", s.name, err)
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
			if got := stateDigest(t, db); !digestsEqual(before, got) {
				t.Fatal("checkpoint changed live state")
			}
			live := layoutOf(db.Stats())
			if seal == 4 && live[0] == 0 {
				t.Fatal("fixture sealed nothing")
			}
			snap, ok, err := wal.ReadSnapshot(nil, path+".snap")
			if !ok || err != nil {
				t.Fatalf("reading the snapshot: %v, %v", ok, err)
			}
			both := 0 // relations written as sealed blocks and a tail block
			for _, rs := range snap.Relations {
				rel, _ := db.Relation(rs.Name)
				rows := snapshotRows(t, rs)
				if !rs.Tail && seal == segment.DefaultSealRows {
					t.Errorf("%s: no tail block", rs.Name)
				}
				if rs.Tail && len(rs.Blocks) > 1 {
					both++
				}
				if rs.Kind.SupportsRollback() {
					if len(rows) != rel.VersionCount() {
						t.Errorf("%s: snapshot of %d rows, the relation stores %d", rs.Name, len(rows), rel.VersionCount())
					}
					continue
				}
				current := mustScan(t, rel, ScanSpec{AllVersions: true})
				if len(rows) != len(current) {
					t.Errorf("%s: snapshot of %d rows, want its %d current ones", rs.Name, len(rows), len(current))
					continue
				}
				for i, row := range rows {
					if v := (Version{Data: row.Data, Valid: row.Valid, Trans: temporal.All}); row.Trans != temporal.Since(0) || v.String() != current[i].String() {
						t.Errorf("%s row %d: snapshot %v over %v, current %v", rs.Name, i, v, row.Trans, current[i])
					}
				}
			}
			if seal == 4 && both == 0 {
				t.Error("no relation was written as sealed blocks and a tail")
			}
			db.Close()

			db = reopen(t, path)
			if got := stateDigest(t, db); !digestsEqual(before, got) {
				t.Fatalf("reopened:\nbefore %v\nafter  %v", before, got)
			}
			if got := layoutOf(db.Stats()); got != live {
				t.Fatalf("reopened layout %v, live %v", got, live)
			}
		})
	}
}

// snapshotRows reads a relation section's blocks, sealed and tail, back as
// rows, restored into a fresh log.
func snapshotRows(t *testing.T, rs wal.RelationSnapshot) []segment.Row {
	t.Helper()
	lg := segment.NewLog(rs.Schema)
	if err := lg.Restore(rs.Blocks, rs.Tail, func(_, _ temporal.Interval) error { return nil }); err != nil {
		t.Fatal(err)
	}
	var out []segment.Row
	lg.Scan(segment.Pred{}, func(_ int, r segment.Row) bool { out = append(out, r); return true })
	return out
}

// A kind that keeps no past checkpoints its present alone. After 100 000
// static replaces over 1 000 keys and a carve-heavy historical history,
// sealed and rebuilt on the way, the snapshot's blocks hold exactly the
// current rows, in commit order and each current since chronon 0, the
// checkpoint leaves the live layout settled to them, and reopening restores
// that layout and state.
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
	if st := db.Stats(); st.SealedRows+st.TailRows == st.Versions {
		t.Fatal("the fixture left no dropped row to settle away")
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	layout := db.Stats()
	if layout.SealedRows+layout.TailRows != layout.Versions || layout.Segments == 0 {
		t.Fatalf("checkpoint left the layout %+v, want the current rows alone, sealed and tail", layout)
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
		live, rows := mustScan(t, rel, ScanSpec{AllVersions: true}), snapshotRows(t, rs)
		if rs.Name == "static" && len(live) != keys {
			t.Fatalf("static holds %d current rows, want %d", len(live), keys)
		}
		if len(rows) != len(live) {
			t.Fatalf("%s: snapshot of %d rows, want %d current rows", rs.Name, len(rows), len(live))
		}
		for i, row := range rows {
			v := Version{Data: row.Data, Valid: row.Valid, Trans: temporal.All}
			if row.Trans != temporal.Since(0) || v.String() != live[i].String() {
				t.Fatalf("%s row %d: snapshot %v (transaction period %v), live %v", rs.Name, i, v, row.Trans, live[i])
			}
		}
	}
	db.Close()
	db = reopen(t, path)
	if got := stateDigest(t, db); !digestsEqual(before, got) {
		t.Fatalf("reopened:\nbefore %v\nafter  %v", before, got)
	}
	if got := db.Stats(); got.Segments != layout.Segments || got.SealedRows != layout.SealedRows || got.TailRows != layout.TailRows {
		t.Fatalf("reopened layout %+v, live %+v", got, layout)
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
