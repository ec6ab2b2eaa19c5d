package tdb

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"tdb/internal/repl"
	"tdb/internal/vfs"
	"tdb/internal/wal"
	"tdb/temporal"
)

// openFollower opens a read-only follower over path, failing the test on
// error.
func openFollower(t *testing.T, path string, fs vfs.FS) *DB {
	t.Helper()
	db, err := Open(path, Options{
		Clock:    temporal.NewLogicalClock(temporal.Date(1985, 1, 1)),
		ReadOnly: true,
		FS:       fs,
	})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// shipWindow splits one raw log byte window (starting at the follower's
// durable cursor) into the prefix of complete frames plus their decoded
// records, mirroring what the follower loop applies.
func shipWindow(t *testing.T, epoch uint64, durable int64, raw []byte) (total int, recs []wal.Record) {
	t.Helper()
	body := raw
	header := 0
	if durable == 0 {
		ep, ok := wal.DecodeHeader(raw)
		if !ok {
			t.Fatal("shipped header failed verification")
		}
		if ep != epoch {
			t.Fatalf("shipped header epoch %d, want %d", ep, epoch)
		}
		header = wal.HeaderLen
		body = raw[header:]
	}
	consumed, err := wal.ScanFrames(body, func(r wal.Record) error {
		recs = append(recs, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return header + consumed, recs
}

// shipAll streams src's durable state onto dst through the replication
// hooks until the cursors meet, exactly as the network follower loop does.
func shipAll(t *testing.T, src, dst *DB) {
	t.Helper()
	for i := 0; ; i++ {
		if i > 10_000 {
			t.Fatal("shipAll did not converge")
		}
		sEpoch, sSize, _, err := src.ReplPosition()
		if err != nil {
			t.Fatal(err)
		}
		dEpoch, dSize := dst.ReplCursor()
		if dEpoch != sEpoch || dSize > sSize {
			snap, se, err := src.ReplSnapshot()
			if err != nil {
				t.Fatal(err)
			}
			if err := dst.ReplReset(se, snap); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if dSize == sSize {
			return
		}
		raw, err := src.ReplReadLog(sEpoch, dSize, int(sSize-dSize))
		if err != nil {
			t.Fatal(err)
		}
		total, recs := shipWindow(t, sEpoch, dSize, raw)
		if total == 0 {
			t.Fatal("no complete frame in shipped window")
		}
		if err := dst.ReplApply(sEpoch, raw[:total], recs); err != nil {
			t.Fatal(err)
		}
	}
}

// assertReplicaIdentical checks the replication invariant end to end: same
// observable state, and a byte-identical log file (the shared cursor).
func assertReplicaIdentical(t *testing.T, primary, follower *DB, pPath, fPath string) {
	t.Helper()
	if got, want := stateDigest(t, follower), stateDigest(t, primary); !digestsEqual(got, want) {
		t.Fatalf("follower state diverges:\nwant %v\ngot  %v", want, got)
	}
	pBytes, err := os.ReadFile(pPath)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		t.Fatal(err)
	}
	fBytes, err := os.ReadFile(fPath)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		t.Fatal(err)
	}
	if string(pBytes) != string(fBytes) {
		t.Fatalf("follower log is not a byte-identical copy: primary %d bytes, follower %d bytes",
			len(pBytes), len(fBytes))
	}
	pc, po := primary.ReplCursor()
	fc, fo := follower.ReplCursor()
	if pc != fc || po != fo {
		t.Fatalf("cursors diverge: primary (%d,%d), follower (%d,%d)", pc, po, fc, fo)
	}
}

func TestReadOnlyRefusesMutations(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tdb.wal")
	db := openFollower(t, path, nil)
	defer db.Close()

	if !db.Stats().ReadOnly || !db.IsReadOnly() {
		t.Fatal("follower does not report read-only")
	}
	if _, err := db.CreateRelation("r", Static, facultySchema(t)); !errors.Is(err, ErrReadOnly) {
		t.Errorf("create: %v, want ErrReadOnly", err)
	}
	if err := db.DropRelation("r"); !errors.Is(err, ErrReadOnly) {
		t.Errorf("drop: %v, want ErrReadOnly", err)
	}
	if err := db.Update(func(tx *Tx) error { return nil }); !errors.Is(err, ErrReadOnly) {
		t.Errorf("update: %v, want ErrReadOnly", err)
	}
	if err := db.Checkpoint(); !errors.Is(err, ErrReadOnly) {
		t.Errorf("checkpoint: %v, want ErrReadOnly", err)
	}
}

// A fresh follower catches the primary's whole era-0 log and lands a
// byte-identical copy.
func TestReplShipWholeLog(t *testing.T) {
	pPath := filepath.Join(t.TempDir(), "tdb.wal")
	primary := reopen(t, pPath)
	defer primary.Close()
	buildMixedDB(t, primary)

	fPath := filepath.Join(t.TempDir(), "tdb.wal")
	follower := openFollower(t, fPath, nil)
	defer follower.Close()

	shipAll(t, primary, follower)
	assertReplicaIdentical(t, primary, follower, pPath, fPath)
	if got, want := follower.LastCommit(), primary.LastCommit(); got != want {
		t.Errorf("applied commit clock %v, want %v", got, want)
	}
}

// A follower joining after the primary has checkpointed re-syncs through
// the snapshot, and a checkpoint happening mid-stream re-syncs a connected
// follower onto the new era.
func TestReplCheckpointResync(t *testing.T) {
	pPath := filepath.Join(t.TempDir(), "tdb.wal")
	primary := reopen(t, pPath)
	defer primary.Close()
	buildMixedDB(t, primary)
	if err := primary.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint writes so the era-1 log is non-empty.
	at := temporal.Date(1990, 1, 1)
	if err := primary.UpdateAt(at, func(tx *Tx) error {
		h, _ := tx.Rel("r_historical")
		return h.Assert(fac("Y", "after-ckpt"), at, temporal.Forever)
	}); err != nil {
		t.Fatal(err)
	}

	fPath := filepath.Join(t.TempDir(), "tdb.wal")
	follower := openFollower(t, fPath, nil)
	defer follower.Close()
	shipAll(t, primary, follower)
	assertReplicaIdentical(t, primary, follower, pPath, fPath)
	if e, _ := follower.ReplCursor(); e != 1 {
		t.Fatalf("follower era %d, want 1", e)
	}

	// Mid-stream rollover: checkpoint again, write, ship — the stale cursor
	// must re-sync, not error.
	if err := primary.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	at = temporal.Date(1991, 1, 1)
	if err := primary.UpdateAt(at, func(tx *Tx) error {
		h, _ := tx.Rel("r_temporal")
		return h.Assert(fac("Z", "era2"), at, temporal.Forever)
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := primary.ReplReadLog(1, 0, 1024); !errors.Is(err, repl.ErrEpochGone) {
		t.Fatalf("read of a rolled-over era: %v, want ErrEpochGone", err)
	}
	shipAll(t, primary, follower)
	assertReplicaIdentical(t, primary, follower, pPath, fPath)
	if e, _ := follower.ReplCursor(); e != 2 {
		t.Fatalf("follower era %d, want 2", e)
	}
}

// ReplReset wipes the follower's catalog but not its commit sequence: every
// relation it restores is created under a number above any stamp seen before
// the reset, so an answer computed before the reset and stored after it can
// never land under a key that names post-reset state.
func TestReplResetKeepsCommitSequence(t *testing.T) {
	primary := reopen(t, filepath.Join(t.TempDir(), "tdb.wal"))
	defer primary.Close()
	buildMixedDB(t, primary)
	if err := primary.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	at := temporal.Date(1990, 1, 1)
	if err := primary.UpdateAt(at, func(tx *Tx) error {
		h, _ := tx.Rel("r_historical")
		return h.Assert(fac("Y", "after-ckpt"), at, temporal.Forever)
	}); err != nil {
		t.Fatal(err)
	}
	follower := openFollower(t, filepath.Join(t.TempDir(), "tdb.wal"), nil)
	defer follower.Close()
	shipAll(t, primary, follower)

	// stamps returns every relation's (created, changed) pair.
	stamps := func() (out [][2]uint64) {
		for _, name := range follower.Relations() {
			rel, err := follower.Relation(name)
			if err != nil {
				t.Fatal(err)
			}
			created, changed := rel.Seq()
			out = append(out, [2]uint64{created, changed})
		}
		return out
	}
	var seen uint64
	for _, s := range stamps() {
		seen = max(seen, s[0], s[1])
	}

	if err := primary.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	snap, epoch, err := primary.ReplSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := follower.ReplReset(epoch, snap); err != nil {
		t.Fatal(err)
	}
	after := stamps()
	if len(after) == 0 {
		t.Fatal("fixture: the reset restored no relations")
	}
	for i, s := range after {
		if s[0] <= seen {
			t.Errorf("relation %d created at %d after the reset, not above the %d seen before it", i, s[0], seen)
		}
	}
}

// A restarted follower resumes from its durable cursor through ordinary
// recovery: no re-snapshot, no double apply.
func TestReplFollowerRestartResumes(t *testing.T) {
	pPath := filepath.Join(t.TempDir(), "tdb.wal")
	primary := reopen(t, pPath)
	defer primary.Close()
	buildMixedDB(t, primary)

	fDir := t.TempDir()
	fPath := filepath.Join(fDir, "tdb.wal")
	follower := openFollower(t, fPath, nil)

	// Ship only a prefix: the header plus the first two frames.
	sEpoch, sSize, _, err := primary.ReplPosition()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := primary.ReplReadLog(sEpoch, 0, int(sSize))
	if err != nil {
		t.Fatal(err)
	}
	total := wal.HeaderLen
	for i := 0; i < 2 && int64(total) < sSize; i++ {
		total += singleFrameSpan(t, raw[total:])
	}
	var recs []wal.Record
	if _, err := wal.ScanFrames(raw[wal.HeaderLen:total], func(r wal.Record) error {
		recs = append(recs, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := follower.ReplApply(sEpoch, raw[:total], recs); err != nil {
		t.Fatal(err)
	}
	if err := follower.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: recovery replays the prefix, the cursor is the file size.
	follower = openFollower(t, fPath, nil)
	defer follower.Close()
	if _, off := follower.ReplCursor(); off != int64(total) {
		t.Fatalf("cursor after restart %d, want %d", off, total)
	}
	shipAll(t, primary, follower)
	assertReplicaIdentical(t, primary, follower, pPath, fPath)
}

// TestReplFollowerCrashMatrix kills the follower at every mutating
// filesystem operation during catch-up — covering every frame boundary,
// since each shipped window lands with one write — then reopens the torn
// directory and resumes from the recovered cursor. Every crash point must
// converge to a byte-identical replica. The matrix self-sizes like the
// checkpoint matrix: it walks crash points until a run completes clean.
func TestReplFollowerCrashMatrix(t *testing.T) {
	pPath := filepath.Join(t.TempDir(), "tdb.wal")
	primary := reopen(t, pPath)
	defer primary.Close()
	buildMixedDB(t, primary)
	sEpoch, sSize, _, err := primary.ReplPosition()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := primary.ReplReadLog(sEpoch, 0, int(sSize))
	if err != nil {
		t.Fatal(err)
	}

	// Pre-split the stream into per-frame windows (header rides with the
	// first), so every apply lands one frame and the crash matrix covers
	// every frame boundary plus every torn middle.
	type window struct {
		raw  []byte
		recs []wal.Record
	}
	var windows []window
	pos := int64(wal.HeaderLen)
	for pos < sSize {
		span := int64(singleFrameSpan(t, raw[pos:]))
		var recs []wal.Record
		if _, err := wal.ScanFrames(raw[pos:pos+span], func(r wal.Record) error {
			recs = append(recs, r)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		w := window{raw: raw[pos : pos+span], recs: recs}
		if pos == int64(wal.HeaderLen) {
			w.raw = raw[0 : pos+span] // first window carries the header
		}
		windows = append(windows, w)
		pos += span
	}

	const maxPoints = 2000
	completed := false
	for k := int64(1); k <= maxPoints; k++ {
		fDir := t.TempDir()
		fPath := filepath.Join(fDir, "tdb.wal")
		ffs := vfs.NewFaultFS(vfs.OS{})
		follower := openFollower(t, fPath, ffs)
		ffs.CrashAfter(k)
		crashedAt := -1
		for i, w := range windows {
			if err := follower.ReplApply(sEpoch, w.raw, w.recs); err != nil {
				if !errors.Is(err, vfs.ErrCrashed) && !errors.Is(err, wal.ErrTorn) {
					t.Fatalf("k=%d window %d: unexpected apply error: %v", k, i, err)
				}
				crashedAt = i
				break
			}
		}
		follower.Close() // descriptors die with the simulated process
		if crashedAt < 0 && !ffs.Crashed() {
			completed = true
		}

		// Reboot: clean filesystem, ordinary recovery, resume from the
		// recovered cursor.
		follower = openFollower(t, fPath, nil)
		shipAll(t, primary, follower)
		assertReplicaIdentical(t, primary, follower, pPath, fPath)
		follower.Close()
		if completed {
			t.Logf("follower crash matrix: %d crash points exercised", k-1)
			return
		}
	}
	t.Fatalf("follower apply still crashing after %d fault points", maxPoints)
}

// singleFrameSpan returns the byte length of the first frame (length field
// plus CRC plus payload) from the frame header alone.
func singleFrameSpan(t *testing.T, buf []byte) int {
	t.Helper()
	if len(buf) < wal.FrameOverhead {
		t.Fatal("short frame")
	}
	ln := int(binary.BigEndian.Uint32(buf[0:4]))
	if len(buf) < wal.FrameOverhead+ln {
		t.Fatal("incomplete frame")
	}
	return wal.FrameOverhead + ln
}

// TestReplApplyRejectsWrongEra guards the cursor contract.
func TestReplApplyRejectsWrongEra(t *testing.T) {
	fPath := filepath.Join(t.TempDir(), "tdb.wal")
	follower := openFollower(t, fPath, nil)
	defer follower.Close()
	if err := follower.ReplApply(7, []byte{1, 2, 3}, nil); err == nil {
		t.Fatal("apply for a foreign era succeeded")
	}
	if err := follower.ReplReset(3, nil); err == nil {
		t.Fatal("era-3 reset without a snapshot succeeded")
	}
}

// TestReplChangedWakes proves the notification channel fires on append.
func TestReplChangedWakes(t *testing.T) {
	pPath := filepath.Join(t.TempDir(), "tdb.wal")
	primary := reopen(t, pPath)
	defer primary.Close()
	if _, err := primary.CreateRelation("r", Historical, facultySchema(t)); err != nil {
		t.Fatal(err)
	}
	ch := primary.ReplChanged()
	at := temporal.Date(1990, 1, 1)
	if err := primary.UpdateAt(at, func(tx *Tx) error {
		h, _ := tx.Rel("r")
		return h.Assert(fac("A", "x"), at, temporal.Forever)
	}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ch:
	default:
		t.Fatal("append did not close the change channel")
	}
}

// A fail-stopped primary must end its replication streams, not report its
// clock: after a failed flush the clock holds a commit the log never got,
// so no message may carry it, and the stream ends with an error naming the
// fail-stop.
func TestReplStreamEndsOnFailStop(t *testing.T) {
	ffs := vfs.NewFaultFS(vfs.Default())
	db, err := Open(filepath.Join(t.TempDir(), "tdb.wal"), Options{
		Clock:           temporal.NewLogicalClock(temporal.Date(1985, 1, 1)),
		Sync:            true,
		FS:              ffs,
		GroupCommitWait: *commitWait,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.CreateRelation("r", Historical, facultySchema(t)); err != nil {
		t.Fatal(err)
	}
	assertName := func(name string) error {
		return db.Update(func(tx *Tx) error {
			h, err := tx.Rel("r")
			if err != nil {
				return err
			}
			return h.Assert(fac(name, "x"), temporal.Date(1990, 1, 1), temporal.Forever)
		})
	}
	if err := assertName("logged"); err != nil {
		t.Fatal(err)
	}
	logged := db.LastCommit()

	// send hands each message to the test and holds the stream until the
	// test acknowledges it, so the failing commit lands while the stream is
	// parked on a heartbeat, not mid-way through reading the position.
	msgs, ack, stop := make(chan repl.Msg), make(chan struct{}), make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- repl.Stream(db, repl.Cursor{}, func(m repl.Msg) error {
			msgs <- m
			<-ack
			return nil
		}, repl.StreamOptions{Heartbeat: 10 * time.Millisecond, Stop: stop})
	}()
	var (
		streamErr error
		errMsg    string
		failed    bool
		lateBeats int
	)
	for ended := false; !ended; {
		select {
		case m := <-msgs:
			if m.Commit > logged {
				t.Errorf("stream sent a %q message carrying commit %v, past the last logged commit %v", m.T, m.Commit, logged)
			}
			switch {
			case m.T == repl.MsgError:
				errMsg = m.Err
			case m.T == repl.MsgHeartbeat && !failed:
				ffs.FailSyncAt(1)
				if err := assertName("unlogged"); !errors.Is(err, ErrFailStopped) {
					t.Fatalf("commit with a failing fsync = %v, want ErrFailStopped", err)
				}
				failed = true
			case m.T == repl.MsgHeartbeat:
				if lateBeats++; lateBeats == 3 {
					close(stop)
				}
			}
			ack <- struct{}{}
		case streamErr = <-done:
			ended = true
		}
	}
	if !errors.Is(streamErr, ErrFailStopped) || !strings.Contains(errMsg, "fail-stopped") {
		t.Fatalf("stream ended with %v and error message %q, want the fail-stop", streamErr, errMsg)
	}
}
