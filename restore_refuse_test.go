package tdb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"tdb/internal/segment"
	"tdb/internal/wal"
	"tdb/temporal"
)

// withRows is snap with the blocks of its relation of the given kind, an
// interval one, replaced by one tail block holding rows.
func withRows(t testing.TB, snap wal.Snapshot, kind Kind, rows ...segment.Row) wal.Snapshot {
	t.Helper()
	snap.Relations = slices.Clone(snap.Relations)
	for i := range snap.Relations {
		if rs := &snap.Relations[i]; rs.Kind == kind && !rs.Event {
			l := segment.NewLog(rs.Schema)
			for _, r := range rows {
				l.Append(r)
			}
			rs.Blocks, rs.Tail = l.Blocks()
			return snap
		}
	}
	t.Fatalf("no %v relation in the snapshot", kind)
	return snap
}

// twoCurrent is two current rows of key A in a relation without valid time,
// committed at the instant no-past kinds stamp: what no static relation can
// hold.
var twoCurrent = []segment.Row{
	{Data: fac("A", "x"), Valid: temporal.All, Trans: temporal.Since(0)},
	{Data: fac("A", "y"), Valid: temporal.All, Trans: temporal.Since(0)},
}

// overlapping is two current rows of key A whose valid periods overlap: what
// no temporal relation can hold.
var overlapping = []segment.Row{
	{Data: fac("A", "x"), Valid: temporal.Interval{From: 10, To: 20}, Trans: temporal.Since(100)},
	{Data: fac("A", "y"), Valid: temporal.Interval{From: 15, To: 30}, Trans: temporal.Since(100)},
}

// mixedCheckpoint checkpoints buildMixedDB's relations at path, writes once
// more so that the log carries the new epoch, closes the database and returns
// the primary snapshot.
func mixedCheckpoint(t *testing.T, path string) wal.Snapshot {
	t.Helper()
	db := reopen(t, path)
	buildMixedDB(t, db)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.UpdateAt(temporal.Date(1995, 1, 1), func(tx *Tx) error {
		h, _ := tx.Rel("r_historical")
		return h.Assert(fac("F", "f"), temporal.Date(1995, 1, 1), temporal.Forever)
	}); err != nil {
		t.Fatal(err)
	}
	db.Close()
	snap, ok, err := wal.ReadSnapshot(nil, path+".snap")
	if err != nil || !ok {
		t.Fatalf("reading the checkpoint: %v (found %v)", err, ok)
	}
	return snap
}

// A checkpoint the decoder accepts but whose rows the update algebra could
// not have built fails the open with ErrCorrupt. The fallback is not tried:
// the checksum proves these are the bytes the checkpoint wrote, and the
// checkpoint's second rotation left the fallback a same-era copy of the same
// state. Neither file is touched. A primary that does not decode, on the
// other hand, does fall back.
func TestRecoveryRefusesImpossibleSnapshot(t *testing.T) {
	for _, c := range []struct {
		kind Kind
		rows []segment.Row
	}{{Static, twoCurrent}, {StaticRollback, twoCurrent}, {Temporal, overlapping}} {
		path := filepath.Join(t.TempDir(), "tdb.wal")
		bad := wal.EncodeSnapshot(withRows(t, mixedCheckpoint(t, path), c.kind, c.rows...))
		if err := os.WriteFile(path+".snap", bad, 0o644); err != nil {
			t.Fatal(err)
		}
		prev, err := os.ReadFile(path + ".snap.prev")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Open(path, Options{}); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%v: opening over an impossible snapshot: %v, want ErrCorrupt", c.kind, err)
		}
		for file, want := range map[string][]byte{".snap": bad, ".snap.prev": prev} {
			if got, err := os.ReadFile(path + file); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("%v: the refused open changed %s (%v)", c.kind, file, err)
			}
		}
		corruptFile(t, path+".snap")
		db := reopen(t, path)
		if !db.Stats().Recovery.UsedFallback {
			t.Fatalf("%v: a primary that does not decode did not fall back", c.kind)
		}
		db.Close()
	}
}

// wrongKeyHash is data, a snapshot file holding block, with the last stored
// key hash of block flipped and the checksum made good again.
func wrongKeyHash(t *testing.T, data []byte, block *segment.Segment) []byte {
	t.Helper()
	enc := segment.AppendBlock(nil, block)
	at := bytes.Index(data, enc)
	if at < 0 {
		t.Fatal("the block is not in the snapshot")
	}
	out := slices.Clone(data[:len(data)-4])
	out[at+len(enc)-1] ^= 0x80 // the top byte of the last row's key hash
	return binary.BigEndian.AppendUint32(out, crc32.Checksum(out, crc32.MakeTable(crc32.Castagnoli)))
}

// A CRC-valid checkpoint block whose stored key hash disagrees with its key
// columns is refused as corrupt: by Open, with no fallback to turn to, and
// by a follower's re-sync, which then keeps what it had. So is a re-sync
// snapshot holding a state the update algebra could not have built.
func TestKeyHashMismatchRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tdb.wal")
	snap := mixedCheckpoint(t, path)
	data, err := os.ReadFile(path + ".snap")
	if err != nil {
		t.Fatal(err)
	}
	bad := wrongKeyHash(t, data, snap.Relations[0].Blocks[0])
	if _, err := wal.DecodeSnapshot(bad); !errors.Is(err, wal.ErrSnapshotCorrupt) {
		t.Fatalf("decoding a block with a wrong key hash: %v, want ErrSnapshotCorrupt", err)
	}
	if err := os.Remove(path + ".snap.prev"); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path+".snap", bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("opening over a wrong key hash: %v, want ErrCorrupt", err)
	}

	primary := reopen(t, filepath.Join(t.TempDir(), "tdb.wal"))
	defer primary.Close()
	buildMixedDB(t, primary)
	if err := primary.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	good, epoch, err := primary.ReplSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	fPath := filepath.Join(t.TempDir(), "tdb.wal")
	follower := openFollower(t, fPath, nil)
	defer follower.Close()
	shipAll(t, primary, follower)
	before := stateDigest(t, follower)
	goodSnap, err := wal.DecodeSnapshot(good)
	if err != nil {
		t.Fatal(err)
	}
	for name, ship := range map[string][]byte{
		"wrong key hash":     wrongKeyHash(t, good, goodSnap.Relations[0].Blocks[0]),
		"duplicate key":      wal.EncodeSnapshot(withRows(t, goodSnap, Static, twoCurrent...)),
		"overlapping period": wal.EncodeSnapshot(withRows(t, goodSnap, Temporal, overlapping...)),
	} {
		if err := follower.ReplReset(epoch, ship); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: re-sync: %v, want ErrCorrupt", name, err)
		}
		if got := stateDigest(t, follower); !digestsEqual(before, got) {
			t.Fatalf("%s: a refused re-sync changed the follower:\nbefore %v\nafter  %v", name, before, got)
		}
	}
	if err := follower.ReplReset(epoch, good); err != nil {
		t.Fatalf("re-sync with the good snapshot: %v", err)
	}
}
