package wal

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"tdb/internal/vfs"
)

// An empty log file carries no epoch; the header appears with the first
// append and survives truncation with the new epoch.
func TestLogHeaderLifecycle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tdb.wal")
	l, err := Open(nil, path, Options{Epoch: 0})
	if err != nil {
		t.Fatal(err)
	}
	// No appends yet: zero bytes, no header.
	if fi, err := os.Stat(path); err != nil || fi.Size() != 0 {
		t.Fatalf("empty log size: %v, %v", fi, err)
	}
	res, err := Replay(nil, path, false, func(Record) error { return nil })
	if err != nil || res.HasEpoch || res.Records != 0 {
		t.Fatalf("empty log replay: %+v, %v", res, err)
	}

	rec := Record{Commit: 1, Ops: []Op{{Code: OpDrop, Rel: "x"}}}
	if err := l.Append(rec); err != nil {
		t.Fatal(err)
	}
	res, err = Replay(nil, path, false, func(Record) error { return nil })
	if err != nil || !res.HasEpoch || res.Epoch != 0 || res.Records != 1 {
		t.Fatalf("after first append: %+v, %v", res, err)
	}

	// Truncate into epoch 5: file empty again, next append stamps 5.
	if err := l.Truncate(5); err != nil {
		t.Fatal(err)
	}
	if fi, _ := os.Stat(path); fi.Size() != 0 {
		t.Fatalf("truncated log size = %d", fi.Size())
	}
	if err := l.Append(rec); err != nil {
		t.Fatal(err)
	}
	l.Close()
	res, err = Replay(nil, path, false, func(Record) error { return nil })
	if err != nil || !res.HasEpoch || res.Epoch != 5 || res.Records != 1 {
		t.Fatalf("after truncate+append: %+v, %v", res, err)
	}
}

// A header torn mid-write is detected and, with repair, the file resets to
// empty so the next append starts a clean era.
func TestReplayTornHeader(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "tdb.wal")
	l, err := Open(nil, path, Options{Epoch: 9})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Record{Commit: 1, Ops: []Op{{Code: OpDrop, Rel: "x"}}}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < headerLen; cut++ {
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		res, err := Replay(nil, path, true, func(Record) error {
			t.Fatalf("cut %d: record replayed from torn header", cut)
			return nil
		})
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if !res.Truncated || res.HasEpoch || res.GoodBytes != 0 {
			t.Fatalf("cut %d: %+v", cut, res)
		}
		if fi, _ := os.Stat(path); fi.Size() != 0 {
			t.Fatalf("cut %d: repair left %d bytes", cut, fi.Size())
		}
	}
	// A bit-flipped header is not a torn first append (a tear preserves the
	// bytes before it): Replay refuses with ErrUnknownFormat and must not
	// mutate the file, even with repair requested — the frames behind the
	// rotted header may still be salvageable by hand.
	bad := append([]byte(nil), data...)
	bad[10] ^= 0x40
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Replay(nil, path, true, func(Record) error { return nil })
	if !errors.Is(err, ErrUnknownFormat) {
		t.Fatalf("corrupt header: %v, want ErrUnknownFormat", err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(after) != string(bad) {
		t.Fatalf("refusing a corrupt header still mutated the file (%d -> %d bytes)", len(bad), len(after))
	}
}

// A crash torn mid-append through FaultFS leaves a prefix the next Replay
// recovers: the log's own fault-injection round trip.
func TestLogFaultInjectedTear(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "tdb.wal")
	rec := Record{Commit: 1, Ops: []Op{{Code: OpDrop, Rel: "victim"}}}

	ffs := vfs.NewFaultFS(vfs.Default())
	l, err := Open(ffs, path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(rec); err != nil {
		t.Fatal(err)
	}
	ffs.CrashAfter(1)
	if err := l.Append(rec); !errors.Is(err, vfs.ErrCrashed) {
		t.Fatalf("append at crash point: %v", err)
	}

	// Reboot: replay through a clean FS sees one whole record and a tear.
	var n int
	res, err := Replay(nil, path, true, func(Record) error { n++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 || !res.Truncated {
		t.Fatalf("post-crash replay: n=%d %+v", n, res)
	}
	// The repaired log appends cleanly.
	l2, err := Open(nil, path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l2.Append(rec); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	n = 0
	if _, err := Replay(nil, path, false, func(Record) error { n++; return nil }); err != nil || n != 2 {
		t.Fatalf("after repair+append: n=%d, %v", n, err)
	}
}

// An injected fsync failure surfaces from a Sync-mode append.
func TestLogSyncFailureSurfaces(t *testing.T) {
	dir := t.TempDir()
	ffs := vfs.NewFaultFS(vfs.Default())
	l, err := Open(ffs, filepath.Join(dir, "tdb.wal"), Options{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	rec := Record{Commit: 1, Ops: []Op{{Code: OpDrop, Rel: "x"}}}
	if err := l.Append(rec); err != nil {
		t.Fatal(err)
	}
	ffs.FailSyncAt(1)
	if err := l.Append(rec); !errors.Is(err, vfs.ErrInjectedSync) {
		t.Fatalf("append with failing fsync: %v", err)
	}
	// The fault is one-shot; the log keeps working.
	if err := l.Append(rec); err != nil {
		t.Fatal(err)
	}
}
