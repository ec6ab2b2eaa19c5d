package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func mustWrite(t *testing.T, f interface{ Write([]byte) (int, error) }, p []byte) {
	t.Helper()
	if _, err := f.Write(p); err != nil {
		t.Fatal(err)
	}
}

// Both devices: the modelled one the workloads run on and the real one the
// durable probe runs on.
func TestCrashKeepsOnlyTheSyncedPrefix(t *testing.T) {
	for _, modelled := range []bool{true, false} {
		crashKeepsOnlyTheSyncedPrefix(t, modelled)
	}
}

func crashKeepsOnlyTheSyncedPrefix(t *testing.T, modelled bool) {
	fs := newSyncFS(modelled)
	path := filepath.Join(t.TempDir(), "log")
	f, err := fs.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	synced := bytes.Repeat([]byte("s"), 100)
	mustWrite(t, f, synced)
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	mustWrite(t, f, bytes.Repeat([]byte("u"), 50))
	if got := fs.unsynced(); got != 50 {
		t.Fatalf("unsynced = %d, want 50", got)
	}
	lost, err := fs.Crash()
	if err != nil || lost != 50 {
		t.Fatalf("Crash = %d, %v; want 50 bytes lost", lost, err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, synced) {
		t.Fatalf("after the crash the file holds %d bytes, want exactly the 100 synced ones", len(got))
	}
	if _, err := f.Write([]byte("x")); !errors.Is(err, errCrashed) {
		t.Fatalf("write after the crash: %v, want errCrashed", err)
	}
	if err := f.Sync(); !errors.Is(err, errCrashed) {
		t.Fatalf("sync after the crash: %v, want errCrashed", err)
	}
	c := fs.counts()
	if c.writes != 2 || c.bytes != 150 || c.syncs != 1 || c.syncBusy <= 0 || modelled && c.syncBusy < syncBase {
		t.Fatalf("modelled %v: counts = %+v, want 2 writes, 150 bytes, 1 sync (of at least %v if modelled)", modelled, c, syncBase)
	}
}

func TestCrashFollowsRenameAndTruncate(t *testing.T) {
	fs := newSyncFS(true)
	dir := t.TempDir()
	tmp, final := filepath.Join(dir, "snap.tmp"), filepath.Join(dir, "snap")
	f, err := fs.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	mustWrite(t, f, []byte("snapshot"))
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := fs.Rename(tmp, final); err != nil {
		t.Fatal(err)
	}

	// A log that was synced, then emptied and synced, then written again.
	logPath := filepath.Join(dir, "log")
	l, err := fs.OpenFile(logPath, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	mustWrite(t, l, []byte("old era"))
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Truncate(0); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Seek(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	mustWrite(t, l, []byte("new era, unsynced"))

	if _, err := fs.Crash(); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(final); string(got) != "snapshot" {
		t.Fatalf("renamed file holds %q, want the synced snapshot", got)
	}
	if got, _ := os.ReadFile(logPath); len(got) != 0 {
		t.Fatalf("log holds %q, want nothing: its only synced state was empty", got)
	}
}
