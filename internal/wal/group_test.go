package wal

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"tdb/internal/vfs"
	"tdb/temporal"
)

// tinyRecord builds a distinguishable one-op record.
// commitWait is the linger of the committers these tests start without one
// of their own; make race-ingest passes -commit-wait=5ms to widen the window
// in which committers and the flush leader overlap.
var commitWait = flag.Duration("commit-wait", 0, "group-commit linger of committers started without one")

func tinyRecord(i int) Record {
	return Record{
		Commit: temporal.Chronon(1000 + i),
		Ops:    []Op{{Code: OpDrop, Rel: fmt.Sprintf("r%d", i)}},
	}
}

// replayCommits returns the commit chronons of every record in the log, in
// log order.
func replayCommits(t *testing.T, fsys vfs.FS, path string) []temporal.Chronon {
	t.Helper()
	var got []temporal.Chronon
	if _, err := Replay(fsys, path, false, func(r Record) error {
		got = append(got, r.Commit)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return got
}

// With a coalescing window armed, records enqueued together land as one
// write and one fsync, and every committer still gets its own durability
// signal.
func TestGroupCommitCoalescesOntoOneSync(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tdb.wal")
	l, err := Open(nil, path, Options{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	syncsBefore := mFsyncs.Value()
	batchesBefore := mGroupBatch.Count()

	// A generous window: all eight records are enqueued microseconds apart,
	// so the leader collects them all before its first flush.
	g := NewGroupCommitter(l, GroupOptions{MaxWait: 500 * time.Millisecond})
	const n = 8
	pendings := make([]*Pending, n)
	for i := 0; i < n; i++ {
		pendings[i] = g.Enqueue(tinyRecord(i))
	}
	for i, p := range pendings {
		if err := p.Wait(); err != nil {
			t.Fatalf("committer %d: %v", i, err)
		}
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}

	if got := mFsyncs.Value() - syncsBefore; got != 1 {
		t.Fatalf("%d fsyncs for %d coalesced commits, want 1", got, n)
	}
	if got := mGroupBatch.Count() - batchesBefore; got != 1 {
		t.Fatalf("%d flush batches, want 1", got)
	}
	if got := l.Records(); got != n {
		t.Fatalf("log records = %d, want %d", got, n)
	}
	commits := replayCommits(t, nil, path)
	if len(commits) != n {
		t.Fatalf("replayed %d records, want %d", len(commits), n)
	}
	// Enqueue order is flush order is log order.
	for i, c := range commits {
		if c != temporal.Chronon(1000+i) {
			t.Fatalf("record %d has commit %d, want %d (order broken)", i, c, 1000+i)
		}
	}
}

// Concurrent committers through a group committer lose no records and the
// replayed log holds exactly the committed set.
func TestGroupCommitConcurrentCommitters(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tdb.wal")
	l, err := Open(nil, path, Options{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	g := NewGroupCommitter(l, GroupOptions{MaxWait: time.Millisecond})

	const workers, per = 16, 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := g.Enqueue(tinyRecord(w*per + i)).Wait(); err != nil {
					t.Errorf("worker %d commit %d: %v", w, i, err)
				}
			}
		}(w)
	}
	wg.Wait()
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}

	if got := l.Records(); got != workers*per {
		t.Fatalf("log records = %d, want %d", got, workers*per)
	}
	seen := make(map[temporal.Chronon]bool)
	for _, c := range replayCommits(t, nil, path) {
		if seen[c] {
			t.Fatalf("commit %d appears twice in the log", c)
		}
		seen[c] = true
	}
	if len(seen) != workers*per {
		t.Fatalf("replayed %d distinct records, want %d", len(seen), workers*per)
	}
}

// Flush is a barrier: when it returns, everything enqueued before it is
// durable and the log's record count is exact — the property Checkpoint
// builds its snapshot bookkeeping on.
func TestGroupCommitFlushBarrier(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tdb.wal")
	l, err := Open(nil, path, Options{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	g := NewGroupCommitter(l, GroupOptions{MaxWait: 500 * time.Millisecond})
	defer g.Close()

	pendings := make([]*Pending, 3)
	for i := range pendings {
		pendings[i] = g.Enqueue(tinyRecord(i))
	}
	if err := g.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := l.Records(); got != 3 {
		t.Fatalf("records after Flush = %d, want 3", got)
	}
	// The individual claims are already settled.
	for i, p := range pendings {
		if err := p.Wait(); err != nil {
			t.Fatalf("pending %d after Flush: %v", i, err)
		}
	}
}

// Close drains what is queued — even mid-linger — and later enqueues fail
// with ErrClosed instead of hanging.
func TestGroupCommitCloseDrains(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tdb.wal")
	l, err := Open(nil, path, Options{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	g := NewGroupCommitter(l, GroupOptions{MaxWait: time.Minute})

	pendings := make([]*Pending, 5)
	for i := range pendings {
		pendings[i] = g.Enqueue(tinyRecord(i))
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	for i, p := range pendings {
		if err := p.Wait(); err != nil {
			t.Fatalf("pending %d lost by Close: %v", i, err)
		}
	}
	if got := l.Records(); got != 5 {
		t.Fatalf("records after Close = %d, want 5", got)
	}
	if err := g.Enqueue(tinyRecord(9)).Wait(); !errors.Is(err, ErrClosed) {
		t.Fatalf("commit after Close = %v, want ErrClosed", err)
	}
}

// An fsync failure poisons only the batch it covered: those committers get
// the error, the log rolls back to exactly its pre-batch size, and records
// flushed before stay durable. The committer then stops: later batches get
// the same error and leave the file alone, so nothing lands on top of the
// lost records.
func TestGroupCommitSyncFailurePoisonsOnlyItsBatch(t *testing.T) {
	ffs := vfs.NewFaultFS(vfs.Default())
	path := filepath.Join(t.TempDir(), "tdb.wal")
	l, err := Open(ffs, path, Options{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	g := NewGroupCommitter(l, GroupOptions{MaxWait: 500 * time.Millisecond})
	defer g.Close()

	// Batch 1 lands clean.
	if err := g.Enqueue(tinyRecord(0)).Wait(); err != nil {
		t.Fatal(err)
	}
	sizeAfterFirst := l.Size()

	// Batch 2 (two coalesced records) hits the injected fsync failure.
	ffs.FailSyncAt(1)
	pb := g.Enqueue(tinyRecord(1))
	pc := g.Enqueue(tinyRecord(2))
	errB, errC := pb.Wait(), pc.Wait()
	if !errors.Is(errB, vfs.ErrInjectedSync) || !errors.Is(errC, vfs.ErrInjectedSync) {
		t.Fatalf("covered committers got (%v, %v), want injected sync failure for both", errB, errC)
	}
	if got := l.Size(); got != sizeAfterFirst {
		t.Fatalf("log size %d after failed batch, want rollback to %d", got, sizeAfterFirst)
	}
	if got := l.Records(); got != 1 {
		t.Fatalf("records after failed batch = %d, want 1", got)
	}

	// The fault was one-shot, but the next batch is refused all the same.
	if err := g.Enqueue(tinyRecord(3)).Wait(); !errors.Is(err, vfs.ErrInjectedSync) {
		t.Fatalf("commit after the failed batch = %v, want the injected sync failure", err)
	}
	if !errors.Is(g.Err(), vfs.ErrInjectedSync) {
		t.Fatalf("Err() = %v, want the injected sync failure", g.Err())
	}
	commits := replayCommits(t, ffs, path)
	want := []temporal.Chronon{1000}
	if len(commits) != len(want) || commits[0] != want[0] {
		t.Fatalf("replayed commits %v, want %v (failed batch leaked or durable batch lost)", commits, want)
	}
}

// slowSyncFS is the OS filesystem with an fsync that takes a fixed time.
type slowSyncFS struct {
	vfs.OS
	sync time.Duration
}

func (s slowSyncFS) OpenFile(name string, flag int, perm fs.FileMode) (vfs.File, error) {
	f, err := s.OS.OpenFile(name, flag, perm)
	return slowSyncFile{f, s.sync}, err
}

type slowSyncFile struct {
	vfs.File
	sync time.Duration
}

func (f slowSyncFile) Sync() error {
	time.Sleep(f.sync)
	return f.File.Sync()
}

// Committers that each wait for their commit and then take a moment to come
// back with the next (a reply and a request on the wire: here a byte echoed
// over loopback) share fsyncs instead of taking turns: the leader waits, for
// a fraction of an fsync, for the committers its last flush showed.
func TestGroupCommitClosedLoopCommittersShareSyncs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tdb.wal")
	l, err := Open(slowSyncFS{sync: 4 * time.Millisecond}, path, Options{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	g := NewGroupCommitter(l, GroupOptions{MaxWait: *commitWait})
	defer g.Close()

	echo, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer echo.Close()
	go func() {
		for {
			c, err := echo.Accept()
			if err != nil {
				return
			}
			go io.Copy(c, c)
		}
	}()

	const committers, each = 2, 40
	before := mFsyncs.Value()
	var wg sync.WaitGroup
	for c := 0; c < committers; c++ {
		wire, err := net.Dial("tcp", echo.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer wire.Close()
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			b := make([]byte, 1)
			for i := 0; i < each; i++ {
				if err := g.Enqueue(tinyRecord(c*each + i)).Wait(); err != nil {
					t.Error(err)
					return
				}
				if _, err := wire.Write(b); err != nil {
					t.Error(err)
					return
				}
				if _, err := wire.Read(b); err != nil {
					t.Error(err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	// Sharing every flush is 40 fsyncs, taking turns is 80.
	if got := mFsyncs.Value() - before; got > 60 {
		t.Fatalf("%d fsyncs for %d commits from %d closed-loop committers, want at most 60", got, committers*each, committers)
	}
	if got := l.Records(); got != committers*each {
		t.Fatalf("log records = %d, want %d", got, committers*each)
	}
}

// A lone committer is never kept waiting for company: each of its records
// is flushed alone, as before.
func TestGroupCommitLoneCommitterFlushesAlone(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tdb.wal")
	l, err := Open(slowSyncFS{sync: time.Millisecond}, path, Options{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	g := NewGroupCommitter(l, GroupOptions{MaxWait: *commitWait})
	defer g.Close()
	before := mFsyncs.Value()
	for i := 0; i < 20; i++ {
		if err := g.Enqueue(tinyRecord(i)).Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if got := mFsyncs.Value() - before; got != 20 {
		t.Fatalf("%d fsyncs for 20 sequential commits, want 20", got)
	}
}
