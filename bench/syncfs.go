package main

import (
	"errors"
	"io/fs"
	"os"
	"sort"
	"sync"
	"time"

	"tdb/internal/vfs"
)

var errCrashed = errors.New("bench: filesystem crashed")

// The modelled device's sync costs syncBase plus syncPerByte for every byte
// it makes durable: the quiet floor of this sandbox's disk, where the tenth
// percentile of fsync after a 200-byte write is 0.27–0.37 ms and after 1, 4
// and 16 MiB 2.2, 6.3 and 24 ms (1.4–1.7 ns a byte).
const (
	syncBase    = 300 * time.Microsecond
	syncPerByte = 2 * time.Nanosecond
)

// syncFS is the device under every durable run. It passes reads and writes
// to the operating system, counts writes, bytes and syncs, and remembers for
// every file how long it was at its last successful Sync. Crash then cuts
// each file back to that length — what a power cut would leave, since
// killing a process alone keeps the page cache — and refuses all further
// I/O.
//
// Sync is passed to the operating system when modelled is false; the
// durable layer probe runs that way, so the wal and fs figures it prints are
// this sandbox's disk's. The four workloads run with modelled true: Sync
// busy-waits syncBase + syncPerByte × bytes instead. The disk's fsync is not
// steady enough to gate anything on (median of 500 consecutive fsyncs of a
// 200-byte append: 0.81 ms in one block, 2.16 ms in another of the same
// series, p90 3.3–6.3 ms), and ingest's every figure is a multiple of it.
// The model keeps what the program can change — how many syncs it issues,
// how many bytes each covers — and is the same on both sides of a
// comparison.
type syncFS struct {
	inner    vfs.FS
	modelled bool

	mu       sync.Mutex
	files    map[string]*fileState
	crashed  bool
	writes   int64
	bytes    int64
	syncs    int64
	syncBusy time.Duration
}

// fileState follows one path: its current length and the length known to be
// on stable storage.
type fileState struct {
	size, synced int64
}

// fsCounts is a copy of the device counters.
type fsCounts struct {
	writes, bytes, syncs int64
	syncBusy             time.Duration
}

func (c fsCounts) minus(o fsCounts) fsCounts {
	return fsCounts{c.writes - o.writes, c.bytes - o.bytes, c.syncs - o.syncs, c.syncBusy - o.syncBusy}
}

func newSyncFS(modelled bool) *syncFS {
	return &syncFS{inner: vfs.Default(), modelled: modelled, files: make(map[string]*fileState)}
}

func (f *syncFS) counts() fsCounts {
	f.mu.Lock()
	defer f.mu.Unlock()
	return fsCounts{f.writes, f.bytes, f.syncs, f.syncBusy}
}

// unsynced is the number of bytes written but not yet covered by a Sync.
func (f *syncFS) unsynced() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	var n int64
	for _, st := range f.files {
		n += st.size - st.synced
	}
	return n
}

// Crash cuts every file to its last-synced length and fails all later
// calls. It returns the number of bytes lost.
func (f *syncFS) Crash() (int64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.crashed = true
	names := make([]string, 0, len(f.files))
	for name := range f.files {
		names = append(names, name)
	}
	sort.Strings(names)
	var lost int64
	for _, name := range names {
		st := f.files[name]
		if st.size == st.synced {
			continue
		}
		if err := f.inner.Truncate(name, st.synced); err != nil {
			return lost, err
		}
		lost += st.size - st.synced
		st.size = st.synced
	}
	return lost, nil
}

func (f *syncFS) alive() error {
	if f.crashed {
		return errCrashed
	}
	return nil
}

func (f *syncFS) OpenFile(name string, flag int, perm fs.FileMode) (vfs.File, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.alive(); err != nil {
		return nil, err
	}
	inner, err := f.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	st := f.files[name]
	if st == nil {
		// First sight of the path: whatever is already there was written by
		// someone else and is taken as durable.
		st = &fileState{}
		if info, err := f.inner.Stat(name); err == nil {
			st.size, st.synced = info.Size(), info.Size()
		}
		f.files[name] = st
	}
	if flag&os.O_TRUNC != 0 {
		st.size, st.synced = 0, 0
	}
	return &syncFile{fs: f, inner: inner, st: st}, nil
}

func (f *syncFS) ReadFile(name string) ([]byte, error) {
	f.mu.Lock()
	err := f.alive()
	f.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return f.inner.ReadFile(name)
}

// Rename moves the tracked lengths with the file. The directory entry is
// taken as durable at once: the callers here sync the file before renaming
// it, and that content is what this benchmark's crash preserves.
func (f *syncFS) Rename(oldpath, newpath string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.alive(); err != nil {
		return err
	}
	if err := f.inner.Rename(oldpath, newpath); err != nil {
		return err
	}
	if st, ok := f.files[oldpath]; ok {
		f.files[newpath] = st
		delete(f.files, oldpath)
	}
	return nil
}

func (f *syncFS) Remove(name string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.alive(); err != nil {
		return err
	}
	delete(f.files, name)
	return f.inner.Remove(name)
}

func (f *syncFS) Truncate(name string, size int64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.alive(); err != nil {
		return err
	}
	if err := f.inner.Truncate(name, size); err != nil {
		return err
	}
	if st, ok := f.files[name]; ok {
		st.truncate(size)
	}
	return nil
}

func (f *syncFS) Stat(name string) (fs.FileInfo, error) { return f.inner.Stat(name) }

func (f *syncFS) SyncDir(name string) error {
	f.mu.Lock()
	err := f.alive()
	f.mu.Unlock()
	if err != nil {
		return err
	}
	start := time.Now()
	if f.modelled {
		deviceWait(syncBase)
	} else {
		err = f.inner.SyncDir(name)
	}
	f.mu.Lock()
	f.syncs++
	f.syncBusy += time.Since(start)
	f.mu.Unlock()
	return err
}

func (st *fileState) truncate(size int64) {
	st.size = size
	st.synced = min(st.synced, size)
}

// syncFile is one open handle; pos mirrors the operating system's offset so
// a write's end is known without asking.
type syncFile struct {
	fs    *syncFS
	inner vfs.File
	st    *fileState
	pos   int64
}

func (h *syncFile) Write(p []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if err := h.fs.alive(); err != nil {
		return 0, err
	}
	n, err := h.inner.Write(p)
	h.pos += int64(n)
	h.st.size = max(h.st.size, h.pos)
	h.fs.writes++
	h.fs.bytes += int64(n)
	return n, err
}

func (h *syncFile) Read(p []byte) (int, error) {
	n, err := h.inner.Read(p)
	h.pos += int64(n)
	return n, err
}

func (h *syncFile) Seek(offset int64, whence int) (int64, error) {
	pos, err := h.inner.Seek(offset, whence)
	if err == nil {
		h.pos = pos
	}
	return pos, err
}

func (h *syncFile) Truncate(size int64) error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if err := h.fs.alive(); err != nil {
		return err
	}
	if err := h.inner.Truncate(size); err != nil {
		return err
	}
	h.st.truncate(size)
	return nil
}

// Sync waits outside the lock — it is the slow call group commit overlaps
// with further appends — and then marks the length seen before it started
// as durable, unless the device crashed meanwhile.
func (h *syncFile) Sync() error {
	h.fs.mu.Lock()
	if err := h.fs.alive(); err != nil {
		h.fs.mu.Unlock()
		return err
	}
	size := h.st.size
	fresh := max(size-h.st.synced, 0)
	h.fs.mu.Unlock()
	start := time.Now()
	var err error
	if h.fs.modelled {
		deviceWait(syncBase + time.Duration(fresh)*syncPerByte)
	} else {
		err = h.inner.Sync()
	}
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	h.fs.syncs++
	h.fs.syncBusy += time.Since(start)
	if err == nil {
		err = h.fs.alive()
	}
	if err != nil {
		return err
	}
	// A truncate that ran meanwhile may have shortened the file.
	h.st.synced = max(h.st.synced, min(size, h.st.size))
	return nil
}

func (h *syncFile) Close() error { return h.inner.Close() }

// deviceWait spins for d. It does not block, because on this sandbox every
// blocking wait takes about a millisecond to wake from whatever was asked
// (time.Sleep(200µs) measured 1.2 ms; nanosleep(200µs) 0.29 ms alone but
// 1.1 ms under the ingest load), and it does not yield, because a goroutine
// that keeps yielding keeps the run queue non-empty and so keeps the
// scheduler from polling the network (replies then waited for sysmon: p95
// 3 ms). The cost is that a modelled sync occupies one of the two
// processors while it lasts, where a disk would leave it free: work the
// program overlaps with a sync gains less here than it would on a device.
func deviceWait(d time.Duration) {
	for end := time.Now().Add(d); time.Now().Before(end); {
	}
}

func (f *syncFS) isCrashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}
