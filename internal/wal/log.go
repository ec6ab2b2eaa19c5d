package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"time"

	"tdb/internal/vfs"
)

// File layout. A non-empty log starts with a 20-byte header: 8-byte magic,
// 8-byte big-endian epoch, 4-byte CRC-32 (Castagnoli) of magic+epoch. The
// epoch names the checkpoint era this log extends: it equals the Epoch of
// the snapshot that truncated the log (0 before the first checkpoint), and
// recovery uses it to prove that a snapshot and a log belong together
// before combining them. The header is written lazily with the first
// append, so an empty log file stays zero bytes (and carries no epoch —
// an empty log is trivially consistent with any snapshot).
//
// Frames follow: 4-byte big-endian payload length, 4-byte big-endian
// CRC-32 (Castagnoli) over the length bytes and the payload — covering the
// length means a bit-flip in the length field itself is also caught —
// then the payload. A frame that is incomplete or fails its CRC marks the
// end of the usable log; the tail beyond it is discarded on recovery (torn
// write after a crash).

const (
	frameHeader = 8
	headerLen   = 20
)

// HeaderLen is the size of the log file header in bytes, exported for the
// replication subsystem: a follower receiving a log byte stream from offset
// zero must strip and verify the header before the first frame.
const HeaderLen = headerLen

// FrameOverhead is the per-record framing cost (length + CRC), exported so
// replication can reason about frame boundaries in a shipped byte stream.
const FrameOverhead = frameHeader

var logMagic = []byte("TDBWAL02")

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// frameCRC is the per-record checksum: it covers the frame's length field
// and the payload.
func frameCRC(lenField, payload []byte) uint32 {
	return crc32.Update(crc32.Checksum(lenField, crcTable), crcTable, payload)
}

// encodeHeader renders the log file header for an epoch.
func encodeHeader(epoch uint64) []byte {
	h := make([]byte, headerLen)
	copy(h, logMagic)
	binary.BigEndian.PutUint64(h[8:16], epoch)
	binary.BigEndian.PutUint32(h[16:20], crc32.Checksum(h[:16], crcTable))
	return h
}

// DecodeHeader validates a log file header, returning its epoch. It is the
// check a replication follower runs on the first HeaderLen bytes of a
// shipped log stream before trusting any frame that follows.
func DecodeHeader(data []byte) (uint64, bool) { return decodeHeader(data) }

// decodeHeader validates a log file header, returning its epoch.
func decodeHeader(data []byte) (uint64, bool) {
	if len(data) < headerLen {
		return 0, false
	}
	if string(data[:8]) != string(logMagic) {
		return 0, false
	}
	if crc32.Checksum(data[:16], crcTable) != binary.BigEndian.Uint32(data[16:20]) {
		return 0, false
	}
	return binary.BigEndian.Uint64(data[8:16]), true
}

// ErrClosed reports use of a closed log.
var ErrClosed = errors.New("wal: log closed")

// ErrTorn reports a log disabled by a failed append whose partial write
// could not be rolled back: frames appended after the torn bytes would sit
// beyond the tear, where recovery's torn-tail rule silently discards them,
// so the log refuses further appends until it is truncated or reopened
// through recovery.
var ErrTorn = errors.New("wal: log torn by failed append")

// ErrUnknownFormat reports a log file whose leading bytes are neither the
// current header nor a provably torn first append: a headerless legacy log,
// a foreign file, or bit rot inside the header. Recovery refuses to touch
// such a file — truncating it would irreversibly destroy history that an
// operator (or a migration tool) may still be able to read.
var ErrUnknownFormat = errors.New("wal: unrecognized log file format")

// Log is an append-only write-ahead log file. All I/O goes through the
// vfs.FS it was opened with, which is how fault-injection tests reach it.
//
// A Log is safe for concurrent use: an internal mutex serializes appends,
// truncation, and close against each other, so the group-commit leader can
// flush batches while replication readers consult Size and Records without
// holding the database's lock.
type Log struct {
	mu      sync.Mutex
	fsys    vfs.FS
	f       vfs.File
	size    int64 // current end offset; 0 means the header is unwritten
	records int   // complete records this Log has appended or been seeded with
	epoch   uint64
	sync    bool
	closed  bool
	failed  bool // a torn append could not be rolled back; appends refused
}

// Options configure a Log.
type Options struct {
	// Sync forces an fsync after every append; slower, but a crash loses at
	// most the in-flight transaction. Off by default (the OS flushes).
	Sync bool
	// Epoch is the checkpoint era stamped into the file header when this
	// log writes its first frame into an empty file. Recovery supplies the
	// era it recovered to; zero is the pre-first-checkpoint era.
	Epoch uint64
	// Records seeds the log's record count with what a recovery scan found
	// in the existing file, so Records() stays exact across reopen.
	Records int
}

// Open opens (creating if needed) the log at path for appending through
// fsys. A nil fsys uses the operating system.
func Open(fsys vfs.FS, path string, opts Options) (*Log, error) {
	if fsys == nil {
		fsys = vfs.Default()
	}
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open: %w", err)
	}
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: seek: %w", err)
	}
	return &Log{fsys: fsys, f: f, size: size, records: opts.Records, epoch: opts.Epoch, sync: opts.Sync}, nil
}

// Append writes one transaction record to the log. The first append into
// an empty file carries the header in the same write, so a torn first
// write can never leave a valid header with no usable epoch semantics.
func (l *Log) Append(r Record) error {
	return l.AppendPayloads([][]byte{EncodeRecord(r)})
}

// AppendPayloads writes a batch of already-encoded records as one file
// write — the group-commit flush path. The whole batch shares a single
// fsync when Sync is on, which is what amortizes the dominant durability
// cost across concurrent committers. Failure poisons exactly this batch:
// a failed write or fsync rolls the file back to the pre-batch size (so
// the log tail stays recoverable and later batches still land), and only
// if that rollback itself fails is the log poisoned with ErrTorn.
func (l *Log) AppendPayloads(payloads [][]byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.failed {
		return ErrTorn
	}
	pre := 0
	if l.size == 0 {
		pre = headerLen
	}
	total := pre
	for _, p := range payloads {
		total += frameHeader + len(p)
	}
	frame := make([]byte, total)
	if pre > 0 {
		copy(frame, encodeHeader(l.epoch))
	}
	off := pre
	for _, p := range payloads {
		binary.BigEndian.PutUint32(frame[off:off+4], uint32(len(p)))
		binary.BigEndian.PutUint32(frame[off+4:off+8], frameCRC(frame[off:off+4], p))
		copy(frame[off+frameHeader:], p)
		off += frameHeader + len(p)
	}
	n, err := l.f.Write(frame)
	if err != nil {
		// A short write leaves torn bytes after the last good frame.
		// Appending more frames there would put them beyond the tear, where
		// recovery's torn-tail rule silently discards them even though their
		// Append returned nil — so roll the file back to the pre-write size,
		// or failing that poison the log so nothing lands past the tear.
		if n > 0 {
			l.rollbackTo(l.size)
		}
		return fmt.Errorf("wal: append: %w", err)
	}
	pos := l.size
	l.size += int64(n)
	mRecords.Add(uint64(len(payloads)))
	mBytes.Add(uint64(len(frame)))
	if l.sync {
		start := time.Now()
		if err := l.f.Sync(); err != nil {
			// The bytes are in the file but not provably on disk. Roll the
			// whole batch back so the possible tear covers exactly the
			// records whose committers are being told they failed — every
			// frame before this batch stays durable and appendable-after.
			l.size = pos
			l.rollbackTo(pos)
			return fmt.Errorf("wal: sync: %w", err)
		}
		mFsync.ObserveSince(start)
		mFsyncs.Inc()
	}
	l.records += len(payloads)
	return nil
}

// rollbackTo truncates the file back to pos after a failed append, or
// poisons the log when the truncate itself fails. Callers hold l.mu.
func (l *Log) rollbackTo(pos int64) {
	if terr := l.f.Truncate(pos); terr != nil {
		l.failed = true
	} else if _, serr := l.f.Seek(pos, io.SeekStart); serr != nil {
		l.failed = true
	}
}

// Size returns the log's current end offset in bytes (header included once
// the first frame has been written). It is the replication cursor: a
// follower whose local log holds Size bytes of epoch E resumes streaming
// from exactly (E, Size). Size only ever reflects fully written frames, so
// reading the file below Size is safe while appends run concurrently.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// Records returns the number of complete records in the log file: the
// recovery-scan seed plus every record successfully appended since. A
// record whose batch failed and rolled back is never counted. An in-memory
// database has no log: a nil Log holds no records.
func (l *Log) Records() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.records
}

// AppendRaw writes raw bytes to the log verbatim, without framing them.
// It is the replication apply path: a follower receives byte windows of
// the primary's log — header and CRC-framed records exactly as written —
// and lands them locally so the two files stay byte-identical and byte
// offsets remain a shared cursor. The caller has already verified the
// bytes (header epoch and per-frame CRCs) and reports how many whole
// records they frame; a torn write is rolled back or poisons the log
// exactly as Append does.
func (l *Log) AppendRaw(raw []byte, records int) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.failed {
		return ErrTorn
	}
	n, err := l.f.Write(raw)
	if err != nil {
		if n > 0 {
			l.rollbackTo(l.size)
		}
		return fmt.Errorf("wal: append raw: %w", err)
	}
	l.size += int64(n)
	mBytes.Add(uint64(len(raw)))
	if l.sync {
		start := time.Now()
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("wal: sync: %w", err)
		}
		mFsync.ObserveSince(start)
		mFsyncs.Inc()
	}
	l.records += records
	return nil
}

// ErrFrameCorrupt reports a byte stream whose next frame fails its CRC or
// does not decode as a record. A file tail in this state is a torn write;
// a replication stream in this state is corruption in transit, and the
// follower must drop the connection and re-sync rather than apply it.
var ErrFrameCorrupt = errors.New("wal: corrupt frame in stream")

// ScanFrames parses complete CRC-framed records from the front of buf —
// the in-memory equivalent of Replay over a shipped byte window. It stops
// cleanly at an incomplete trailing frame (consumed reports how many bytes
// form whole verified frames; the caller keeps the remainder buffered) and
// fails with ErrFrameCorrupt when a complete frame fails its checksum or
// record decode. buf must start at a frame boundary: strip the file header
// with DecodeHeader first when scanning from offset zero.
func ScanFrames(buf []byte, fn func(Record) error) (consumed int, err error) {
	for {
		rest := buf[consumed:]
		if len(rest) < frameHeader {
			return consumed, nil
		}
		n := int64(binary.BigEndian.Uint32(rest[0:4]))
		if int64(len(rest)) < int64(frameHeader)+n {
			return consumed, nil
		}
		payload := rest[frameHeader : int64(frameHeader)+n]
		if frameCRC(rest[0:4], payload) != binary.BigEndian.Uint32(rest[4:8]) {
			return consumed, fmt.Errorf("%w: checksum mismatch at stream offset %d", ErrFrameCorrupt, consumed)
		}
		rec, err := DecodeRecord(payload)
		if err != nil {
			return consumed, fmt.Errorf("%w: %v", ErrFrameCorrupt, err)
		}
		if err := fn(rec); err != nil {
			return consumed, err
		}
		consumed += frameHeader + int(n)
	}
}

// Truncate discards the log's contents and starts a new epoch: the next
// append writes a fresh header carrying it. Used after a checkpoint has
// made the logged history redundant. Truncation removes any torn region a
// failed append left behind, so it also revives a log that Append had
// poisoned with ErrTorn.
func (l *Log) Truncate(epoch uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if err := l.f.Truncate(0); err != nil {
		return fmt.Errorf("wal: truncate: %w", err)
	}
	if _, err := l.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("wal: truncate seek: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: truncate sync: %w", err)
	}
	l.size = 0
	l.records = 0
	l.epoch = epoch
	l.failed = false
	return nil
}

// Close flushes and closes the log file.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if err := l.f.Sync(); err != nil {
		l.f.Close()
		return fmt.Errorf("wal: sync on close: %w", err)
	}
	return l.f.Close()
}

// ReplayResult summarizes a recovery pass.
type ReplayResult struct {
	// Records is the number of complete transactions replayed.
	Records int
	// Truncated reports whether a torn or corrupt tail was found (and, if
	// repair was requested, removed).
	Truncated bool
	// GoodBytes is the offset of the end of the last complete record.
	GoodBytes int64
	// Epoch is the checkpoint era from the file header; meaningful only
	// when HasEpoch is true.
	Epoch uint64
	// HasEpoch reports whether the file carried a valid header. An empty
	// (or headerless, torn-at-birth) log has no epoch.
	HasEpoch bool
}

// looksLegacy reports whether data begins with a complete, checksum-valid
// frame in the headerless pre-epoch log format (4-byte length, 4-byte
// payload-only CRC, payload; no file header). One valid leading frame is
// proof enough: the current format always starts with the TDBWAL02 header,
// and random corruption does not pass a CRC-32 plus a record decode. It is
// how Replay tells a legacy database apart from a torn first append.
func looksLegacy(data []byte) bool {
	if len(data) < frameHeader {
		return false
	}
	n := int64(binary.BigEndian.Uint32(data[0:4]))
	if int64(len(data)) < frameHeader+n {
		return false
	}
	payload := data[frameHeader : frameHeader+int(n)]
	if crc32.Checksum(payload, crcTable) != binary.BigEndian.Uint32(data[4:8]) {
		return false
	}
	_, err := DecodeRecord(payload)
	return err == nil
}

// Replay reads the log at path from the beginning, calling fn for every
// complete, checksum-valid record in order. When repair is true, a torn or
// corrupt tail is truncated away so subsequent appends start clean; a file
// provably torn mid-header (shorter than the header, with no legacy frame)
// is truncated to empty. A file in an unrecognized format — legacy,
// foreign, or header-rotted — fails with ErrUnknownFormat and is never
// mutated. A missing file replays zero records.
func Replay(fsys vfs.FS, path string, repair bool, fn func(Record) error) (ReplayResult, error) {
	if fsys == nil {
		fsys = vfs.Default()
	}
	var res ReplayResult
	data, err := fsys.ReadFile(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return res, nil
		}
		return res, fmt.Errorf("wal: replay read: %w", err)
	}
	off := int64(0)
	if len(data) > 0 {
		epoch, ok := decodeHeader(data)
		if !ok {
			if int64(len(data)) >= headerLen || looksLegacy(data) {
				// Not a torn first append: a tear preserves every byte
				// before it, so a torn current-format file without a valid
				// header is necessarily shorter than the header itself.
				// This is a headerless legacy log, a foreign file, or bit
				// rot inside the header — refuse without mutating, because
				// truncating would irreversibly destroy the history.
				return res, fmt.Errorf("%w: %s", ErrUnknownFormat, path)
			}
			// Shorter than the header and not a legacy frame: provably a
			// first append torn mid-header. Nothing in the file was ever
			// readable, so repair resets it to empty.
			res.Truncated = true
			if repair {
				if err := fsys.Truncate(path, 0); err != nil {
					return res, fmt.Errorf("wal: truncating torn header: %w", err)
				}
			}
			return res, nil
		}
		res.Epoch, res.HasEpoch = epoch, true
		off = headerLen
	}
	for {
		rest := data[off:]
		if len(rest) == 0 {
			break
		}
		if len(rest) < frameHeader {
			res.Truncated = true
			break
		}
		n := int64(binary.BigEndian.Uint32(rest[0:4]))
		sum := binary.BigEndian.Uint32(rest[4:8])
		if int64(len(rest)) < frameHeader+n {
			res.Truncated = true
			break
		}
		payload := rest[frameHeader : frameHeader+n]
		if frameCRC(rest[0:4], payload) != sum {
			res.Truncated = true
			break
		}
		rec, err := DecodeRecord(payload)
		if err != nil {
			// The frame checksummed correctly but the payload is not a
			// record we understand: stop, treating it as corruption.
			res.Truncated = true
			break
		}
		if err := fn(rec); err != nil {
			return res, fmt.Errorf("wal: replaying record %d: %w", res.Records, err)
		}
		res.Records++
		off += frameHeader + n
	}
	res.GoodBytes = off
	if res.Truncated && repair {
		if err := fsys.Truncate(path, off); err != nil {
			return res, fmt.Errorf("wal: truncating torn tail: %w", err)
		}
	}
	return res, nil
}
