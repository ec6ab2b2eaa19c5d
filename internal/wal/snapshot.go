package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"time"

	"tdb/internal/core"
	"tdb/internal/schema"
	"tdb/internal/segment"
	"tdb/internal/vfs"
	"tdb/temporal"
)

// Snapshot is a checkpoint of a whole database: every relation with every
// version its kind keeps (superseded ones where it keeps a past — history
// survives checkpointing). Epoch is the checkpoint era this snapshot began:
// writing a snapshot with Epoch E covers the first Records records of the
// era-(E-1) log, and the log truncated after installing it carries E in its
// header. Recovery compares the two epochs to prove a snapshot and a log
// belong together before combining them — the guard that makes the
// previous-snapshot fallback safe.
type Snapshot struct {
	LastCommit temporal.Chronon
	Epoch      uint64
	Records    int
	Relations  []RelationSnapshot
}

// RelationSnapshot is one relation's definition and contents.
//
// Blocks is the relation's log, whatever its kind, as segment blocks in
// position order: the sealed segments and, when Tail is set, the open one
// last. A kind that keeps no past is settled before it is checkpointed, so
// that its blocks hold its current rows alone.
type RelationSnapshot struct {
	Name   string
	Kind   core.Kind
	Event  bool
	Schema *schema.Schema
	Blocks []*segment.Segment
	Tail   bool
	// Stats is the relation's temporal-statistics section, an opaque blob
	// in the internal/stats canonical encoding. Never empty: checkpointing
	// writes one for every relation and decode rejects a section without.
	Stats []byte
}

// snapMagic opens the one snapshot format this build reads and writes: per
// relation, its segment blocks, a tail flag and a statistics blob, under a
// CRC that covers the magic too.
const snapMagic = "TDBSNAP7"

var (
	// ErrSnapshotCorrupt reports a snapshot failing its checksum or
	// structure.
	ErrSnapshotCorrupt = errors.New("wal: snapshot corrupt")
	// ErrSnapshotVersion reports a snapshot in one of the retired format
	// versions. Such a file is never parsed and never treated as empty: it
	// may be intact history that the build that wrote it can still open.
	ErrSnapshotVersion = errors.New("wal: unsupported snapshot version")
)

// EncodeSnapshot serializes a snapshot (magic + payload + CRC trailer).
func EncodeSnapshot(s Snapshot) []byte {
	payload := appendChronon(nil, s.LastCommit)
	payload = binary.AppendUvarint(payload, s.Epoch)
	payload = binary.AppendUvarint(payload, uint64(s.Records))
	payload = binary.AppendUvarint(payload, uint64(len(s.Relations)))
	for _, r := range s.Relations {
		payload = appendString(payload, r.Name)
		payload = appendSchema(append(payload, byte(r.Kind), bit(r.Event)), r.Schema)
		payload = binary.AppendUvarint(payload, uint64(len(r.Blocks)))
		for _, g := range r.Blocks {
			block := segment.AppendBlock(nil, g)
			payload = binary.AppendUvarint(payload, uint64(len(block)))
			payload = append(payload, block...)
		}
		payload = append(payload, bit(r.Tail))
		payload = binary.AppendUvarint(payload, uint64(len(r.Stats)))
		payload = append(payload, r.Stats...)
	}
	out := make([]byte, 0, len(snapMagic)+len(payload)+4)
	out = append(out, snapMagic...)
	out = append(out, payload...)
	// The checksum covers the magic too: format versions differ in a single
	// bit, so a payload-only CRC would let one flipped bit pass a file off
	// as another version.
	return binary.BigEndian.AppendUint32(out, crc32.Checksum(out, crcTable))
}

// DecodeSnapshot parses an encoded snapshot, verifying magic and CRC. A
// snapshot of another format version fails with ErrSnapshotVersion before
// any of it is interpreted.
func DecodeSnapshot(data []byte) (Snapshot, error) {
	var s Snapshot
	if len(data) < len(snapMagic)+4 {
		return s, fmt.Errorf("%w: short file", ErrSnapshotCorrupt)
	}
	switch magic := string(data[:len(snapMagic)]); magic {
	case snapMagic:
	case "TDBSNAP2", "TDBSNAP3", "TDBSNAP4", "TDBSNAP5", "TDBSNAP6":
		return s, fmt.Errorf("%w: file is %s, this build reads %s", ErrSnapshotVersion, magic, snapMagic)
	default:
		return s, fmt.Errorf("%w: bad magic", ErrSnapshotCorrupt)
	}
	payload := data[len(snapMagic) : len(data)-4]
	sum := binary.BigEndian.Uint32(data[len(data)-4:])
	if crc32.Checksum(data[:len(data)-4], crcTable) != sum {
		return s, fmt.Errorf("%w: checksum mismatch", ErrSnapshotCorrupt)
	}
	last, off, err := decodeChronon(payload)
	if err != nil {
		return s, fmt.Errorf("%w: %v", ErrSnapshotCorrupt, err)
	}
	s.LastCommit = last
	epoch, n := binary.Uvarint(payload[off:])
	if n <= 0 {
		return s, fmt.Errorf("%w: epoch", ErrSnapshotCorrupt)
	}
	off += n
	s.Epoch = epoch
	records, n := binary.Uvarint(payload[off:])
	if n <= 0 {
		return s, fmt.Errorf("%w: record count", ErrSnapshotCorrupt)
	}
	off += n
	s.Records = int(records)
	nRels, n := binary.Uvarint(payload[off:])
	if n <= 0 {
		return s, fmt.Errorf("%w: relation count", ErrSnapshotCorrupt)
	}
	off += n
	for i := uint64(0); i < nRels; i++ {
		var r RelationSnapshot
		name, n, err := decodeString(payload[off:])
		if err != nil {
			return s, fmt.Errorf("%w: %v", ErrSnapshotCorrupt, err)
		}
		r.Name = name
		off += n
		if off+2 > len(payload) {
			return s, fmt.Errorf("%w: short relation header", ErrSnapshotCorrupt)
		}
		r.Kind = core.Kind(payload[off])
		r.Event = payload[off+1] == 1
		off += 2
		sch, n, err := decodeSchema(payload[off:])
		if err != nil {
			return s, fmt.Errorf("%w: %v", ErrSnapshotCorrupt, err)
		}
		if sch == nil {
			return s, fmt.Errorf("%w: relation %q has no schema", ErrSnapshotCorrupt, r.Name)
		}
		r.Schema = sch
		off += n
		nBlocks, n := binary.Uvarint(payload[off:])
		if n <= 0 {
			return s, fmt.Errorf("%w: block count", ErrSnapshotCorrupt)
		}
		off += n
		for j := uint64(0); j < nBlocks; j++ {
			blen, n := binary.Uvarint(payload[off:])
			if n <= 0 {
				return s, fmt.Errorf("%w: segment block length", ErrSnapshotCorrupt)
			}
			off += n
			if blen > uint64(len(payload)-off) {
				return s, fmt.Errorf("%w: segment block truncated", ErrSnapshotCorrupt)
			}
			g, used, err := segment.DecodeBlock(payload[off:off+int(blen)], r.Schema)
			if err != nil {
				return s, fmt.Errorf("%w: %v", ErrSnapshotCorrupt, err)
			}
			if used != int(blen) {
				return s, fmt.Errorf("%w: segment block has %d trailing bytes", ErrSnapshotCorrupt, int(blen)-used)
			}
			off += int(blen)
			r.Blocks = append(r.Blocks, g)
		}
		if off >= len(payload) || payload[off] > bit(nBlocks > 0) {
			return s, fmt.Errorf("%w: tail flag", ErrSnapshotCorrupt)
		}
		r.Tail, off = payload[off] == 1, off+1
		slen, n := binary.Uvarint(payload[off:])
		if n <= 0 {
			return s, fmt.Errorf("%w: stats length", ErrSnapshotCorrupt)
		}
		off += n
		if slen == 0 {
			return s, fmt.Errorf("%w: relation %q has no statistics section", ErrSnapshotCorrupt, r.Name)
		}
		if slen > uint64(len(payload)-off) {
			return s, fmt.Errorf("%w: stats truncated", ErrSnapshotCorrupt)
		}
		r.Stats = append([]byte(nil), payload[off:off+int(slen)]...)
		off += int(slen)
		s.Relations = append(s.Relations, r)
	}
	if off != len(payload) {
		return s, fmt.Errorf("%w: %d trailing bytes", ErrSnapshotCorrupt, len(payload)-off)
	}
	return s, nil
}

// WriteSnapshot atomically installs the snapshot at path: a temp file in
// the same directory, fsynced, renamed over the destination, then the
// directory fsynced so the rename itself is durable. A crash at any point
// leaves either the old file or the new one — never a torn mixture.
func WriteSnapshot(fsys vfs.FS, path string, s Snapshot) error {
	if fsys == nil {
		fsys = vfs.Default()
	}
	start := time.Now()
	data := EncodeSnapshot(s)
	tmp := path + ".tmp"
	f, err := fsys.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return fmt.Errorf("wal: snapshot write: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return fmt.Errorf("wal: snapshot sync: %w", err)
	}
	if err := f.Close(); err != nil {
		fsys.Remove(tmp)
		return fmt.Errorf("wal: snapshot close: %w", err)
	}
	if err := fsys.Rename(tmp, path); err != nil {
		fsys.Remove(tmp)
		return fmt.Errorf("wal: snapshot rename: %w", err)
	}
	if err := fsys.SyncDir(path); err != nil {
		return fmt.Errorf("wal: snapshot dir sync: %w", err)
	}
	mSnapshot.ObserveSince(start)
	mSnapshotBytes.Add(uint64(len(data)))
	return nil
}

// ReadSnapshot loads a snapshot; a missing file returns ok=false with no
// error, and an unreadable one returns ErrSnapshotCorrupt or
// ErrSnapshotVersion (recovery then decides whether the previous snapshot
// can stand in).
func ReadSnapshot(fsys vfs.FS, path string) (Snapshot, bool, error) {
	if fsys == nil {
		fsys = vfs.Default()
	}
	data, err := fsys.ReadFile(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return Snapshot{}, false, nil
		}
		return Snapshot{}, false, fmt.Errorf("wal: snapshot read: %w", err)
	}
	s, err := DecodeSnapshot(data)
	if err != nil {
		return Snapshot{}, false, err
	}
	return s, true, nil
}
