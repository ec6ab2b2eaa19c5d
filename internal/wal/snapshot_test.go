package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"tdb/internal/core"
	"tdb/internal/segment"
	"tdb/internal/tuple"
	"tdb/internal/value"
	"tdb/temporal"
)

// promoRow is row i of the sample relations, asserted at from and, unless
// to is Forever, superseded at to.
func promoRow(i int, valid temporal.Interval, from, to temporal.Chronon) segment.Row {
	return segment.Row{
		Data:  tuple.New(value.NewString(fmt.Sprintf("p%03d", i)), value.NewString("assoc"), value.NewInstant(temporal.Chronon(i))),
		Valid: valid,
		Trans: temporal.Interval{From: from, To: to},
	}
}

// tailOf returns the blocks of a log holding rows alone in its open
// segment: its tail block.
func tailOf(t testing.TB, rows ...segment.Row) []*segment.Segment {
	t.Helper()
	lg := segment.NewLog(promoSchema(t))
	for _, r := range rows {
		lg.Append(r)
	}
	blocks, _ := lg.Blocks()
	return blocks
}

func sampleSnapshot(t testing.TB) Snapshot {
	t.Helper()
	return Snapshot{
		LastCommit: temporal.Date(1984, 2, 25),
		Epoch:      3,
		Records:    42,
		Relations: []RelationSnapshot{
			{
				Name: "faculty", Kind: core.Temporal, Event: false,
				Schema: promoSchema(t),
				Stats:  []byte{0x03, 0x02, 0x01}, // opaque to this package
				Blocks: tailOf(t,
					promoRow(0, temporal.Since(temporal.Date(1982, 12, 1)), temporal.Date(1982, 12, 1), temporal.Date(1982, 12, 7)),
					promoRow(1, temporal.Since(temporal.Date(1982, 12, 5)), temporal.Date(1982, 12, 15), temporal.Forever)),
				Tail: true,
			},
			{
				Name: "events", Kind: core.Historical, Event: true,
				Schema: promoSchema(t),
				Stats:  []byte{0x01},
			},
		},
	}
}

// kindsSnapshot holds one relation of each kind, each with a tail block of
// rows as the kind stores them: the universal valid period without valid
// time, current rows stamped at chronon 0 without a past.
func kindsSnapshot(t testing.TB) Snapshot {
	t.Helper()
	s := Snapshot{LastCommit: 90, Epoch: 1, Records: 7}
	for _, k := range []core.Kind{core.Static, core.StaticRollback, core.Historical, core.Temporal} {
		var rows []segment.Row
		for i := range 3 {
			valid, from, to := temporal.All, temporal.Chronon(10*i), temporal.Forever
			if k.SupportsHistorical() {
				valid = temporal.At(temporal.Chronon(i))
			}
			if !k.SupportsRollback() {
				from = 0
			} else if i == 0 {
				to = 50
			}
			rows = append(rows, promoRow(i, valid, from, to))
		}
		s.Relations = append(s.Relations, RelationSnapshot{Name: k.String(), Kind: k, Event: k.SupportsHistorical(),
			Schema: promoSchema(t), Stats: []byte{0x01}, Blocks: tailOf(t, rows...), Tail: true})
	}
	return s
}

// blocks renders a relation's contents as its blocks' bytes.
func blocks(r RelationSnapshot) [][]byte {
	var out [][]byte
	for _, g := range r.Blocks {
		out = append(out, segment.AppendBlock(nil, g))
	}
	return out
}

func snapshotsEqual(a, b Snapshot) bool {
	if a.LastCommit != b.LastCommit || a.Epoch != b.Epoch || a.Records != b.Records || len(a.Relations) != len(b.Relations) {
		return false
	}
	for i := range a.Relations {
		x, y := a.Relations[i], b.Relations[i]
		if x.Name != y.Name || x.Kind != y.Kind || x.Event != y.Event || x.Tail != y.Tail {
			return false
		}
		if x.Schema.String() != y.Schema.String() || !bytes.Equal(x.Stats, y.Stats) ||
			!slices.EqualFunc(blocks(x), blocks(y), bytes.Equal) {
			return false
		}
	}
	return true
}

func TestSnapshotRoundTrip(t *testing.T) {
	s := sampleSnapshot(t)
	dec, err := DecodeSnapshot(EncodeSnapshot(s))
	if err != nil {
		t.Fatal(err)
	}
	if !snapshotsEqual(s, dec) {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", s, dec)
	}
}

func TestSnapshotFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.snap")
	s := sampleSnapshot(t)
	if err := WriteSnapshot(nil, path, s); err != nil {
		t.Fatal(err)
	}
	dec, ok, err := ReadSnapshot(nil, path)
	if err != nil || !ok {
		t.Fatalf("read: %v, %v", ok, err)
	}
	if !snapshotsEqual(s, dec) {
		t.Fatal("file round trip mismatch")
	}
	// Overwrite is atomic and repeatable.
	s.Records = 0
	if err := WriteSnapshot(nil, path, s); err != nil {
		t.Fatal(err)
	}
	dec, _, err = ReadSnapshot(nil, path)
	if err != nil || dec.Records != 0 {
		t.Fatalf("overwrite: %+v, %v", dec, err)
	}
}

// sealedSampleLog builds a log of n promo rows, sealed, then tail more in
// its open segment.
func sealedSampleLog(t testing.TB, n, tail int) *segment.Log {
	t.Helper()
	lg := segment.NewLog(promoSchema(t))
	for i := 0; i < n+tail; i++ {
		to := temporal.Forever
		if i%3 == 0 {
			to = temporal.Chronon(i + 100)
		}
		lg.Append(promoRow(i, temporal.Since(temporal.Chronon(i)), temporal.Chronon(i), to))
		if i == n-1 && !lg.SealNow() {
			t.Fatal("seal failed")
		}
	}
	return lg
}

func TestSnapshotSegmentsRoundTrip(t *testing.T) {
	s := sampleSnapshot(t)
	lg := sealedSampleLog(t, 64, 5)
	s.Relations[0].Blocks, s.Relations[0].Tail = lg.Blocks()
	dec, err := DecodeSnapshot(EncodeSnapshot(s))
	if err != nil {
		t.Fatal(err)
	}
	if !snapshotsEqual(s, dec) {
		t.Fatal("blocks drifted")
	}
	if r := dec.Relations; len(r[0].Blocks) != 2 || !r[0].Tail || len(r[1].Blocks) != 0 || r[1].Tail {
		t.Fatalf("blocks: %d (tail %v), %d (tail %v)", len(r[0].Blocks), r[0].Tail, len(r[1].Blocks), r[1].Tail)
	}
	// Reattach the decoded blocks to a fresh log, the way recovery does, and
	// read it back.
	rows := func(lg *segment.Log) (out []segment.Row) {
		lg.Scan(segment.Pred{}, func(_ int, r segment.Row) bool { out = append(out, r); return true })
		return out
	}
	restored := segment.NewLog(promoSchema(t))
	anyPeriods := func(_, _ temporal.Interval) error { return nil }
	if err := restored.Restore(dec.Relations[0].Blocks, true, anyPeriods); err != nil {
		t.Fatal(err)
	}
	if got, want := restored.Stats(), lg.Stats(); got != want {
		t.Fatalf("layout %+v after restore, want %+v", got, want)
	}
	want, got := rows(lg), rows(restored)
	if len(want) != len(got) {
		t.Fatalf("rows: want %d got %d", len(want), len(got))
	}
	for i := range want {
		if !tuple.Equal(want[i].Data, got[i].Data) || want[i].Valid != got[i].Valid ||
			want[i].Trans != got[i].Trans {
			t.Fatalf("row %d: want %+v got %+v", i, want[i], got[i])
		}
	}
}

// Every kind's relation section carries its tail block through the codec.
func TestSnapshotTailOnEveryKind(t *testing.T) {
	s := kindsSnapshot(t)
	dec, err := DecodeSnapshot(EncodeSnapshot(s))
	if err != nil {
		t.Fatal(err)
	}
	if !snapshotsEqual(s, dec) {
		t.Fatal("round trip mismatch")
	}
	for _, r := range dec.Relations {
		if len(r.Blocks) != 1 || !r.Tail || r.Blocks[0].Len() != 3 {
			t.Fatalf("%s: tail block lost", r.Name)
		}
	}
	// A tail flag is 0 or 1, and 1 only after a block.
	for _, c := range []struct {
		flag byte
		s    RelationSnapshot
	}{
		{2, s.Relations[0]},
		{1, RelationSnapshot{Name: "r", Schema: promoSchema(t), Stats: []byte{1}}},
	} {
		enc := EncodeSnapshot(Snapshot{Relations: []RelationSnapshot{c.s}})
		enc[len(enc)-4-2-1] = c.flag // before the stats length and blob, and the CRC
		enc = binary.BigEndian.AppendUint32(enc[:len(enc)-4], crc32.Checksum(enc[:len(enc)-4], crcTable))
		if _, err := DecodeSnapshot(enc); !errors.Is(err, ErrSnapshotCorrupt) {
			t.Fatalf("tail flag %d after %d blocks: want ErrSnapshotCorrupt, got %v", c.flag, len(c.s.Blocks), err)
		}
	}
}

// Files in a retired format version are refused by their magic alone: a
// typed error distinct from corruption, with the payload never interpreted
// (it is garbage here) and the file never mistaken for an absent one.
func TestSnapshotRetiredVersionsRefused(t *testing.T) {
	for _, magic := range []string{"TDBSNAP2", "TDBSNAP3", "TDBSNAP4", "TDBSNAP5", "TDBSNAP6"} {
		old := append([]byte(magic), "not a payload any decoder should look at"...)
		_, err := DecodeSnapshot(old)
		if !errors.Is(err, ErrSnapshotVersion) || errors.Is(err, ErrSnapshotCorrupt) {
			t.Fatalf("%s: want ErrSnapshotVersion only, got %v", magic, err)
		}
		path := filepath.Join(t.TempDir(), "old.snap")
		if err := os.WriteFile(path, old, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok, err := ReadSnapshot(nil, path); ok || !errors.Is(err, ErrSnapshotVersion) {
			t.Fatalf("%s: ReadSnapshot ok=%v err=%v", magic, ok, err)
		}
	}
}

// Checkpointing writes a statistics section for every relation; a relation
// section without one is a damaged snapshot, not an older dialect.
func TestSnapshotWithoutStatsIsCorrupt(t *testing.T) {
	s := sampleSnapshot(t)
	s.Relations[1].Stats = nil
	if _, err := DecodeSnapshot(EncodeSnapshot(s)); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("relation without statistics: want ErrSnapshotCorrupt, got %v", err)
	}
}

func TestSnapshotMissingFile(t *testing.T) {
	_, ok, err := ReadSnapshot(nil, filepath.Join(t.TempDir(), "absent.snap"))
	if err != nil || ok {
		t.Fatalf("missing snapshot: ok=%v err=%v", ok, err)
	}
}

func TestSnapshotCorruptionDetected(t *testing.T) {
	enc := EncodeSnapshot(sampleSnapshot(t))
	r := rand.New(rand.NewSource(6))
	for trial := 0; trial < 200; trial++ {
		bad := append([]byte(nil), enc...)
		bad[r.Intn(len(bad))] ^= 1 << uint(r.Intn(8))
		if _, err := DecodeSnapshot(bad); err == nil {
			// A flipped bit must never yield a silently different snapshot;
			// decoding may only succeed if it decoded the original bytes
			// (impossible here since we flipped one).
			t.Fatalf("trial %d: corruption undetected", trial)
		}
	}
	// Truncations must error, never panic.
	for cut := 0; cut < len(enc); cut += 7 {
		if _, err := DecodeSnapshot(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}
