package wal

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"tdb/internal/core"
	"tdb/internal/segment"
	"tdb/internal/tuple"
	"tdb/internal/value"
	"tdb/temporal"
)

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
				Versions: []core.Version{
					{
						Data:  tuple.New(value.NewString("Merrie"), value.NewString("full"), value.NewInstant(100)),
						Valid: temporal.Since(temporal.Date(1982, 12, 1)),
						Trans: temporal.Interval{From: temporal.Date(1982, 12, 15), To: temporal.Forever},
					},
					{
						Data:  tuple.New(value.NewString("Tom"), value.NewString("full"), value.NewInstant(200)),
						Valid: temporal.Since(temporal.Date(1982, 12, 5)),
						Trans: temporal.Interval{From: temporal.Date(1982, 12, 1), To: temporal.Date(1982, 12, 7)},
					},
				},
			},
			{
				Name: "events", Kind: core.Historical, Event: true,
				Schema: promoSchema(t),
				Stats:  []byte{0x01},
			},
		},
	}
}

func snapshotsEqual(a, b Snapshot) bool {
	if a.LastCommit != b.LastCommit || a.Epoch != b.Epoch || a.Records != b.Records || len(a.Relations) != len(b.Relations) {
		return false
	}
	for i := range a.Relations {
		x, y := a.Relations[i], b.Relations[i]
		if x.Name != y.Name || x.Kind != y.Kind || x.Event != y.Event {
			return false
		}
		if x.Schema.String() != y.Schema.String() || len(x.Versions) != len(y.Versions) || !bytes.Equal(x.Stats, y.Stats) {
			return false
		}
		for j := range x.Versions {
			vx, vy := x.Versions[j], y.Versions[j]
			if !tuple.Equal(vx.Data, vy.Data) || vx.Valid != vy.Valid || vx.Trans != vy.Trans {
				return false
			}
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

// sealedSampleSegment builds one sealed segment of n promo rows.
func sealedSampleSegment(t testing.TB, n int) *segment.Segment {
	t.Helper()
	lg := segment.NewLog(promoSchema(t))
	for i := 0; i < n; i++ {
		to := temporal.Forever
		if i%3 == 0 {
			to = temporal.Chronon(i + 100)
		}
		lg.Append(segment.Row{
			Data:    tuple.New(value.NewString(fmt.Sprintf("p%03d", i)), value.NewString("assoc"), value.NewInstant(temporal.Chronon(i))),
			Valid:   temporal.Since(temporal.Chronon(i)),
			Trans:   temporal.Interval{From: temporal.Chronon(i), To: to},
			KeyHash: uint64(i) * 0x9e3779b97f4a7c15,
		})
	}
	if !lg.SealNow() {
		t.Fatal("seal failed")
	}
	return lg.Segments()[0]
}

func TestSnapshotSegmentsRoundTrip(t *testing.T) {
	s := sampleSnapshot(t)
	s.Relations[0].Segments = []*segment.Segment{sealedSampleSegment(t, 64)}
	dec, err := DecodeSnapshot(EncodeSnapshot(s))
	if err != nil {
		t.Fatal(err)
	}
	if !snapshotsEqual(s, dec) {
		t.Fatal("row-wise parts drifted")
	}
	if len(dec.Relations[0].Segments) != 1 || len(dec.Relations[1].Segments) != 0 {
		t.Fatalf("segment counts: %d, %d", len(dec.Relations[0].Segments), len(dec.Relations[1].Segments))
	}
	// Reattach each side to a fresh log, the way recovery does, and read it.
	rows := func(g *segment.Segment) (out []segment.Row) {
		lg := segment.NewLog(promoSchema(t))
		if err := lg.RestoreSegment(g); err != nil {
			t.Fatal(err)
		}
		lg.Scan(segment.Pred{}, func(_ int, r segment.Row) bool { out = append(out, r); return true })
		return out
	}
	want, got := rows(s.Relations[0].Segments[0]), rows(dec.Relations[0].Segments[0])
	if len(want) != len(got) {
		t.Fatalf("segment rows: want %d got %d", len(want), len(got))
	}
	for i := range want {
		if !tuple.Equal(want[i].Data, got[i].Data) || want[i].Valid != got[i].Valid ||
			want[i].Trans != got[i].Trans || want[i].KeyHash != got[i].KeyHash {
			t.Fatalf("segment row %d: want %+v got %+v", i, want[i], got[i])
		}
	}
}

// Files in a retired format version are refused by their magic alone: a
// typed error distinct from corruption, with the payload never interpreted
// (it is garbage here) and the file never mistaken for an absent one.
func TestSnapshotRetiredVersionsRefused(t *testing.T) {
	for _, magic := range []string{"TDBSNAP2", "TDBSNAP3", "TDBSNAP4", "TDBSNAP5"} {
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
