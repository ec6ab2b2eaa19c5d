package wal

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"tdb/internal/core"
	"tdb/internal/schema"
	"tdb/internal/tuple"
	"tdb/internal/value"
	"tdb/temporal"
)

func promoSchema(t testing.TB) *schema.Schema {
	t.Helper()
	s, err := schema.New(
		schema.Attribute{Name: "name", Type: value.String},
		schema.Attribute{Name: "rank", Type: value.String},
		schema.Attribute{Name: "effective", Type: value.Instant},
	)
	if err != nil {
		t.Fatal(err)
	}
	keyed, err := s.WithKey("name")
	if err != nil {
		t.Fatal(err)
	}
	return keyed
}

func sampleRecord(t testing.TB) Record {
	t.Helper()
	return Record{
		Commit: temporal.Date(1982, 12, 15),
		Ops: []Op{
			{Code: OpCreate, Rel: "faculty", Kind: core.Temporal, Event: false, Schema: promoSchema(t)},
			{Code: OpAssert, Rel: "faculty",
				Tuple: tuple.New(value.NewString("Merrie"), value.NewString("full"), value.NewInstant(temporal.Date(1982, 12, 1))),
				Valid: temporal.Since(temporal.Date(1982, 12, 1))},
			{Code: OpRetract, Rel: "faculty",
				Key:   tuple.New(value.NewString("Mike")),
				Valid: temporal.Since(temporal.Date(1984, 3, 1))},
			{Code: OpAssertAt, Rel: "promotion",
				Tuple: tuple.New(value.NewString("Tom"), value.NewString("associate"), value.NewInstant(temporal.Date(1982, 12, 5))),
				At:    temporal.Date(1982, 12, 7)},
			{Code: OpRetractAt, Rel: "promotion",
				Key: tuple.New(value.NewString("Tom")),
				At:  temporal.Date(1982, 12, 5)},
			{Code: OpInsert, Rel: "static", Tuple: tuple.New(value.NewString("x"), value.NewString("y"), value.NewInstant(0))},
			{Code: OpDelete, Rel: "static", Key: tuple.New(value.NewString("x"))},
			{Code: OpReplace, Rel: "static",
				Key:   tuple.New(value.NewString("x")),
				Tuple: tuple.New(value.NewString("x"), value.NewString("z"), value.NewInstant(5))},
			{Code: OpDrop, Rel: "static"},
		},
	}
}

func recordsEqual(a, b Record) bool {
	if a.Commit != b.Commit || len(a.Ops) != len(b.Ops) {
		return false
	}
	for i := range a.Ops {
		x, y := a.Ops[i], b.Ops[i]
		if x.Code != y.Code || x.Rel != y.Rel || x.Valid != y.Valid ||
			x.At != y.At || x.Kind != y.Kind || x.Event != y.Event {
			return false
		}
		if !tuple.Equal(x.Tuple, y.Tuple) || !tuple.Equal(x.Key, y.Key) {
			return false
		}
		if (x.Schema == nil) != (y.Schema == nil) {
			return false
		}
		if x.Schema != nil {
			if x.Schema.String() != y.Schema.String() ||
				!reflect.DeepEqual(x.Schema.KeyIndices(), y.Schema.KeyIndices()) {
				return false
			}
		}
	}
	return true
}

func TestRecordRoundTrip(t *testing.T) {
	r := sampleRecord(t)
	enc := EncodeRecord(r)
	dec, err := DecodeRecord(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !recordsEqual(r, dec) {
		t.Fatalf("round trip:\n in  %+v\n out %+v", r, dec)
	}
}

func TestDecodeRecordErrors(t *testing.T) {
	good := EncodeRecord(sampleRecord(t))
	// Truncations at every boundary must error, never panic.
	for cut := 0; cut < len(good); cut++ {
		if _, err := DecodeRecord(good[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded successfully", cut)
		}
	}
	// Trailing garbage is rejected.
	if _, err := DecodeRecord(append(append([]byte{}, good...), 0xff)); err == nil {
		t.Error("trailing bytes accepted")
	}
	// Unknown op code.
	bad := EncodeRecord(Record{Commit: 1, Ops: []Op{{Code: OpCode(99), Rel: "r"}}})
	if _, err := DecodeRecord(bad); err == nil {
		t.Error("unknown op code accepted")
	}
}

func TestLogAppendReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tdb.wal")
	l, err := Open(nil, path, Options{Sync: true, Epoch: 7})
	if err != nil {
		t.Fatal(err)
	}
	recs := []Record{
		sampleRecord(t),
		{Commit: temporal.Date(1983, 1, 10), Ops: []Op{{Code: OpDrop, Rel: "faculty"}}},
	}
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal("double close must be a no-op:", err)
	}
	if err := l.Append(recs[0]); err != ErrClosed {
		t.Fatalf("append after close: %v", err)
	}

	var got []Record
	res, err := Replay(nil, path, false, func(r Record) error {
		got = append(got, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Records != 2 || res.Truncated {
		t.Fatalf("replay result = %+v", res)
	}
	if !res.HasEpoch || res.Epoch != 7 {
		t.Fatalf("header epoch = %d (has=%v), want 7", res.Epoch, res.HasEpoch)
	}
	for i := range recs {
		if !recordsEqual(recs[i], got[i]) {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

func TestReplayMissingFile(t *testing.T) {
	res, err := Replay(nil, filepath.Join(t.TempDir(), "nope.wal"), true, func(Record) error {
		t.Fatal("callback on missing file")
		return nil
	})
	if err != nil || res.Records != 0 || res.Truncated {
		t.Fatalf("missing file: %+v, %v", res, err)
	}
}

// Crash simulation: truncate the file at every byte offset; replay must
// recover every complete record before the tear, report truncation, and —
// with repair — leave a file that appends cleanly afterwards.
func TestReplayTornTail(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.wal")
	l, err := Open(nil, base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	recs := []Record{
		{Commit: 100, Ops: []Op{{Code: OpDrop, Rel: "a"}}},
		{Commit: 200, Ops: []Op{{Code: OpDrop, Rel: "bb"}}},
		{Commit: 300, Ops: []Op{{Code: OpDrop, Rel: "ccc"}}},
	}
	var bounds []int64
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
		fi, _ := os.Stat(base)
		bounds = append(bounds, fi.Size())
	}
	l.Close()
	full, err := os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}

	wantComplete := func(cut int64) int {
		n := 0
		for _, b := range bounds {
			if cut >= b {
				n++
			}
		}
		return n
	}

	for cut := int64(0); cut <= int64(len(full)); cut++ {
		path := filepath.Join(dir, "cut.wal")
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		var got int
		res, err := Replay(nil, path, true, func(r Record) error {
			got++
			return nil
		})
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if got != wantComplete(cut) {
			t.Fatalf("cut %d: replayed %d records, want %d", cut, got, wantComplete(cut))
		}
		// Clean cuts: empty file, exactly the header, or a record boundary.
		atBoundary := cut == 0 || cut == headerLen
		for _, b := range bounds {
			if cut == b {
				atBoundary = true
			}
		}
		if res.Truncated == atBoundary {
			t.Fatalf("cut %d: Truncated = %v, boundary = %v", cut, res.Truncated, atBoundary)
		}
		// After repair, appending and replaying again must work.
		l2, err := Open(nil, path, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := l2.Append(Record{Commit: 400, Ops: []Op{{Code: OpDrop, Rel: "post"}}}); err != nil {
			t.Fatal(err)
		}
		l2.Close()
		got = 0
		res2, err := Replay(nil, path, false, func(Record) error { got++; return nil })
		if err != nil || res2.Truncated {
			t.Fatalf("cut %d post-repair: %+v, %v", cut, res2, err)
		}
		if got != wantComplete(cut)+1 {
			t.Fatalf("cut %d post-repair: %d records, want %d", cut, got, wantComplete(cut)+1)
		}
	}
}

// Bit-flip corruption anywhere in the payload region must be detected by
// the CRC, stopping replay at the previous record.
func TestReplayDetectsCorruption(t *testing.T) {
	dir := t.TempDir()
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		path := filepath.Join(dir, fmt.Sprintf("c%d.wal", trial))
		l, err := Open(nil, path, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Append(Record{Commit: 100, Ops: []Op{{Code: OpDrop, Rel: "victim-record"}}}); err != nil {
			t.Fatal(err)
		}
		l.Close()
		data, _ := os.ReadFile(path)
		i := r.Intn(len(data))
		data[i] ^= 1 << uint(r.Intn(8))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		res, err := Replay(nil, path, false, func(Record) error { return nil })
		if i < headerLen {
			// Header corruption is refused outright, never repaired away:
			// the frames behind a rotted header may still be salvageable.
			if !errors.Is(err, ErrUnknownFormat) {
				t.Fatalf("trial %d: header corruption at byte %d: %v, want ErrUnknownFormat", trial, i, err)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if res.Records != 0 || !res.Truncated {
			t.Fatalf("trial %d: corruption at byte %d undetected: %+v", trial, i, res)
		}
	}
}

func TestRandomRecordRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	codes := []OpCode{OpCreate, OpDrop, OpInsert, OpDelete, OpReplace,
		OpAssert, OpRetract, OpAssertAt, OpRetractAt}
	sch := promoSchema(t)
	for trial := 0; trial < 500; trial++ {
		rec := Record{Commit: temporal.Chronon(r.Int63n(1 << 40))}
		for i, n := 0, r.Intn(5); i < n; i++ {
			op := Op{Code: codes[r.Intn(len(codes))], Rel: "rel"}
			tup := tuple.New(value.NewString("n"), value.NewString("r"), value.NewInstant(temporal.Chronon(r.Int63n(1000))))
			key := tuple.New(value.NewString("n"))
			switch op.Code {
			case OpCreate:
				op.Kind = core.Kind(r.Intn(4))
				op.Event = r.Intn(2) == 0
				op.Schema = sch
			case OpInsert:
				op.Tuple = tup
			case OpDelete:
				op.Key = key
			case OpReplace:
				op.Key, op.Tuple = key, tup
			case OpAssert:
				op.Tuple = tup
				op.Valid = temporal.Since(temporal.Chronon(r.Int63n(1000)))
			case OpRetract:
				op.Key = key
				op.Valid = temporal.Since(temporal.Chronon(r.Int63n(1000)))
			case OpAssertAt:
				op.Tuple = tup
				op.At = temporal.Chronon(r.Int63n(1000))
			case OpRetractAt:
				op.Key = key
				op.At = temporal.Chronon(r.Int63n(1000))
			}
			rec.Ops = append(rec.Ops, op)
		}
		dec, err := DecodeRecord(EncodeRecord(rec))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !recordsEqual(rec, dec) {
			t.Fatalf("trial %d mismatch", trial)
		}
	}
}
