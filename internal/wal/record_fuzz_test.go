package wal

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// oversizedOpCount is a record payload whose op count promises far more ops
// than there are bytes after it.
func oversizedOpCount() []byte {
	return binary.AppendUvarint(appendChronon(nil, 1), math.MaxInt64)
}

// TestDecodeRecordRefusesOversizedOpCount: every op takes at least one byte,
// so a count beyond the bytes left is a corrupt record, refused before it
// sizes an allocation.
func TestDecodeRecordRefusesOversizedOpCount(t *testing.T) {
	if _, err := DecodeRecord(oversizedOpCount()); err == nil {
		t.Fatal("a record promising 2⁶³−1 ops in no bytes decoded")
	}
}

// FuzzDecodeRecord feeds untrusted bytes to the record decoder — what replay
// does with every frame of the log, and a follower with every frame its
// primary sends. The decoder never panics, and a record it accepts reaches a
// fixed point under EncodeRecord∘DecodeRecord. Seeds: this package's sample
// records, the oversized op count, and the committed corpus under
// testdata/fuzz.
func FuzzDecodeRecord(f *testing.F) {
	f.Add(EncodeRecord(sampleRecord(f)))
	f.Add(EncodeRecord(Record{Commit: 7, Ops: []Op{{Code: OpDrop, Rel: "legacy"}}}))
	f.Add(EncodeRecord(Record{Commit: 1}))
	f.Add(oversizedOpCount())
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeRecord(data)
		if err != nil {
			return
		}
		enc := EncodeRecord(r)
		again, err := DecodeRecord(enc)
		if err != nil {
			t.Fatalf("re-decoding the re-encoded record: %v", err)
		}
		if !bytes.Equal(EncodeRecord(again), enc) {
			t.Fatal("EncodeRecord∘DecodeRecord is not at a fixed point after one round")
		}
	})
}
