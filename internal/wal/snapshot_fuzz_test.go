package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"
)

// FuzzDecodeSnapshot feeds untrusted bytes to the snapshot decoder — what
// recovery and a follower's re-sync do with a snapshot file. The trailing
// checksum is recomputed over each input first, so the fuzzer explores the
// payload parser instead of dying at the CRC. The decoder never panics, and
// a snapshot it accepts reaches a fixed point under
// EncodeSnapshot∘DecodeSnapshot. Seeds: the sample snapshots of this
// package's tests, a tail block on every kind among them, plus the committed
// corpus under testdata/fuzz.
func FuzzDecodeSnapshot(f *testing.F) {
	f.Add(EncodeSnapshot(sampleSnapshot(f)))
	f.Add(EncodeSnapshot(Snapshot{}))
	sealed := sampleSnapshot(f)
	sealed.Relations[0].Blocks, sealed.Relations[0].Tail = sealedSampleLog(f, 40, 0).Blocks()
	f.Add(EncodeSnapshot(sealed))
	f.Add(EncodeSnapshot(kindsSnapshot(f)))
	sealed.Relations[0].Blocks, sealed.Relations[0].Tail = sealedSampleLog(f, 40, 6).Blocks()
	f.Add(EncodeSnapshot(sealed))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) >= len(snapMagic)+4 {
			body := data[:len(data)-4]
			data = binary.BigEndian.AppendUint32(body[:len(body):len(body)], crc32.Checksum(body, crcTable))
		}
		dec, err := DecodeSnapshot(data)
		if err != nil {
			return
		}
		enc := EncodeSnapshot(dec)
		again, err := DecodeSnapshot(enc)
		if err != nil {
			t.Fatalf("re-decoding the re-encoded snapshot: %v", err)
		}
		if !bytes.Equal(EncodeSnapshot(again), enc) {
			t.Fatal("EncodeSnapshot∘DecodeSnapshot is not at a fixed point after one round")
		}
	})
}
