package stats

import (
	"encoding/binary"
	"errors"
	"fmt"

	"tdb/temporal"
)

// Canonical binary encoding, embedded per relation in checkpoint
// snapshots: the axes byte, the three counters, one sketch per attribute,
// then the valid extent as a present byte and two varints. The encoding is
// a pure function of the statistics state — no maps, no pointers, fixed
// field order — so decode∘encode is the identity byte-for-byte. That makes
// encoded statistics directly comparable across a primary, its recovery
// replay, and its followers.

// ErrCorrupt reports a statistics blob failing structural validation.
var ErrCorrupt = errors.New("stats: corrupt encoding")

// AppendRel appends the canonical encoding of r to dst.
func AppendRel(dst []byte, r *Rel) []byte {
	var axes byte
	if r.HasValid {
		axes |= 1
	}
	if r.HasTrans {
		axes |= 2
	}
	dst = append(dst, axes)
	dst = binary.AppendUvarint(dst, r.Versions)
	dst = binary.AppendUvarint(dst, r.Closures)
	dst = binary.AppendUvarint(dst, r.Retractions)
	dst = binary.AppendUvarint(dst, uint64(len(r.Attrs)))
	for i := range r.Attrs {
		s := &r.Attrs[i]
		dst = binary.AppendUvarint(dst, uint64(len(s.ks)))
		for _, h := range s.ks {
			dst = binary.BigEndian.AppendUint64(dst, h)
		}
	}
	if !r.validOK {
		return append(dst, 0)
	}
	dst = append(dst, 1)
	dst = binary.AppendVarint(dst, int64(r.validLo))
	return binary.AppendVarint(dst, int64(r.validHi))
}

// EncodeRel returns the canonical encoding of r.
func EncodeRel(r *Rel) []byte { return AppendRel(nil, r) }

// DecodeRel parses one encoded Rel, returning it and the bytes consumed.
// It accepts only what AppendRel can produce: known axis bits, sketches in
// strictly ascending order within capacity, and an extent of finite
// endpoints with lo <= hi on a relation with a valid axis.
func DecodeRel(src []byte) (*Rel, int, error) {
	if len(src) < 1 || src[0] > 3 {
		return nil, 0, fmt.Errorf("%w: axes", ErrCorrupt)
	}
	r := &Rel{HasValid: src[0]&1 != 0, HasTrans: src[0]&2 != 0}
	off := 1
	for _, p := range []*uint64{&r.Versions, &r.Closures, &r.Retractions} {
		v, sz := binary.Uvarint(src[off:])
		if sz <= 0 {
			return nil, 0, fmt.Errorf("%w: counters", ErrCorrupt)
		}
		off += sz
		*p = v
	}
	arity, sz := binary.Uvarint(src[off:])
	if sz <= 0 || arity > 1<<16 {
		return nil, 0, fmt.Errorf("%w: arity", ErrCorrupt)
	}
	off += sz
	r.Attrs = make([]Sketch, arity)
	for i := range r.Attrs {
		n, sz := binary.Uvarint(src[off:])
		if sz <= 0 || n > SketchK {
			return nil, 0, fmt.Errorf("%w: sketch size", ErrCorrupt)
		}
		off += sz
		if uint64(len(src)-off) < n*8 {
			return nil, 0, fmt.Errorf("%w: sketch truncated", ErrCorrupt)
		}
		ks := make([]uint64, n)
		for j := range ks {
			ks[j] = binary.BigEndian.Uint64(src[off:])
			off += 8
			if j > 0 && ks[j] <= ks[j-1] {
				return nil, 0, fmt.Errorf("%w: sketch out of order", ErrCorrupt)
			}
		}
		r.Attrs[i].ks = ks
	}
	if off >= len(src) || src[off] > 1 || (src[off] == 1 && !r.HasValid) {
		return nil, 0, fmt.Errorf("%w: extent", ErrCorrupt)
	}
	r.validOK = src[off] == 1
	off++
	if !r.validOK {
		return r, off, nil
	}
	var ends [2]temporal.Chronon
	for i := range ends {
		v, sz := binary.Varint(src[off:])
		if sz <= 0 || !temporal.Chronon(v).IsFinite() {
			return nil, 0, fmt.Errorf("%w: extent endpoint", ErrCorrupt)
		}
		off += sz
		ends[i] = temporal.Chronon(v)
	}
	if ends[1] < ends[0] {
		return nil, 0, fmt.Errorf("%w: extent hi < lo", ErrCorrupt)
	}
	r.validLo, r.validHi = ends[0], ends[1]
	return r, off, nil
}
