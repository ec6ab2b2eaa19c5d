package stats

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Canonical binary encoding, embedded per relation in checkpoint
// snapshots. The encoding is a pure function of the statistics state — no
// maps, no pointers, fixed field order — so decode∘encode is
// the identity byte-for-byte. That makes encoded statistics directly
// comparable across a primary, its recovery replay, and its followers.

// ErrCorrupt reports a statistics blob failing structural validation.
var ErrCorrupt = errors.New("stats: corrupt encoding")

func appendHist(dst []byte, h *Hist) []byte {
	dst = binary.AppendUvarint(dst, h.n)
	if h.n == 0 {
		return dst
	}
	dst = binary.AppendVarint(dst, h.min)
	dst = binary.AppendVarint(dst, h.max)
	dst = binary.AppendVarint(dst, h.width)
	dst = binary.AppendVarint(dst, h.origin)
	for _, c := range h.counts {
		dst = binary.AppendUvarint(dst, c)
	}
	return dst
}

func decodeHist(src []byte, h *Hist) (int, error) {
	n, sz := binary.Uvarint(src)
	if sz <= 0 {
		return 0, fmt.Errorf("%w: hist count", ErrCorrupt)
	}
	off := sz
	h.n = n
	if n == 0 {
		return off, nil
	}
	mn, sz := binary.Varint(src[off:])
	if sz <= 0 {
		return 0, fmt.Errorf("%w: hist min", ErrCorrupt)
	}
	off += sz
	mx, sz := binary.Varint(src[off:])
	if sz <= 0 || mx < mn {
		return 0, fmt.Errorf("%w: hist max", ErrCorrupt)
	}
	off += sz
	h.min, h.max = mn, mx
	w, sz := binary.Varint(src[off:])
	if sz <= 0 || w <= 0 {
		return 0, fmt.Errorf("%w: hist width", ErrCorrupt)
	}
	off += sz
	h.width = w
	o, sz := binary.Varint(src[off:])
	if sz <= 0 {
		return 0, fmt.Errorf("%w: hist origin", ErrCorrupt)
	}
	off += sz
	h.origin = o
	for i := range h.counts {
		c, sz := binary.Uvarint(src[off:])
		if sz <= 0 {
			return 0, fmt.Errorf("%w: hist bucket %d", ErrCorrupt, i)
		}
		off += sz
		h.counts[i] = c
	}
	return off, nil
}

func appendIntervalHist(dst []byte, ih *IntervalHist) []byte {
	dst = binary.AppendUvarint(dst, ih.N)
	dst = binary.AppendUvarint(dst, ih.LowOpen)
	dst = binary.AppendUvarint(dst, ih.Open)
	dst = appendHist(dst, &ih.Starts)
	dst = appendHist(dst, &ih.Ends)
	return appendHist(dst, &ih.Durs)
}

func decodeIntervalHist(src []byte, ih *IntervalHist) (int, error) {
	off := 0
	for _, p := range []*uint64{&ih.N, &ih.LowOpen, &ih.Open} {
		v, sz := binary.Uvarint(src[off:])
		if sz <= 0 {
			return 0, fmt.Errorf("%w: interval hist header", ErrCorrupt)
		}
		off += sz
		*p = v
	}
	for _, h := range []*Hist{&ih.Starts, &ih.Ends, &ih.Durs} {
		n, err := decodeHist(src[off:], h)
		if err != nil {
			return 0, err
		}
		off += n
	}
	return off, nil
}

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
	dst = appendIntervalHist(dst, &r.Valid)
	return appendIntervalHist(dst, &r.Trans)
}

// EncodeRel returns the canonical encoding of r.
func EncodeRel(r *Rel) []byte { return AppendRel(nil, r) }

// DecodeRel parses one encoded Rel, returning it and the bytes consumed.
func DecodeRel(src []byte) (*Rel, int, error) {
	if len(src) < 1 {
		return nil, 0, fmt.Errorf("%w: empty", ErrCorrupt)
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
		}
		r.Attrs[i].ks = ks
	}
	for _, ih := range []*IntervalHist{&r.Valid, &r.Trans} {
		n, err := decodeIntervalHist(src[off:], ih)
		if err != nil {
			return nil, 0, err
		}
		off += n
	}
	return r, off, nil
}
