// Package tuple implements the tuples stored in relations: flat slices of
// typed values validated against a schema, with key projection, hashing and
// a binary codec built from the value codec.
package tuple

import (
	"fmt"
	"strings"

	"tdb/internal/schema"
	"tdb/internal/value"
)

// Tuple is an ordered list of attribute values. Tuples are treated as
// immutable once handed to a store; Clone before mutating.
type Tuple []value.Value

// New builds a tuple from values.
func New(vals ...value.Value) Tuple { return Tuple(vals) }

// Validate checks the tuple against a schema: arity and per-attribute kind.
func (t Tuple) Validate(s *schema.Schema) error {
	if len(t) != s.Arity() {
		return fmt.Errorf("tuple: arity %d does not match schema arity %d", len(t), s.Arity())
	}
	for i, v := range t {
		if want := s.Attr(i).Type; v.Kind() != want {
			return fmt.Errorf("tuple: attribute %q: have %s, want %s", s.Attr(i).Name, v.Kind(), want)
		}
	}
	return nil
}

// Key projects the tuple onto the schema's key attributes; with no explicit
// key the whole tuple is the key.
func (t Tuple) Key(s *schema.Schema) Tuple {
	ks := s.KeyAttrs()
	if len(ks) == 0 {
		return t
	}
	out := make(Tuple, len(ks))
	for i, k := range ks {
		out[i] = t[k]
	}
	return out
}

// KeyHash is t.Key(s).Hash64() without building the key.
func (t Tuple) KeyHash(s *schema.Schema) uint64 { return t.hashAt(s.KeyAttrs()) }

// HasKey is Equal(t.Key(s), key) without building t's key.
func (t Tuple) HasKey(s *schema.Schema, key Tuple) bool {
	ks := s.KeyAttrs()
	if len(ks) == 0 {
		return Equal(t, key)
	}
	if len(key) != len(ks) {
		return false
	}
	for i, k := range ks {
		if !value.Equal(t[k], key[i]) {
			return false
		}
	}
	return true
}

// Equal reports whether two tuples agree value-for-value. This is the
// paper's "value-equivalence": tuples that may differ in their (implicit)
// time stamps but carry the same data.
func Equal(a, b Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !value.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// Hash64 returns a stable hash of the tuple contents.
func (t Tuple) Hash64() uint64 { return t.hashAt(nil) }

// hashAt hashes the values at positions ks, every value when ks is empty:
// FNV-1a over their hashes as eight little-endian bytes each. Key hashes are
// stored in checkpoint blocks, so this is part of the on-disk format.
func (t Tuple) hashAt(ks []int) uint64 {
	n := len(ks)
	if n == 0 {
		n = len(t)
	}
	h := uint64(14695981039346656037)
	for i := 0; i < n; i++ {
		v := &t[i]
		if len(ks) > 0 {
			v = &t[ks[i]]
		}
		u := v.Hash64()
		for b := 0; b < 8; b++ {
			h = (h ^ u&0xff) * 1099511628211
			u >>= 8
		}
	}
	return h
}

// Clone returns an independent copy.
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// String renders the tuple as a parenthesized value list.
func (t Tuple) String() string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = v.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// AppendBinary appends the encoded tuple (arity-prefixed) to dst.
func (t Tuple) AppendBinary(dst []byte) []byte {
	dst = append(dst, byte(len(t)), byte(len(t)>>8))
	for _, v := range t {
		dst = v.AppendBinary(dst)
	}
	return dst
}

// DecodeBinary decodes one tuple from the front of src, returning it and the
// bytes consumed.
func DecodeBinary(src []byte) (Tuple, int, error) {
	if len(src) < 2 {
		return nil, 0, fmt.Errorf("tuple: short arity prefix")
	}
	arity := int(src[0]) | int(src[1])<<8
	off := 2
	out := make(Tuple, 0, arity)
	for i := 0; i < arity; i++ {
		v, n, err := value.DecodeBinary(src[off:])
		if err != nil {
			return nil, 0, fmt.Errorf("tuple: attribute %d: %w", i, err)
		}
		out = append(out, v)
		off += n
	}
	return out, off, nil
}
