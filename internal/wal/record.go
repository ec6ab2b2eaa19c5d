// Package wal implements durability for the database: a write-ahead log in
// which each committed transaction is one CRC-framed record. Recovery
// replays complete records in order and truncates any torn tail left by a
// crash. Because every store is deterministic given its operation stream
// and commit chronons, full replay reconstructs the exact bitemporal state,
// including superseded versions.
package wal

import (
	"encoding/binary"
	"fmt"

	"tdb/internal/core"
	"tdb/internal/schema"
	"tdb/internal/tuple"
	"tdb/internal/value"
	"tdb/temporal"
)

// OpCode identifies a logical operation within a transaction record.
type OpCode uint8

const (
	// OpCreate creates a relation (Rel, Kind, Event, Schema).
	OpCreate OpCode = iota + 1
	// OpDrop destroys a relation (Rel).
	OpDrop
	// OpInsert inserts Tuple into a static or rollback relation.
	OpInsert
	// OpDelete deletes by Key from a static or rollback relation.
	OpDelete
	// OpReplace replaces Key with Tuple in a static or rollback relation.
	OpReplace
	// OpAssert asserts Tuple over Valid in a historical/temporal relation.
	OpAssert
	// OpRetract retracts Key over Valid in a historical/temporal relation.
	OpRetract
	// OpAssertAt asserts event Tuple at instant At.
	OpAssertAt
	// OpRetractAt retracts Key's event at instant At.
	OpRetractAt
)

var opNames = [...]string{
	OpCreate: "create", OpDrop: "drop", OpInsert: "insert", OpDelete: "delete",
	OpReplace: "replace", OpAssert: "assert", OpRetract: "retract",
	OpAssertAt: "assert-at", OpRetractAt: "retract-at",
}

// String returns the op name.
func (c OpCode) String() string {
	if int(c) < len(opNames) && opNames[c] != "" {
		return opNames[c]
	}
	return fmt.Sprintf("op(%d)", uint8(c))
}

// Op is one logical operation. Which fields are meaningful depends on Code.
type Op struct {
	Code   OpCode
	Rel    string
	Tuple  tuple.Tuple       // data tuple (insert/replace/assert)
	Key    tuple.Tuple       // key tuple (delete/replace/retract)
	Valid  temporal.Interval // valid period (assert/retract)
	At     temporal.Chronon  // event instant (assert-at/retract-at)
	Kind   core.Kind         // create only
	Event  bool              // create only
	Schema *schema.Schema    // create only
}

// Record is one committed transaction: its commit chronon and operations.
type Record struct {
	Commit temporal.Chronon
	Ops    []Op
}

// appendString appends a uvarint-length-prefixed string.
func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func decodeString(src []byte) (string, int, error) {
	l, n := binary.Uvarint(src)
	if n <= 0 {
		return "", 0, fmt.Errorf("wal: corrupt string length")
	}
	if uint64(len(src)-n) < l {
		return "", 0, fmt.Errorf("wal: short string payload")
	}
	return string(src[n : n+int(l)]), n + int(l), nil
}

func appendChronon(dst []byte, c temporal.Chronon) []byte {
	return binary.AppendVarint(dst, int64(c))
}

func decodeChronon(src []byte) (temporal.Chronon, int, error) {
	v, n := binary.Varint(src)
	if n <= 0 {
		return 0, 0, fmt.Errorf("wal: corrupt chronon")
	}
	return temporal.Chronon(v), n, nil
}

func appendInterval(dst []byte, iv temporal.Interval) []byte {
	dst = appendChronon(dst, iv.From)
	return appendChronon(dst, iv.To)
}

func decodeInterval(src []byte) (temporal.Interval, int, error) {
	from, n1, err := decodeChronon(src)
	if err != nil {
		return temporal.Interval{}, 0, err
	}
	to, n2, err := decodeChronon(src[n1:])
	if err != nil {
		return temporal.Interval{}, 0, err
	}
	return temporal.Interval{From: from, To: to}, n1 + n2, nil
}

// appendTuple appends a presence byte and, if present, the tuple.
func appendTuple(dst []byte, t tuple.Tuple) []byte {
	if t == nil {
		return append(dst, 0)
	}
	dst = append(dst, 1)
	return t.AppendBinary(dst)
}

func decodeTuple(src []byte) (tuple.Tuple, int, error) {
	if len(src) == 0 {
		return nil, 0, fmt.Errorf("wal: missing tuple presence byte")
	}
	if src[0] == 0 {
		return nil, 1, nil
	}
	t, n, err := tuple.DecodeBinary(src[1:])
	if err != nil {
		return nil, 0, err
	}
	return t, 1 + n, nil
}

func appendSchema(dst []byte, s *schema.Schema) []byte {
	if s == nil {
		return binary.AppendUvarint(dst, 0)
	}
	dst = binary.AppendUvarint(dst, uint64(s.Arity()))
	for i := 0; i < s.Arity(); i++ {
		a := s.Attr(i)
		dst = appendString(dst, a.Name)
		dst = append(dst, byte(a.Type))
	}
	keys := s.KeyIndices()
	dst = binary.AppendUvarint(dst, uint64(len(keys)))
	for _, k := range keys {
		dst = binary.AppendUvarint(dst, uint64(k))
	}
	return dst
}

func decodeSchema(src []byte) (*schema.Schema, int, error) {
	arity, n := binary.Uvarint(src)
	if n <= 0 {
		return nil, 0, fmt.Errorf("wal: corrupt schema arity")
	}
	off := n
	if arity == 0 {
		return nil, off, nil
	}
	if arity > uint64(len(src)-off) { // every attribute takes at least a byte
		return nil, 0, fmt.Errorf("wal: schema arity %d exceeds its bytes", arity)
	}
	attrs := make([]schema.Attribute, 0, arity)
	for i := uint64(0); i < arity; i++ {
		name, n, err := decodeString(src[off:])
		if err != nil {
			return nil, 0, err
		}
		off += n
		if off >= len(src) {
			return nil, 0, fmt.Errorf("wal: short schema attribute")
		}
		attrs = append(attrs, schema.Attribute{Name: name, Type: value.Kind(src[off])})
		off++
	}
	s, err := schema.New(attrs...)
	if err != nil {
		return nil, 0, fmt.Errorf("wal: decoded schema invalid: %w", err)
	}
	nKeys, n := binary.Uvarint(src[off:])
	if n <= 0 {
		return nil, 0, fmt.Errorf("wal: corrupt schema key count")
	}
	off += n
	if nKeys > uint64(len(src)-off) {
		return nil, 0, fmt.Errorf("wal: schema key count %d exceeds its bytes", nKeys)
	}
	if nKeys > 0 {
		names := make([]string, 0, nKeys)
		for i := uint64(0); i < nKeys; i++ {
			ki, n := binary.Uvarint(src[off:])
			if n <= 0 {
				return nil, 0, fmt.Errorf("wal: corrupt schema key index")
			}
			off += n
			if ki >= arity {
				return nil, 0, fmt.Errorf("wal: schema key index %d out of range", ki)
			}
			names = append(names, s.Attr(int(ki)).Name)
		}
		if s, err = s.WithKey(names...); err != nil {
			return nil, 0, fmt.Errorf("wal: decoded schema key invalid: %w", err)
		}
	}
	return s, off, nil
}

// appendOp appends one encoded operation.
func appendOp(dst []byte, op Op) []byte {
	dst = append(dst, byte(op.Code))
	dst = appendString(dst, op.Rel)
	switch op.Code {
	case OpCreate:
		dst = appendSchema(append(dst, byte(op.Kind), bit(op.Event)), op.Schema)
	case OpDrop:
		// name only
	case OpInsert:
		dst = appendTuple(dst, op.Tuple)
	case OpDelete:
		dst = appendTuple(dst, op.Key)
	case OpReplace:
		dst = appendTuple(dst, op.Key)
		dst = appendTuple(dst, op.Tuple)
	case OpAssert:
		dst = appendTuple(dst, op.Tuple)
		dst = appendInterval(dst, op.Valid)
	case OpRetract:
		dst = appendTuple(dst, op.Key)
		dst = appendInterval(dst, op.Valid)
	case OpAssertAt:
		dst = appendTuple(dst, op.Tuple)
		dst = appendChronon(dst, op.At)
	case OpRetractAt:
		dst = appendTuple(dst, op.Key)
		dst = appendChronon(dst, op.At)
	}
	return dst
}

func decodeOp(src []byte) (Op, int, error) {
	if len(src) == 0 {
		return Op{}, 0, fmt.Errorf("wal: missing op code")
	}
	op := Op{Code: OpCode(src[0])}
	off := 1
	rel, n, err := decodeString(src[off:])
	if err != nil {
		return Op{}, 0, err
	}
	op.Rel = rel
	off += n
	switch op.Code {
	case OpCreate:
		if len(src) < off+2 {
			return Op{}, 0, fmt.Errorf("wal: short create op")
		}
		op.Kind = core.Kind(src[off])
		op.Event = src[off+1] == 1
		off += 2
		sch, n, err := decodeSchema(src[off:])
		if err != nil {
			return Op{}, 0, err
		}
		op.Schema = sch
		off += n
	case OpDrop:
	case OpInsert:
		op.Tuple, n, err = decodeTuple(src[off:])
		off += n
	case OpDelete:
		op.Key, n, err = decodeTuple(src[off:])
		off += n
	case OpReplace:
		if op.Key, n, err = decodeTuple(src[off:]); err == nil {
			off += n
			op.Tuple, n, err = decodeTuple(src[off:])
			off += n
		}
	case OpAssert:
		if op.Tuple, n, err = decodeTuple(src[off:]); err == nil {
			off += n
			op.Valid, n, err = decodeInterval(src[off:])
			off += n
		}
	case OpRetract:
		if op.Key, n, err = decodeTuple(src[off:]); err == nil {
			off += n
			op.Valid, n, err = decodeInterval(src[off:])
			off += n
		}
	case OpAssertAt:
		if op.Tuple, n, err = decodeTuple(src[off:]); err == nil {
			off += n
			op.At, n, err = decodeChronon(src[off:])
			off += n
		}
	case OpRetractAt:
		if op.Key, n, err = decodeTuple(src[off:]); err == nil {
			off += n
			op.At, n, err = decodeChronon(src[off:])
			off += n
		}
	default:
		return Op{}, 0, fmt.Errorf("wal: unknown op code %d", src[0])
	}
	if err != nil {
		return Op{}, 0, err
	}
	return op, off, nil
}

// EncodeRecord serializes a transaction record payload (without framing).
func EncodeRecord(r Record) []byte {
	dst := appendChronon(nil, r.Commit)
	dst = binary.AppendUvarint(dst, uint64(len(r.Ops)))
	for _, op := range r.Ops {
		dst = appendOp(dst, op)
	}
	return dst
}

// DecodeRecord parses a transaction record payload produced by
// EncodeRecord.
func DecodeRecord(src []byte) (Record, error) {
	var r Record
	commit, off, err := decodeChronon(src)
	if err != nil {
		return r, err
	}
	r.Commit = commit
	nOps, n := binary.Uvarint(src[off:])
	if n <= 0 {
		return r, fmt.Errorf("wal: corrupt op count")
	}
	off += n
	// Every op takes at least one byte, so a count beyond the bytes left is
	// corrupt — and must not size the allocation below.
	if nOps > uint64(len(src)-off) {
		return r, fmt.Errorf("wal: corrupt op count %d with %d bytes left", nOps, len(src)-off)
	}
	r.Ops = make([]Op, 0, nOps)
	for i := uint64(0); i < nOps; i++ {
		op, n, err := decodeOp(src[off:])
		if err != nil {
			return r, fmt.Errorf("wal: op %d: %w", i, err)
		}
		r.Ops = append(r.Ops, op)
		off += n
	}
	if off != len(src) {
		return r, fmt.Errorf("wal: %d trailing bytes in record", len(src)-off)
	}
	return r, nil
}

// bit is b as a byte, 1 or 0.
func bit(b bool) byte {
	if b {
		return 1
	}
	return 0
}
