package segment

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"

	"tdb/internal/schema"
	"tdb/internal/value"
	"tdb/temporal"
)

// Block codec: a segment serializes into one self-delimiting block, the
// unit a checkpoint snapshot (and, eventually, segment-granular replication
// shipping) moves around; the open segment encodes in place to the bytes
// freezing it would give. The encoding exploits the append-only shape of
// the data:
//
//   - transFrom is non-decreasing in commit order → first value zigzag,
//     then unsigned deltas;
//   - transTo and validTo never precede their From → unsigned distance from
//     From, with 0 reserved for Forever (the common open end);
//   - validFrom is near-sorted in time-series workloads → zigzag deltas
//     between consecutive rows;
//   - string columns ship their dictionary once plus per-row codes;
//   - key hashes ship raw (they are incompressible and recomputing a
//     million key projections at recovery would dominate restore time).
//
// The bloom filter, zone maps and string postings are not serialized: all
// derive from the arrays and are rebuilt at decode.

// AppendBlock appends the encoded segment, sealed or open, to dst.
func AppendBlock(dst []byte, g *Segment) []byte {
	dst = binary.AppendUvarint(dst, uint64(g.start))
	dst = binary.AppendUvarint(dst, uint64(g.n))

	prev := int64(0)
	for i := range g.n {
		v := g.transFrom.at(i)
		if i == 0 {
			dst = appendZigzag(dst, v)
		} else {
			dst = binary.AppendUvarint(dst, uint64(v-prev))
		}
		prev = v
	}
	for i := range g.n {
		dst = appendOpenEnd(dst, g.transTo.at(i), g.transFrom.at(i))
	}
	prev = 0
	for i := range g.n {
		v := g.validFrom.at(i)
		if i == 0 {
			dst = appendZigzag(dst, v)
		} else {
			dst = appendZigzag(dst, v-prev)
		}
		prev = v
	}
	for i := range g.n {
		dst = appendOpenEnd(dst, g.validTo.at(i), g.validFrom.at(i))
	}
	for a := range g.cols {
		c := &g.cols[a]
		dst = append(dst, byte(c.kind))
		switch c.kind {
		case value.Float:
			for _, f := range c.fls {
				dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
			}
		case value.String:
			dst = binary.AppendUvarint(dst, uint64(c.dictLen()))
			for d := 0; d < c.dictLen(); d++ {
				s := c.str(uint32(d))
				dst = binary.AppendUvarint(dst, uint64(len(s)))
				dst = append(dst, s...)
			}
			for _, code := range c.code {
				dst = binary.AppendUvarint(dst, uint64(code))
			}
		default:
			for i := range g.n {
				dst = appendZigzag(dst, c.ints.at(i))
			}
		}
	}
	for _, h := range g.keyHash {
		dst = binary.LittleEndian.AppendUint64(dst, h)
	}
	return dst
}

// DecodeBlock decodes one segment block from the front of src, returning
// the segment and the bytes consumed. The segment's zone maps, current
// count and bloom filter are rebuilt from the decoded arrays.
func DecodeBlock(src []byte, sch *schema.Schema) (*Segment, int, error) {
	off := 0
	start, _, err := readUvarint(src, &off)
	if err != nil {
		return nil, 0, fmt.Errorf("segment: block start: %w", err)
	}
	rows, _, err := readUvarint(src, &off)
	if err != nil {
		return nil, 0, fmt.Errorf("segment: block length: %w", err)
	}
	if rows == 0 || rows > uint64(len(src)) {
		return nil, 0, fmt.Errorf("segment: implausible block of %d rows", rows)
	}
	g := &Segment{sch: sch, start: int(start), n: int(rows), keyHash: make([]uint64, rows)}
	// The time columns decode into int64 scratch, then narrow as freezing does.
	transFrom, transTo, validFrom, validTo := make([]int64, rows), make([]int64, rows), make([]int64, rows), make([]int64, rows)
	prev := int64(0)
	for i := range transFrom {
		if i == 0 {
			if prev, err = readZigzag(src, &off); err != nil {
				return nil, 0, fmt.Errorf("segment: transFrom: %w", err)
			}
		} else {
			d, _, err := readUvarint(src, &off)
			if err != nil {
				return nil, 0, fmt.Errorf("segment: transFrom delta: %w", err)
			}
			prev += int64(d)
		}
		transFrom[i] = prev
	}
	for i := range transTo {
		if transTo[i], err = readOpenEnd(src, &off, transFrom[i]); err != nil {
			return nil, 0, fmt.Errorf("segment: transTo: %w", err)
		}
	}
	prev = 0
	for i := range validFrom {
		d, err := readZigzag(src, &off)
		if err != nil {
			return nil, 0, fmt.Errorf("segment: validFrom: %w", err)
		}
		if i == 0 {
			prev = d
		} else {
			prev += d
		}
		validFrom[i] = prev
	}
	for i := range validTo {
		if validTo[i], err = readOpenEnd(src, &off, validFrom[i]); err != nil {
			return nil, 0, fmt.Errorf("segment: validTo: %w", err)
		}
	}
	g.narrowTimes(transFrom, transTo, validFrom, validTo)
	g.cols = make([]column, sch.Arity())
	for a := range g.cols {
		if off >= len(src) {
			return nil, 0, fmt.Errorf("segment: column %d: short block", a)
		}
		kind := value.Kind(src[off])
		off++
		if want := sch.Attr(a).Type; kind != want {
			return nil, 0, fmt.Errorf("segment: column %d is %s, schema wants %s", a, kind, want)
		}
		c := &g.cols[a]
		c.kind = kind
		switch kind {
		case value.Float:
			c.fls = make([]float64, rows)
			for i := range c.fls {
				if off+8 > len(src) {
					return nil, 0, fmt.Errorf("segment: column %d: short float", a)
				}
				c.fls[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[off:]))
				off += 8
			}
		case value.String:
			dictLen, _, err := readUvarint(src, &off)
			if err != nil {
				return nil, 0, fmt.Errorf("segment: column %d dict: %w", a, err)
			}
			if dictLen > uint64(len(src)) {
				return nil, 0, fmt.Errorf("segment: column %d: implausible dict of %d", a, dictLen)
			}
			// One pass finds the entries' bounds, a second copies them into one blob.
			c.offs = make([]uint32, dictLen+1)
			first := off
			for d := range c.offs[1:] {
				slen, _, err := readUvarint(src, &off)
				if err != nil || slen > uint64(len(src)-off) || uint64(c.offs[d])+slen > math.MaxUint32 {
					return nil, 0, fmt.Errorf("segment: column %d dict entry: short block", a)
				}
				off += int(slen)
				c.offs[d+1] = c.offs[d] + uint32(slen)
			}
			var blob strings.Builder
			blob.Grow(int(c.offs[dictLen]))
			for d, at := 0, first; at < off; d++ {
				_, n := binary.Uvarint(src[at:])
				end := at + n + int(c.offs[d+1]-c.offs[d])
				blob.Write(src[at+n : end])
				at = end
			}
			c.blob = blob.String()
			// Only the dictionary freezing lays out: distinct entries, each
			// first used in order.
			firsts := make(map[string]bool, dictLen)
			c.code = make([]uint32, rows)
			for i := range c.code {
				code, _, err := readUvarint(src, &off)
				if err != nil {
					return nil, 0, fmt.Errorf("segment: column %d code: %w", a, err)
				}
				if code > uint64(len(firsts)) || code >= dictLen {
					return nil, 0, fmt.Errorf("segment: column %d code %d out of first-use order in dict of %d", a, code, dictLen)
				} else if code == uint64(len(firsts)) {
					firsts[c.str(uint32(code))] = true
				}
				c.code[i] = uint32(code)
			}
			if len(firsts) != c.dictLen() {
				return nil, 0, fmt.Errorf("segment: column %d: dictionary is not the one its codes make", a)
			}
		default:
			vs := make([]int64, rows)
			for i := range vs {
				if vs[i], err = readZigzag(src, &off); err != nil {
					return nil, 0, fmt.Errorf("segment: column %d: %w", a, err)
				} else if kind == value.Bool && uint64(vs[i]) > 1 {
					return nil, 0, fmt.Errorf("segment: column %d: bool %d", a, vs[i])
				}
			}
			c.ints = intsOf(vs, math.MaxInt64)
		}
	}
	for i := range g.keyHash {
		if off+8 > len(src) {
			return nil, 0, fmt.Errorf("segment: short key hashes")
		}
		g.keyHash[i] = binary.LittleEndian.Uint64(src[off:])
		off += 8
	}
	g.rebuildSummaries()
	return g, off, nil
}

// rebuildSummaries computes everything derivable from the arrays, at seal and
// decode: time zone maps, current count, attribute zones, the bloom filter
// and string postings.
func (g *Segment) rebuildSummaries() {
	g.minTransFrom, g.maxTransFrom = math.MaxInt64, math.MinInt64
	g.maxClosedTo = math.MinInt64
	g.minValidFrom, g.maxValidTo = math.MaxInt64, math.MinInt64
	g.current = 0
	forever := int64(temporal.Forever)
	for i := range g.n {
		from, to := g.transFrom.at(i), g.transTo.at(i)
		g.minTransFrom = min(g.minTransFrom, from)
		g.maxTransFrom = max(g.maxTransFrom, from)
		if to == forever {
			g.current++
		} else {
			g.maxClosedTo = max(g.maxClosedTo, to)
		}
		g.minValidFrom = min(g.minValidFrom, g.validFrom.at(i))
		g.maxValidTo = max(g.maxValidTo, g.validTo.at(i))
	}
	g.bloom = newBloom(g.keyHash)
	g.buildAttrZones()
	for a := range g.cols {
		g.cols[a].buildPostings(g.n)
	}
}

// appendOpenEnd encodes an interval end relative to its start: 0 for the
// open end Forever, otherwise 1 + the unsigned distance from the start.
func appendOpenEnd(dst []byte, to, from int64) []byte {
	if to == int64(temporal.Forever) {
		return binary.AppendUvarint(dst, 0)
	}
	return binary.AppendUvarint(dst, uint64(to-from)+1)
}

func readOpenEnd(src []byte, off *int, from int64) (int64, error) {
	d, _, err := readUvarint(src, off)
	if err != nil {
		return 0, err
	}
	if d == 0 {
		return int64(temporal.Forever), nil
	}
	return from + int64(d-1), nil
}

func appendZigzag(dst []byte, v int64) []byte {
	return binary.AppendUvarint(dst, uint64(v<<1)^uint64(v>>63))
}

func readZigzag(src []byte, off *int) (int64, error) {
	u, _, err := readUvarint(src, off)
	if err != nil {
		return 0, err
	}
	return int64(u>>1) ^ -int64(u&1), nil
}

func readUvarint(src []byte, off *int) (uint64, int, error) {
	v, n := binary.Uvarint(src[*off:])
	if n <= 0 {
		return 0, 0, fmt.Errorf("truncated varint")
	}
	*off += n
	return v, n, nil
}
