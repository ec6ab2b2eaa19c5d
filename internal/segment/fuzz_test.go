package segment

import (
	"bytes"
	"fmt"
	"os"
	"testing"

	"tdb/internal/schema"
	"tdb/internal/tuple"
	"tdb/internal/value"
	"tdb/temporal"
)

// fuzzSchemas are the schemas FuzzDecodeBlock decodes against, picked by the
// input's first argument: the six-column schema TestCodecRoundTrip pins,
// then one single-column schema per column kind.
var fuzzSchemas = []*schema.Schema{
	testSchema(),
	mustSchema(schema.Attribute{Name: "c", Type: value.Int}),
	mustSchema(schema.Attribute{Name: "c", Type: value.Float}),
	mustSchema(schema.Attribute{Name: "c", Type: value.String}),
	mustSchema(schema.Attribute{Name: "c", Type: value.Bool}),
	mustSchema(schema.Attribute{Name: "c", Type: value.Instant}),
}

// kindBlock is one sealed segment of a single-column relation, encoded.
func kindBlock(sch *schema.Schema) []byte {
	vals := map[value.Kind]func(i int) value.Value{
		value.Int:     func(i int) value.Value { return value.NewInt(int64(i*i - 7)) },
		value.Float:   func(i int) value.Value { return value.NewFloat(float64(i) / 3) },
		value.String:  func(i int) value.Value { return value.NewString([]string{"", "a", "bc"}[i%3]) },
		value.Bool:    func(i int) value.Value { return value.NewBool(i%2 == 0) },
		value.Instant: func(i int) value.Value { return value.NewInstant(temporal.Chronon(1000 + i)) },
	}[sch.Attr(0).Type]
	l := NewLog(sch)
	for i := 0; i < 8; i++ {
		data := tuple.Tuple{vals(i)}
		valid := temporal.Since(temporal.Chronon(i))
		if i%3 == 1 {
			valid.To = temporal.Chronon(2 * (i + 1))
		}
		l.Append(Row{Data: data, Valid: valid, Trans: temporal.Since(temporal.Chronon(100 + i/2))})
	}
	l.CloseTrans(2, 105)
	l.SealNow()
	return AppendBlock(nil, l.Segments()[0])
}

// shardBlock is one sealed 64-row segment of the single-string-column
// relation, its column taking 16 values: a dictionary small enough for
// postings.
func shardBlock() []byte {
	sch := fuzzSchemas[3]
	l := NewLog(sch)
	for i := 0; i < 64; i++ {
		data := tuple.Tuple{value.NewString(fmt.Sprintf("s%02d", i*7%16))}
		l.Append(Row{Data: data, Valid: temporal.Since(temporal.Chronon(i)), Trans: temporal.Since(100)})
	}
	l.SealNow()
	return AppendBlock(nil, l.Segments()[0])
}

// FuzzDecodeBlock feeds untrusted bytes to the segment block decoder — what
// recovery does with every block of a checkpoint. The decoder never panics,
// and a block it accepts reaches a fixed point under AppendBlock∘DecodeBlock:
// re-encoding the decoded segment gives bytes that decode in full and
// re-encode to themselves. The decoded segment's postings list each code's
// rows. Decoding narrows columns as freezing does: appending the decoded
// segment's own rows to an open segment and freezing it gives a segment with
// the same column widths that encodes to those same bytes. Seeds: the
// parent-written blocks of testdata/parent_blocks.bin, one block per column
// kind, a string column of 16 values (shardBlock), and the segments of the
// narrowEdges histories.
func FuzzDecodeBlock(f *testing.F) {
	parent, err := os.ReadFile("testdata/parent_blocks.bin")
	if err != nil {
		f.Fatal(err)
	}
	for len(parent) > 0 {
		_, n, err := DecodeBlock(parent, fuzzSchemas[0])
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(0), parent[:n])
		parent = parent[n:]
	}
	for i := 1; i < len(fuzzSchemas); i++ {
		f.Add(uint8(i), kindBlock(fuzzSchemas[i]))
	}
	f.Add(uint8(3), shardBlock())
	for _, e := range narrowEdges {
		l, _ := e.build(f)
		f.Add(uint8(0), AppendBlock(nil, l.Segments()[0]))
	}
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		sch := fuzzSchemas[int(which)%len(fuzzSchemas)]
		g, n, err := DecodeBlock(data, sch)
		if err != nil {
			return
		}
		if n < 1 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		checkPostings(t, g)
		enc := AppendBlock(nil, g)
		again, m, err := DecodeBlock(enc, sch)
		if err != nil || m != len(enc) {
			t.Fatalf("re-decoding the re-encoded block: %d of %d bytes, %v", m, len(enc), err)
		}
		if !bytes.Equal(AppendBlock(nil, again), enc) {
			t.Fatal("AppendBlock∘DecodeBlock is not at a fixed point after one round")
		}
		sealed := openSegment(sch, g.start)
		for i := range g.Len() {
			sealed.append(g.row(i))
		}
		sealed.freeze()
		if widths(sealed) != widths(g) {
			t.Fatalf("decoded widths %s, sealed from its rows %s", widths(g), widths(sealed))
		}
		if !bytes.Equal(AppendBlock(nil, sealed), enc) {
			t.Fatal("sealing the decoded rows encodes to other bytes than the decoded segment")
		}
	})
}
