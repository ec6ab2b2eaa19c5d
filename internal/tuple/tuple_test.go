package tuple

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"

	"tdb/internal/schema"
	"tdb/internal/value"
	"tdb/temporal"
)

// mustSchema is schema.New for trusted literals; it panics on error.
func mustSchema(attrs ...schema.Attribute) *schema.Schema {
	s, err := schema.New(attrs...)
	if err != nil {
		panic(err)
	}
	return s
}

var faculty = mustSchema(
	schema.Attribute{Name: "name", Type: value.String},
	schema.Attribute{Name: "rank", Type: value.String},
)

func TestValidate(t *testing.T) {
	good := New(value.NewString("Merrie"), value.NewString("full"))
	if err := good.Validate(faculty); err != nil {
		t.Errorf("valid tuple rejected: %v", err)
	}
	short := New(value.NewString("Merrie"))
	if err := short.Validate(faculty); err == nil {
		t.Error("arity mismatch must be rejected")
	}
	wrong := New(value.NewString("Merrie"), value.NewInt(3))
	if err := wrong.Validate(faculty); err == nil {
		t.Error("kind mismatch must be rejected")
	}
}

func TestKeyProjection(t *testing.T) {
	tup := New(value.NewString("Merrie"), value.NewString("full"))
	// No explicit key: whole tuple.
	if k := tup.Key(faculty); !Equal(k, tup) {
		t.Errorf("whole-tuple key = %v", k)
	}
	keyed, err := faculty.WithKey("name")
	if err != nil {
		t.Fatal(err)
	}
	k := tup.Key(keyed)
	if len(k) != 1 || k[0].Str() != "Merrie" {
		t.Errorf("key = %v", k)
	}
}

func TestEqualAndHash(t *testing.T) {
	a := New(value.NewString("Tom"), value.NewString("associate"))
	b := New(value.NewString("Tom"), value.NewString("associate"))
	c := New(value.NewString("Tom"), value.NewString("full"))
	if !Equal(a, b) {
		t.Error("value-equivalent tuples must be Equal")
	}
	if Equal(a, c) {
		t.Error("different tuples must not be Equal")
	}
	if Equal(a, a[:1]) {
		t.Error("different arities must not be Equal")
	}
	if a.Hash64() != b.Hash64() {
		t.Error("equal tuples must hash equal")
	}
	if a.Hash64() == c.Hash64() {
		t.Error("distinct tuples should hash distinct")
	}
}

func TestClone(t *testing.T) {
	a := New(value.NewString("Mike"), value.NewString("assistant"))
	b := a.Clone()
	b[1] = value.NewString("left")
	if a[1].Str() != "assistant" {
		t.Error("Clone must be independent")
	}
}

func TestString(t *testing.T) {
	a := New(value.NewString("Mike"), value.NewInt(3))
	if got := a.String(); got != "(Mike, 3)" {
		t.Errorf("String = %q", got)
	}
}

func randomTuple(r *rand.Rand) Tuple {
	n := 1 + r.Intn(6)
	out := make(Tuple, n)
	for i := range out {
		switch r.Intn(4) {
		case 0:
			out[i] = value.NewInt(r.Int63())
		case 1:
			out[i] = value.NewString(string(rune('a' + r.Intn(26))))
		case 2:
			out[i] = value.NewBool(r.Intn(2) == 0)
		default:
			out[i] = value.NewInstant(temporal.Chronon(r.Int63n(1 << 32)))
		}
	}
	return out
}

func TestBinaryRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 1000; trial++ {
		tup := randomTuple(r)
		enc := tup.AppendBinary(nil)
		dec, n, err := DecodeBinary(enc)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if n != len(enc) || !Equal(tup, dec) {
			t.Fatalf("round trip %v -> %v (n=%d of %d)", tup, dec, n, len(enc))
		}
	}
}

func TestDecodeBinaryErrors(t *testing.T) {
	if _, _, err := DecodeBinary(nil); err == nil {
		t.Error("empty buffer must error")
	}
	if _, _, err := DecodeBinary([]byte{2, 0, byte(value.Int)}); err == nil {
		t.Error("truncated tuple must error")
	}
}

func TestEmptyTupleRoundTrip(t *testing.T) {
	enc := Tuple{}.AppendBinary(nil)
	dec, n, err := DecodeBinary(enc)
	if err != nil || n != 2 || len(dec) != 0 {
		t.Errorf("empty tuple round trip: %v %d %v", dec, n, err)
	}
}

// Key hashes are written into checkpoint blocks, so Hash64 must stay what it
// was when it went through hash/fnv: FNV-1a over each value's hash as eight
// little-endian bytes. KeyHash and HasKey are Key().Hash64() and
// Equal(Key(), ·) without the projected tuple, under an explicit key (in
// either attribute order) and under the whole-tuple key, and allocate nothing.
func TestKeyHashAndHasKey(t *testing.T) {
	base := mustSchema(
		schema.Attribute{Name: "name", Type: value.String},
		schema.Attribute{Name: "rank", Type: value.String},
		schema.Attribute{Name: "n", Type: value.Int},
	)
	tup := New(value.NewString("Tom"), value.NewString(""), value.NewInt(-7))
	ref := fnv.New64a()
	for _, v := range tup {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v.Hash64())
		ref.Write(b[:])
	}
	if tup.Hash64() != ref.Sum64() {
		t.Fatalf("Hash64 = %#x, FNV-1a of the value hashes is %#x", tup.Hash64(), ref.Sum64())
	}
	for _, names := range [][]string{nil, {"name"}, {"n", "name"}, {"name", "rank", "n"}} {
		s, err := base.WithKey(names...)
		if err != nil {
			t.Fatal(err)
		}
		key := tup.Key(s)
		if tup.KeyHash(s) != key.Hash64() {
			t.Errorf("key %v: KeyHash differs from Key().Hash64()", names)
		}
		other := key.Clone()
		other[len(other)-1] = value.NewString("x")
		if !tup.HasKey(s, key) || tup.HasKey(s, other) || tup.HasKey(s, key[:len(key)-1]) {
			t.Errorf("key %v: HasKey disagrees with Equal(Key(), ·)", names)
		}
		if a := testing.AllocsPerRun(100, func() { _ = tup.KeyHash(s); _ = tup.HasKey(s, key) }); a != 0 {
			t.Errorf("key %v: KeyHash+HasKey allocate %v times", names, a)
		}
	}
}
