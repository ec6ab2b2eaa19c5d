package stats

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"tdb/internal/tuple"
	"tdb/internal/value"
	"tdb/temporal"
)

// Below capacity a KMV sketch holds every distinct hash, so the estimate is
// exact and duplicates are invisible.
func TestSketchExactBelowCapacity(t *testing.T) {
	var s Sketch
	rng := rand.New(rand.NewSource(1))
	seen := map[uint64]bool{}
	for len(seen) < SketchK-1 {
		h := rng.Uint64()
		seen[h] = true
		s.Add(h)
		s.Add(h) // duplicate: no effect
	}
	if got, want := s.Distinct(), float64(len(seen)); got != want {
		t.Errorf("Distinct() = %v, want exactly %v below capacity", got, want)
	}
}

// At capacity the estimator must stay within its theoretical error band.
// The relative standard error of KMV is ~1/sqrt(K-1) ≈ 6% at K=256; the
// seeded workloads here must land within 4 sigma of the truth.
func TestSketchNDVAccuracyBound(t *testing.T) {
	for _, n := range []int{1000, 5000, 20000, 100000} {
		var s Sketch
		rng := rand.New(rand.NewSource(int64(n)))
		distinct := map[int64]bool{}
		for len(distinct) < n {
			v := rng.Int63n(int64(n) * 4)
			distinct[v] = true
			s.Add(value.NewInt(v).Hash64())
		}
		// Replay some duplicates: the estimate must not move.
		before := s.Distinct()
		for v := range distinct {
			s.Add(value.NewInt(v).Hash64())
			break
		}
		if s.Distinct() != before {
			t.Errorf("n=%d: duplicate add moved the estimate", n)
		}
		relErr := math.Abs(s.Distinct()-float64(n)) / float64(n)
		if relErr > 4.0/math.Sqrt(SketchK-1) {
			t.Errorf("n=%d: estimate %.0f, relative error %.3f exceeds 4 sigma", n, s.Distinct(), relErr)
		}
	}
}

// The sketch state is a function of the set of values added: insertion
// order, duplication, and folding one sketch's retained minima into another
// all cancel out.
func TestSketchOrderAndMergeInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vals := make([]uint64, 2000)
	for i := range vals {
		vals[i] = rng.Uint64()
	}
	var fwd, rev, merged Sketch
	for _, v := range vals {
		fwd.Add(v)
	}
	for i := len(vals) - 1; i >= 0; i-- {
		rev.Add(vals[i])
		rev.Add(vals[i]) // duplicates
	}
	var left, right Sketch
	for i, v := range vals {
		if i%2 == 0 {
			left.Add(v)
		} else {
			right.Add(v)
		}
	}
	merged = left
	for _, h := range right.ks {
		merged.Add(h)
	}
	if !reflect.DeepEqual(fwd, rev) {
		t.Error("sketch state depends on insertion order")
	}
	if !reflect.DeepEqual(fwd, merged) {
		t.Error("merged sketch differs from the sketch of the union")
	}
}

// seededIntervals generates a mixed interval workload: short and long
// bounded intervals, still-open intervals, and a few unbounded-past ones.
func seededIntervals(seed int64, n int) []temporal.Interval {
	rng := rand.New(rand.NewSource(seed))
	base := int64(temporal.Date(1980, 1, 1))
	out := make([]temporal.Interval, 0, n)
	for i := 0; i < n; i++ {
		from := temporal.Chronon(base + rng.Int63n(3_000_000))
		var to temporal.Chronon
		switch rng.Intn(10) {
		case 0:
			to = temporal.Forever
		case 1:
			from, to = temporal.Beginning, temporal.Chronon(base+rng.Int63n(3_000_000))
		default:
			to = from + temporal.Chronon(1+rng.Int63n(400_000))
		}
		out = append(out, temporal.Interval{From: from, To: to})
	}
	return out
}

// ValidExtent is the span of every finite valid-time endpoint asserted: open
// ends contribute nothing, an instant contributes [at, at+1), and a span
// that collapses to one chronon widens to [lo, lo+1).
func TestValidExtent(t *testing.T) {
	at := temporal.Date(1983, 1, 1)
	for _, tc := range []struct {
		name   string
		ivs    []temporal.Interval
		lo, hi temporal.Chronon
		ok     bool
	}{
		{name: "seeded", ivs: seededIntervals(23, 4000), lo: 315533068, hi: 318916226, ok: true},
		{name: "all-open", ivs: []temporal.Interval{{From: temporal.Beginning, To: temporal.Forever}, {From: temporal.Beginning, To: temporal.Forever}}},
		{name: "beginning-only", ivs: []temporal.Interval{{From: temporal.Beginning, To: at + 300}, {From: temporal.Beginning, To: at}},
			lo: 410227200, hi: 410227500, ok: true},
		{name: "single-at", ivs: []temporal.Interval{temporal.At(at)}, lo: 410227200, hi: 410227201, ok: true},
		{name: "collapsed", ivs: []temporal.Interval{{From: temporal.Beginning, To: at}, temporal.Since(at)},
			lo: 410227200, hi: 410227201, ok: true},
		{name: "empty"},
	} {
		r := NewRel(1, true, true)
		for i, iv := range tc.ivs {
			r.Assert(tuple.New(value.NewInt(int64(i))), iv, temporal.Chronon(i+1))
		}
		lo, hi, ok := r.ValidExtent()
		if lo != tc.lo || hi != tc.hi || ok != tc.ok {
			t.Errorf("%s: ValidExtent() = (%d, %d, %v), want (%d, %d, %v)", tc.name, lo, hi, ok, tc.lo, tc.hi, tc.ok)
		}
	}
}

// The whole statistics state — sketches, counters and extent — is a function
// of the ops applied, never of their order: the property the replay and
// follower byte-identity guarantees rest on.
func TestRelOrderInvariance(t *testing.T) {
	ivs := seededIntervals(9, 5000)
	fwd, shuf := NewRel(2, true, true), NewRel(2, true, true)
	apply := func(r *Rel, i int) {
		data := tuple.New(value.NewInt(int64(i%701)), value.NewString(ivs[i].String()))
		r.Assert(data, ivs[i], temporal.Chronon(i))
		if i%5 == 0 {
			r.Close()
		}
	}
	for i := range ivs {
		apply(fwd, i)
	}
	for _, i := range rand.New(rand.NewSource(9)).Perm(len(ivs)) {
		apply(shuf, i)
	}
	if !bytes.Equal(EncodeRel(fwd), EncodeRel(shuf)) {
		t.Error("statistics depend on the order ops were applied in")
	}
}

// roundTripFixture is a three-attribute relation on both axes with enough
// distinct values to fill its first and third sketches to capacity.
func roundTripFixture() *Rel {
	rng := rand.New(rand.NewSource(31))
	r := NewRel(3, true, true)
	commit := temporal.Chronon(5000)
	for i := 0; i < 600; i++ {
		commit++
		data := tuple.New(value.NewInt(rng.Int63()), value.NewString("s"), value.NewFloat(rng.Float64()))
		r.Assert(data, temporal.Interval{From: commit, To: commit + 10}, commit)
		if i%7 == 0 {
			r.Close()
		}
		if i%11 == 0 {
			r.Retraction()
		}
	}
	return r
}

// decode∘encode must be the identity byte-for-byte, and a truncated blob
// must fail rather than misparse: every field, the extent last, is needed.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	r := roundTripFixture()
	enc := EncodeRel(r)
	dec, n, err := DecodeRel(enc)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(enc) {
		t.Errorf("decode consumed %d of %d bytes", n, len(enc))
	}
	if !bytes.Equal(EncodeRel(dec), enc) {
		t.Error("decode∘encode is not the identity")
	}
	if !reflect.DeepEqual(dec.Summarize(), r.Summarize()) {
		t.Error("summary diverged across the roundtrip")
	}
	lo, hi, ok := r.ValidExtent()
	if dlo, dhi, dok := dec.ValidExtent(); dlo != lo || dhi != hi || dok != ok || !ok {
		t.Errorf("extent (%d, %d, %v) decoded as (%d, %d, %v)", lo, hi, ok, dlo, dhi, dok)
	}
	for cut := 0; cut < len(enc); cut++ {
		if _, _, err := DecodeRel(enc[:cut]); err == nil {
			t.Fatalf("a %d-byte prefix of a %d-byte blob decoded", cut, len(enc))
		}
	}
}

// Blobs that no encoder writes are refused: unknown axis bits, an unsorted
// sketch, an extent on a relation without valid time, a present byte other
// than 0 or 1, an open endpoint, and hi < lo.
func TestDecodeRejectsNonCanonical(t *testing.T) {
	r := NewRel(1, true, false)
	r.Assert(tuple.New(value.NewInt(1)), temporal.Interval{From: 10, To: 20}, 1)
	r.Assert(tuple.New(value.NewInt(2)), temporal.Interval{From: 10, To: 20}, 1)
	good := EncodeRel(r)
	if _, _, err := DecodeRel(good); err != nil {
		t.Fatal(err)
	}
	// good: axes, 3 counters, arity, sketch count 2, two 8-byte hashes,
	// present byte, lo, hi (one byte each at these magnitudes).
	const sketch, present = 6, 6 + 16
	mutate := func(f func(b []byte) []byte) []byte { return f(append([]byte(nil), good...)) }
	for name, bad := range map[string][]byte{
		"axes": mutate(func(b []byte) []byte { b[0] = 4; return b }),
		"unsorted": mutate(func(b []byte) []byte {
			copy(b[sketch:], good[sketch+8:sketch+16])
			copy(b[sketch+8:], good[sketch:sketch+8])
			return b
		}),
		"no valid axis": mutate(func(b []byte) []byte { b[0] = 0; return b }),
		"present=2":     mutate(func(b []byte) []byte { b[present] = 2; return b }),
		"hi < lo":       mutate(func(b []byte) []byte { b[present+1], b[present+2] = b[present+2], b[present+1]; return b }),
		"forever end":   mutate(func(b []byte) []byte { return binary.AppendVarint(b[:present+2], int64(temporal.Forever)) }),
	} {
		if _, _, err := DecodeRel(bad); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: want ErrCorrupt, got %v", name, err)
		}
	}
}

// FuzzDecodeRel: decoding never panics, and whatever it accepts re-encodes
// to a fixed point — encode∘decode∘encode equals encode.
func FuzzDecodeRel(f *testing.F) {
	for axes := 0; axes < 4; axes++ {
		for arity := 0; arity <= 3; arity++ {
			r := NewRel(arity, axes&1 != 0, axes&2 != 0)
			for i := 0; i < 5; i++ {
				tup := make(tuple.Tuple, arity)
				for j := range tup {
					tup[j] = value.NewInt(int64(i * (j + 1)))
				}
				r.Insert(tup)
				r.Assert(tup, temporal.Interval{From: temporal.Chronon(100 * i), To: temporal.Forever}, 1)
			}
			r.Close()
			r.Retraction()
			f.Add(EncodeRel(r))
		}
	}
	f.Add(EncodeRel(roundTripFixture()))
	f.Fuzz(func(t *testing.T, data []byte) {
		dec, n, err := DecodeRel(data)
		if err != nil {
			return
		}
		if n < 1 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		enc := EncodeRel(dec)
		again, m, err := DecodeRel(enc)
		if err != nil || m != len(enc) {
			t.Fatalf("re-decoding the canonical encoding: %d of %d bytes, %v", m, len(enc), err)
		}
		if !bytes.Equal(EncodeRel(again), enc) {
			t.Fatal("encode∘decode∘encode is not a fixed point")
		}
	})
}
