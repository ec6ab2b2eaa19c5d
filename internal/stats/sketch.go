package stats

import "sort"

// SketchK is the fixed capacity of a KMV distinct-value sketch. 256 minima
// give a relative standard error of about 1/sqrt(K-1) ≈ 6%, at 2KB per
// attribute — small enough to keep one sketch per attribute per relation
// resident and to persist them all in every checkpoint snapshot.
const SketchK = 256

// Sketch is a k-minimum-values (KMV) distinct-value estimator: it retains
// the K smallest distinct 64-bit hashes ever added. The k-th smallest of a
// set of n uniform hashes sits near k/n of the way through the hash space,
// so its position estimates n. The state is a deterministic function of the
// *set* of values added — insertion order, duplicates, and interleaving all
// cancel out — which is what lets WAL replay and followers reproduce the
// sketch byte-for-byte.
type Sketch struct {
	ks []uint64 // ascending, distinct; at most SketchK entries
}

// Add records one value hash.
func (s *Sketch) Add(h uint64) {
	i := sort.Search(len(s.ks), func(i int) bool { return s.ks[i] >= h })
	if i < len(s.ks) && s.ks[i] == h {
		return
	}
	if len(s.ks) == SketchK {
		if i == SketchK {
			return // larger than every retained minimum
		}
		copy(s.ks[i+1:], s.ks[i:SketchK-1])
		s.ks[i] = h
		return
	}
	s.ks = append(s.ks, 0)
	copy(s.ks[i+1:], s.ks[i:])
	s.ks[i] = h
}

// Distinct estimates the number of distinct values added. Below capacity
// the sketch holds every distinct hash and the count is exact; at capacity
// the KMV estimator (K-1)/u applies, where u is the K-th minimum normalized
// into (0, 1].
func (s *Sketch) Distinct() float64 {
	if len(s.ks) < SketchK {
		return float64(len(s.ks))
	}
	u := (float64(s.ks[SketchK-1]) + 1) / float64(1<<63) / 2
	if u <= 0 {
		return float64(SketchK)
	}
	return float64(SketchK-1) / u
}
