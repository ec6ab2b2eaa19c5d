package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

// fingerprint hashes everything the generator emits for a seed at smoke
// scale: the dataset, each workload's statement streams, the hot pool, the
// Zipf draws and the open loop's arrival schedule.
func fingerprint(seed int64) string {
	h := sha256.New()
	ds := newDataset(seed, smokeScale)
	for _, r := range ds.rows {
		fmt.Fprintln(h, r)
	}
	fmt.Fprintln(h, ds.setupRepl)
	for _, sp := range specs {
		pool := hotPool(ds, seed)
		for c, next := range sp.sources(ds, pool, seed) {
			for i := 0; i < 300; i++ {
				fmt.Fprintln(h, sp.name, c, next().src)
			}
		}
		if sp.rate > 0 {
			fmt.Fprintln(h, sp.name, arrivals(seed, sp.rate, 10*time.Second))
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func TestSameSeedSameBytes(t *testing.T) {
	const pinned = "ddada17ece860e9f3163655decdf23dcec36a249f56c0d90a8d7e1708f4924d7"
	got := fingerprint(85)
	if got != fingerprint(85) {
		t.Fatal("two generations from seed 85 differ")
	}
	if got != pinned {
		t.Fatalf("seed 85 generates %s, pinned %s: the statement stream changed, and with it every baseline", got, pinned)
	}
	if got == fingerprint(86) {
		t.Fatal("seeds 85 and 86 generate the same bytes")
	}
}

// The seed must reach every random choice, each through its own stream.
func TestSeedReachesEveryChoice(t *testing.T) {
	a, b := newDataset(1, smokeScale), newDataset(2, smokeScale)
	if fmt.Sprint(a.rows) == fmt.Sprint(b.rows) || fmt.Sprint(a.setupRepl) == fmt.Sprint(b.setupRepl) {
		t.Error("dataset does not follow the seed")
	}
	// From here on one dataset, so only the stream's own seed can differ.
	if fmt.Sprint(hotPool(a, 1)) == fmt.Sprint(hotPool(a, 2)) {
		t.Error("hot pool does not follow the seed")
	}
	if fmt.Sprint(arrivals(1, 30, time.Second)) == fmt.Sprint(arrivals(2, 30, time.Second)) {
		t.Error("arrival schedule does not follow the seed")
	}
	draws := func(seed int64, conn int) string {
		pick := zipfPicker(seed, conn)
		var s []int
		for i := 0; i < 50; i++ {
			s = append(s, pick())
		}
		return fmt.Sprint(s)
	}
	if draws(1, 0) == draws(2, 0) || draws(1, 0) == draws(1, 1) {
		t.Error("Zipf draws do not follow the seed and the connection")
	}
	for _, m := range []mix{mixScan, mixIngest, mixMixed} {
		stmts := func(seed int64, conn int) string {
			s := newStream(a, seed, conn, conns, m)
			var out []string
			for i := 0; i < 40; i++ {
				out = append(out, s.next().src)
			}
			return strings.Join(out, "\n")
		}
		if stmts(1, 0) == stmts(2, 0) || stmts(1, 0) == stmts(1, 1) {
			t.Errorf("mix %v: stream does not follow the seed and the connection", m)
		}
	}
}

// The schedule is a Poisson process: gaps average 1/rate and, being
// exponential, have a standard deviation equal to their mean.
func TestArrivalsArePoisson(t *testing.T) {
	due := arrivals(85, 30, 1000*time.Second)
	var sum, sq float64
	last := time.Duration(0)
	for _, d := range due {
		if d < last {
			t.Fatalf("schedule goes backwards at %v", d)
		}
		g := (d - last).Seconds()
		sum, sq, last = sum+g, sq+g*g, d
	}
	n := float64(len(due))
	mean := sum / n
	sd := math.Sqrt(sq/n - mean*mean)
	if math.Abs(mean*30-1) > 0.03 || math.Abs(sd/mean-1) > 0.03 {
		t.Fatalf("%d arrivals in 1000 s: mean gap %.5f s, sd %.5f s; want both near 1/30", len(due), mean, sd)
	}
}

func TestDeckHoldsExactShares(t *testing.T) {
	s := newStream(newDataset(85, smokeScale), 85, 0, 1, mixScan)
	var got [numKinds]int
	for i := 0; i < 5*len(mixScan); i++ {
		got[s.next().kind]++
	}
	want := [numKinds]int{kAsof: 40, kOverlap: 30, kWindow: 15, kJoin: 15}
	if got != want {
		t.Fatalf("100 statements of scan-read hold %v, want %v", got, want)
	}
}

// Statement generation may read no clock and range over no map: either
// would make the bytes differ between runs of one seed.
func TestGeneratorSourceIsDeterministic(t *testing.T) {
	src, err := os.ReadFile("gen.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, banned := range []string{"time.Now", "time.Since", "map["} {
		if strings.Contains(string(src), banned) {
			t.Errorf("gen.go uses %s", banned)
		}
	}
}
