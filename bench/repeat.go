package main

import (
	"fmt"
	"math"
	"os"
	"sort"
)

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(v, n=4) computes them, which is what the driver uses.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// repeatRuns measures every workload n times on the same seed, so on the
// same input, and prints per workload and end-to-end metric the median, the
// quartiles and the largest deviation from the median as a share of it. It
// returns non-zero if a deviation exceeds the metric's bound, a count of
// failures is not zero, or a run failed.
func repeatRuns(todo []spec, cfg config, n int) int {
	if n < 2 {
		fmt.Fprintln(os.Stderr, "bench: -repeat needs at least 2 rounds")
		return 2
	}
	vals := make(map[string][]float64)
	for round := 0; round < n; round++ {
		for _, sp := range todo {
			rep, _, err := runEndToEnd(sp, cfg)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", sp.name, err)
				return 1
			}
			for _, v := range rep.values {
				key := sp.name + " " + v.metric
				vals[key] = append(vals[key], v.v)
			}
		}
	}
	code := 0
	fmt.Printf("%-10s %-20s %12s %12s %12s %8s %6s\n", "workload", "metric", "median", "q1", "q3", "maxdev", "bound")
	for _, sp := range todo {
		for _, m := range endToEnd {
			v := vals[sp.name+" "+m.name]
			if len(v) == 0 {
				continue // the workload does not issue the operation
			}
			med := medianFloat(v)
			q1, q3 := quartiles(v)
			var dev float64
			for _, x := range v {
				if x != med {
					dev = max(dev, math.Abs(x-med)/med)
				}
			}
			mark := ""
			if dev > m.bound {
				mark = "  OVER"
				code = 1
			}
			fmt.Printf("%-10s %-20s %12.4f %12.4f %12.4f %8.4f %6.2f%s\n", sp.name, m.name, med, q1, q3, dev, m.bound, mark)
		}
	}
	return code
}
