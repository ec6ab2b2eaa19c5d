// Command bench is the tdb benchmark: it opens a real tdb.DB, serves it
// with server.New on loopback TCP, drives it through server.Client with
// statements generated from a seed, checks the answers, and prints every
// metric by name and unit. README.md describes the workloads and metrics.
//
//	go run ./bench                     all four workloads, tracing off
//	go run ./bench -trace              the traced runs and the layer probes
//	go run ./bench -repeat 5           five end-to-end sets on one seed and their largest deviation
//	go run ./bench -workload W -seed N -seconds S -trace 0|1
//
// The last form is the one BENCHMARK.json names: one workload, and one JSON
// object as the last line of standard output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "run only this workload and end with one JSON line")
	seed := fs.Int64("seed", 85, "seed of every generated input")
	seconds := fs.Float64("seconds", 24, "length of the measured window")
	trace := fs.Bool("trace", false, "traced run and layer probes instead of the end-to-end run")
	smoke := fs.Bool("smoke", false, "2 000-version dataset and 1 s windows")
	repeat := fs.Int("repeat", 0, "run the end-to-end set this many times on the one seed and report the largest deviation")
	out := fs.String("out", "bench/out", "directory for WAL files and the span file")
	if err := fs.Parse(splitBool(args, "trace")); err != nil {
		return 2
	}
	cfg := config{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), smoke: *smoke, outDir: *out}
	if *smoke {
		cfg.seconds = time.Second
	}
	todo := specs
	if *workload != "" {
		sp, ok := specByName(*workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: no workload %q\n", *workload)
			return 2
		}
		todo = []spec{sp}
	}
	if *repeat > 0 {
		return repeatRuns(todo, cfg, *repeat)
	}
	code := 0
	for _, sp := range todo {
		var (
			rep *report
			tl  *tally
			err error
		)
		if *trace {
			rep, tl, err = runTraced(sp, cfg)
		} else {
			rep, tl, err = runEndToEnd(sp, cfg)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", sp.name, err)
			return 1
		}
		fmt.Printf("%s (seed %d, %v window): %d judged, %d failed\n", sp.name, cfg.seed, cfg.seconds, tl.attempted, tl.failed)
		for _, f := range tl.failures {
			fmt.Printf("  FAILED %s\n", f)
		}
		rep.print(os.Stdout)
		if tl.failed > 0 {
			code = 1
		}
		if *workload != "" {
			listed := gated
			if *trace {
				listed = perLayer
			}
			if err := printResult(rep, tl, listed); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
				return 1
			}
		}
	}
	return code
}

// splitBool lets the boolean flag name be written with its value as the next
// argument ("--trace 1"), which is how the driver passes it and which the
// flag package does not accept for booleans.
func splitBool(args []string, name string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-"+name || a == "--"+name) && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			a += "=" + args[i+1]
			i++
		}
		out = append(out, a)
	}
	return out
}

// printResult writes the driver's line: exactly the metrics BENCHMARK.json lists.
func printResult(rep *report, tl *tally, listed []metric) error {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{tl.failed == 0, tl.attempted, tl.failed, map[string]mv{}}
	for _, m := range listed {
		v, ok := rep.get(m.name)
		if !ok || math.IsNaN(v.v) || math.IsInf(v.v, 0) {
			return fmt.Errorf("metric %s was not measured (%v)", m.name, v.v)
		}
		line.Metrics[m.name] = mv{v.v, m.unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}
