package tquel

import (
	"runtime"
	"sync"
	"sync/atomic"

	"tdb"
	"tdb/temporal"
)

// Parallel plan execution — the Volcano exchange operator, specialized to
// our compiled queryPlan (Graefe, "Encapsulation of Parallelism in the
// Volcano Query Processing System").
//
// Planning stays serial: prefiltering, the when pushdown, and the hash
// build all run on the statement's goroutine, inside its view, and produce
// an immutable queryPlan. Execution then partitions the *outermost*
// variable's candidate list into contiguous chunks and fans the chunks out
// over a worker pool.
// Each worker runs the unchanged inner bind/admit loop against its own
// binding cells, env, and tally struct — nothing in the hot loop is shared,
// so there are no atomics and no locks per binding. Chunk results are
// buffered per chunk index and concatenated in chunk order, which
// reproduces the serial row order byte-for-byte (contiguous chunks, in-
// order concatenation); errors are likewise reported from the earliest
// chunk, which is exactly the error the serial loop would have hit first.
//
// The safety argument is the one-view argument: a statement reads the
// database through exactly one DB.View (Session.compile), and that view has
// closed before the first worker starts.
//   - Everything a worker reads was produced inside the view, by one
//     goroutine, against one binding of the range variables: the queryPlan
//     (candidate slices, hash tables, residual conjunct ASTs) and the
//     attribute offsets analysis cached in the AST (AttrRef.idx), which index
//     the very relations the candidates were fetched from. None of it is
//     written after compile returns.
//   - Workers touch no store: only the materialized []tdb.Version snapshots,
//     private copies that later commits cannot reach, plus immutable schema
//     metadata (see the concurrency notes on tdb.Relation).
//   - Expression evaluation (eval.go) is allocation-local: it reads the
//     env's binding cells and allocates its own results, touching no
//     session or package state beyond the atomic obs counters.

// parallelMinOuter is the smallest outer candidate list worth fanning out
// when statistics are off (the v1 dispatch rule). Below it, goroutine
// startup and merge overhead exceed the loop itself, so execution stays on
// the serial path. Tests override it to force the parallel path onto small
// fixtures.
var parallelMinOuter = 128

// parallelMinCost is the estimated-work threshold (bindings examined, see
// orderByCost) above which a stats-guided plan takes the parallel path —
// the cost-based replacement for the fixed outer-size rule: a 100-row outer
// that fans out into a million join pairs parallelizes, a 10 000-row outer
// with a selective probe does not. Tests lower it alongside parallelMinOuter
// to force the parallel path onto small fixtures.
var parallelMinCost = 4096.0

// parallelChunksPerWorker over-partitions the outer range so stragglers
// (chunks whose candidates fan out into many inner bindings) even out.
const parallelChunksPerWorker = 4

// SetParallelism fixes the number of workers retrieve execution may use.
// n <= 1 forces the serial path; 0 (the default) resolves to
// runtime.GOMAXPROCS(0) at execution time. The TDB_PARALLEL environment
// variable, when set to an integer, provides the initial value for new
// sessions.
func (s *Session) SetParallelism(n int) { s.parallelism = n }

// effectiveParallelism resolves the session's worker budget.
func (s *Session) effectiveParallelism() int {
	if s.parallelism != 0 {
		return s.parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// execTally is one executor goroutine's private per-row counters. Workers
// accumulate with plain +=; the coordinator sums the tallies after the
// merge and settles the atomic metrics once per statement.
type execTally struct {
	scanned   int64
	joinPairs int64
	probes    int64
}

func (t *execTally) add(o execTally) {
	t.scanned += o.scanned
	t.joinPairs += o.joinPairs
	t.probes += o.probes
}

// planExec is the mutable state of one executor goroutine: an environment
// with its own binding cells (one per plan variable, reused across
// candidates), the rows it has emitted, and its tally. The serial path uses
// exactly one; the parallel path one per worker.
type planExec struct {
	ev    *env
	cells []binding
	posts [][]int // per depth, the build-table postings of the probe in progress
	rows  []ResultRow
	tally execTally
}

// newPlanExec builds an executor for the plan, with binding cells pre-wired
// to each variable's relation.
func newPlanExec(pl *queryPlan, now temporal.Chronon) *planExec {
	ex := &planExec{
		ev:    &env{vars: make(map[string]*binding, len(pl.vars)), now: now},
		cells: make([]binding, len(pl.vars)),
	}
	for d := range pl.vars {
		ex.cells[d].rel = pl.vars[d].rel
	}
	return ex
}

// runPlan executes the compiled join loop with the outermost variable
// restricted to its candidates in [lo, hi). emitRow is called with every
// variable bound; it reads ex.ev and appends to ex.rows.
func runPlan(pl *queryPlan, ex *planExec, lo, hi int, emitRow func(*planExec) error) error {
	var emit func(depth int) error
	emit = func(depth int) error {
		if depth == len(pl.vars) {
			return emitRow(ex)
		}
		pv := &pl.vars[depth]
		b := &ex.cells[depth]
		ex.ev.vars[pv.name] = b
		step := func(ver *tdb.Version) error {
			ex.tally.scanned++
			if depth > 0 {
				ex.tally.joinPairs++
			}
			b.data, b.valid, b.trans = ver.Data, ver.Valid, ver.Trans
			ok, err := pv.admit(ex.ev)
			if err != nil || !ok {
				return err
			}
			return emit(depth + 1)
		}
		if pv.join != nil {
			ex.tally.probes++
			probe := &ex.cells[pv.join.probeDepth]
			key := joinHash(probe.data[pv.join.probeIdx], pv.join.numeric)
			if ex.posts == nil {
				ex.posts = make([][]int, len(pl.vars))
			}
			ex.posts[depth] = pv.join.table.Lookup(key, ex.posts[depth][:0])
			for _, pos := range ex.posts[depth] {
				if err := step(&pv.versions[pos]); err != nil {
					return err
				}
			}
		} else {
			from, to := 0, len(pv.versions)
			if depth == 0 {
				from, to = lo, hi
			}
			for i := from; i < to; i++ {
				if err := step(&pv.versions[i]); err != nil {
					return err
				}
			}
		}
		delete(ex.ev.vars, pv.name)
		return nil
	}
	return emit(0)
}

// useParallel decides whether a compiled plan takes the worker-pool path;
// buildPlan calls it once per statement and keeps the answer in
// queryPlan.workers. Aggregate queries, windowed ones included, stay serial
// (the aggregator folds into shared per-group state), as do empty plans and
// plans short-circuited by a false variable-free conjunct. Past those gates
// the dispatch is cost-based when statistics informed the plan — fan out
// when the estimated join work clears the session's cutoff and there is an
// outer range to split — and falls back to the v1 fixed outer-size rule
// when they did not.
func useParallel(pl *queryPlan, workers int, agg bool) bool {
	if workers <= 1 || agg || pl.emptyResult || len(pl.vars) == 0 {
		return false
	}
	if pl.statsUsed {
		return pl.estWork >= pl.parallelCut && len(pl.vars[0].versions) > 1
	}
	return len(pl.vars[0].versions) >= parallelMinOuter
}

// runParallel fans the outermost candidate range out over a worker pool and
// merges per-chunk results deterministically. It returns the merged rows,
// the summed tally, and the number of workers and chunks used. On error it
// returns the error the serial loop would have reported: every chunk still
// runs to completion (or its own first error), and the earliest chunk's
// error wins.
func runParallel(pl *queryPlan, now temporal.Chronon, workers int,
	emitRow func(*planExec) error) ([]ResultRow, execTally, int, int, error) {

	n := len(pl.vars[0].versions)
	chunkSize := n / (workers * parallelChunksPerWorker)
	if chunkSize < parallelMinOuter/2 {
		chunkSize = parallelMinOuter / 2
	}
	if chunkSize < 1 {
		chunkSize = 1
	}
	numChunks := (n + chunkSize - 1) / chunkSize
	if workers > numChunks {
		workers = numChunks
	}

	chunkRows := make([][]ResultRow, numChunks)
	chunkErr := make([]error, numChunks)
	tallies := make([]execTally, workers)

	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ex := newPlanExec(pl, now)
			for {
				ci := int(next.Add(1)) - 1
				if ci >= numChunks {
					break
				}
				lo := ci * chunkSize
				hi := min(lo+chunkSize, n)
				ex.rows = nil
				if err := runPlan(pl, ex, lo, hi, emitRow); err != nil {
					chunkErr[ci] = err
					continue
				}
				chunkRows[ci] = ex.rows
			}
			tallies[w] = ex.tally
		}(w)
	}
	wg.Wait()

	var tally execTally
	for _, t := range tallies {
		tally.add(t)
	}
	total := 0
	for ci := 0; ci < numChunks; ci++ {
		if chunkErr[ci] != nil {
			return nil, tally, workers, numChunks, chunkErr[ci]
		}
		total += len(chunkRows[ci])
	}
	rows := make([]ResultRow, 0, total)
	for _, cr := range chunkRows {
		rows = append(rows, cr...)
	}
	return rows, tally, workers, numChunks, nil
}
