package main

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tdb"
	"tdb/internal/obs"
	"tdb/server"
	"tdb/temporal"
	"tdb/tquel"
)

// config is what the command line chooses for a run.
type config struct {
	seed    int64
	seconds time.Duration
	smoke   bool
	outDir  string // WAL directories and the span file go here
}

func (c config) warmup() time.Duration {
	if c.smoke {
		return warmup / 8
	}
	return warmup
}

func (c config) scale() scale {
	if c.smoke {
		return smokeScale
	}
	return fullScale
}

// dataset generates the rows a workload starts from; none for one that
// starts empty.
func (sp spec) dataset(cfg config) *dataset {
	if !sp.data {
		return &dataset{}
	}
	return newDataset(cfg.seed, cfg.scale())
}

// phases records where a run's wall time went; it is printed to standard
// error because the run has a time allowance to keep.
type phases struct {
	last  time.Time
	parts []string
}

func newPhases() *phases { return &phases{last: time.Now()} }

func (p *phases) mark(name string) {
	now := time.Now()
	p.parts = append(p.parts, fmt.Sprintf("%s %.1fs", name, now.Sub(p.last).Seconds()))
	p.last = now
}

func (p *phases) print(workload string) {
	fmt.Fprintf(os.Stderr, "bench: %s: %s\n", workload, strings.Join(p.parts, ", "))
}

// setup sets a workload up once, in a fresh directory under outDir if it is
// durable.
func (c config) setup(sp spec, in *input, tracer obs.Tracer) (*env, error) {
	dir := ""
	if sp.durable {
		if err := os.MkdirAll(c.outDir, 0o755); err != nil {
			return nil, err
		}
		var err error
		if dir, err = os.MkdirTemp(c.outDir, "wal-"); err != nil {
			return nil, err
		}
	}
	e, err := setupEnv(in, dir, tracer)
	if err != nil && dir != "" {
		os.RemoveAll(dir)
	}
	return e, err
}

// setupMedian sets the workload up sp.setups times, keeps the last
// database, and returns the median set-up time.
func setupMedian(sp spec, in *input, cfg config) (*env, time.Duration, error) {
	n := sp.setups
	if cfg.smoke {
		n = 1
	}
	var times []time.Duration
	for i := 0; ; i++ {
		// Every set-up starts from a collected heap; otherwise what the one
		// before left behind decides when the collector runs during the load,
		// and the load's time ranged 0.41–0.84 s.
		runtime.GC()
		e, err := cfg.setup(sp, in, nil)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, e.setup)
		if i == n-1 {
			return e, median(times), nil
		}
		if err := e.destroy(); err != nil {
			return nil, 0, err
		}
	}
}

// runEndToEnd measures one workload with tracing off.
func runEndToEnd(sp spec, cfg config) (*report, *tally, error) {
	ph := newPhases()
	defer ph.print(sp.name)
	ds := sp.dataset(cfg)
	in := newInput(ds, sp.data)
	ph.mark("generate")
	e, setup, err := setupMedian(sp, in, cfg)
	ph.mark("set-up")
	if err != nil {
		return nil, nil, err
	}
	defer e.destroy()
	in.loads = nil // the load input is dead weight once the last set-up is done

	tl := &tally{}
	var pool []op
	if sp.mix == nil {
		pool = hotPool(ds, cfg.seed)
		if err := prefill(e, pool, tl); err != nil {
			return nil, nil, err
		}
		ph.mark("prefill")
	}
	srcs := sp.sources(ds, pool, cfg.seed)
	var r *result
	if sp.rate > 0 {
		r, err = runOpen(e, srcs[0], arrivals(cfg.seed, sp.rate, cfg.warmup()+cfg.seconds), cfg.warmup(), cfg.seconds)
	} else {
		var mid func()
		if sp.checkpt {
			mid = func() {
				if err := e.db.Checkpoint(); err != nil {
					tl.fail("checkpoint: %v", err)
				}
			}
		}
		r, err = runClosed(e, srcs, cfg.warmup(), cfg.seconds, mid)
	}
	if err != nil {
		return nil, nil, err
	}
	ph.mark("warm-up and window")
	tl.add(r.tally)
	rep := &report{}
	rep.add("setup_s", setup.Seconds(), "s", sp.setups)
	summarize(rep, r)
	if sp.durable {
		rep.add("wal_bytes_per_op", (counters()["tdb_wal_bytes_total"]-e.wal0)/float64(max(r.writes, 1)), "B", r.writes)
		counts := e.fs.counts().minus(e.fs0)
		rep.add("fs.writes", float64(counts.writes), "count", 0)
		rep.add("fs.write_bytes", float64(counts.bytes), "B", 0)
		rep.add("fs.syncs", float64(counts.syncs), "count", 0)
	}
	acked := r.acked
	r.samples = nil // the harness's own memory, and by now summarized
	if !sp.data {
		if err := topUp(e, len(acked), cfg); err != nil {
			return nil, nil, err
		}
		ph.mark("top-up")
	}
	runtime.GC()
	runtime.GC() // the second collection empties the sync.Pools the first one only retired
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	rep.add("live_heap_mb", float64(m.HeapAlloc)/(1<<20), "MB", 0)

	verify := verifyOps(sp, ds, pool, acked, cfg.seed)
	if err := differential(e, verify, tl); err != nil {
		return nil, nil, err
	}
	ph.mark("verify")
	if sp.durable {
		if err := crashAndReopen(e, ds, verify, acked, cfg, rep, tl); err != nil {
			return nil, nil, err
		}
		ph.mark("crash and reopen")
	}
	rep.add("error_rate", float64(tl.failed)/float64(tl.attempted), "ratio", tl.attempted)
	// BENCHMARK.json's name for a per-kind figure, so that every workload can report it.
	if v, ok := rep.get(sp.principal.String() + "_p25_ms"); ok {
		rep.add("p25_ms", v.v, v.unit, v.n)
	}
	return rep, tl, nil
}

// summarize turns the window's samples into the latency and rate figures.
func summarize(rep *report, r *result) {
	// Statements answered per second of the window. In a closed loop that is
	// what the two connections get through; in an open loop it is the rate
	// offered, less whatever failed or was late.
	rep.add("ops_per_s", float64(len(r.samples)-r.late)/r.window.Seconds(), "1/s", len(r.samples))
	for k := kind(0); k < numKinds; k++ {
		if lat := r.latencies(only(k)); len(lat) > 0 {
			rep.add(k.String()+"_p50_ms", p50of(lat), "ms", len(lat))
			rep.add(k.String()+"_p25_ms", ms(quantile(lat, 0.25)), "ms", len(lat))
		}
	}
	if lat := r.latencies(kind.isRead); len(lat) > 0 {
		rep.add("read_p95_ms", p95of(lat), "ms", len(lat))
	}
	if lat := r.latencies(isWrite); len(lat) > 0 {
		rep.add("write_p95_ms", p95of(lat), "ms", len(lat))
	}
	rep.add("bench.drift_ratio", drift(r), "ratio", 0)
	rep.add("bench.steal_share", r.stolen, "ratio", 0)
	if len(r.lags) > 0 {
		rep.add("bench.sched_lag_p95_ms", p95of(sortDurations(r.lags)), "ms", len(r.lags))
	}
	if r.cpEnd > 0 {
		rep.add("tdb.checkpoint_s", (r.cpEnd - r.cpStart).Seconds(), "s", 0)
		var stall time.Duration
		for _, s := range r.samples {
			if s.at < r.cpEnd && s.at+s.lat > r.cpStart {
				stall = max(stall, s.lat)
			}
		}
		rep.add("tdb.checkpoint_stall_ms", ms(stall), "ms", 0)
	}
}

// heapRows is how many rows gen holds when the live heap of a workload that
// starts empty is read. What a closed loop has appended when its window
// ends is its throughput times the window, 36 000 to 83 000 rows here, and
// the heap follows it (12.6–19.3 MB over six runs); at a fixed row count it
// is a property of the program.
const heapRows = 1 << 18

// topUp bulk-loads fresh rows into gen until it holds heapRows (a sixty-fourth
// of that at smoke scale), given that it holds have.
func topUp(e *env, have int, cfg config) error {
	want := heapRows
	if cfg.smoke {
		want /= 64
	}
	if have >= want {
		return nil
	}
	s := newStream(&dataset{}, cfg.seed, 7, 8, nil)
	rows := make([]tdb.LoadRow, want-have)
	for i := range rows {
		r := s.gen(kAppend).row
		rows[i] = tdb.LoadRow{Data: r.tuple(r.v), From: r.from, To: r.to}
	}
	gen, err := e.db.Relation("gen")
	if err != nil {
		return err
	}
	_, err = gen.Load(rows)
	return err
}

// prefill executes every pool statement once, half on each connection, so
// the measured window starts with the cache holding the whole pool.
func prefill(e *env, pool []op, tl *tally) error {
	clients, closeAll, err := dialAll(e.addr, conns)
	if err != nil {
		return err
	}
	defer closeAll()
	parts := make([]*result, conns)
	var wg sync.WaitGroup
	for c, cl := range clients {
		parts[c] = &result{}
		wg.Add(1)
		go func(c int, cl *server.Client) {
			defer wg.Done()
			for n := c; n < len(pool); n += conns {
				resp, err := cl.Exec(pool[n].src)
				parts[c].check(pool[n], resp, err)
			}
		}(c, cl)
	}
	wg.Wait()
	for _, p := range parts {
		tl.add(p.tally)
	}
	return nil
}

// verifyPerKind statements of each kind are re-checked after the window.
// The reference path scans every version per statement (70–140 ms at full
// scale), so this is what the run's time allowance affords.
const verifyPerKind = 4

// readback is a keyed read of a row the workload appended: exactly one row.
func readback(r row) op {
	return op{kind: kAsof, wantRows: 1, src: fmt.Sprintf(`retrieve (g.shard, g.v) where g.id = %q`, r.id)}
}

// verifyOps picks the statements re-checked after the window:
// verifyPerKind of each read kind the workload issues, and as many
// read-backs of rows it appended.
func verifyOps(sp spec, ds *dataset, pool []op, acked []row, seed int64) []op {
	var ops []op
	if sp.mix == nil {
		var have [numKinds]int
		for _, o := range pool {
			if have[o.kind] < verifyPerKind {
				have[o.kind]++
				ops = append(ops, o)
			}
		}
		return ops
	}
	var issued [numKinds]bool
	for _, k := range sp.mix {
		issued[k] = true
	}
	s := newStream(ds, seed, conns, conns+1, nil)
	for k := kAsof; k <= kJoin; k++ {
		for i := 0; issued[k] && i < verifyPerKind; i++ {
			ops = append(ops, s.gen(k))
		}
	}
	for i := 0; i < verifyPerKind && i < len(acked); i++ {
		ops = append(ops, readback(acked[i*len(acked)/verifyPerKind]))
	}
	return ops
}

// reference answers in process by the plainest path there is: no result
// cache, and no planner — except for the join, whose unplanned nested loop
// over 200 000 × 96 pairs takes seconds, and which therefore keeps the
// planner but without statistics and on one goroutine.
type reference struct {
	naive, join *tquel.Session
}

func newReference(db *tdb.DB) (*reference, error) {
	ref := &reference{naive: tquel.NewSession(db), join: tquel.NewSession(db)}
	ref.naive.DisablePlanner(true)
	ref.join.DisableStats(true)
	ref.join.SetParallelism(1)
	for _, ses := range []*tquel.Session{ref.naive, ref.join} {
		ses.DisableCache(true)
		if _, err := ses.Exec(rangeDecls); err != nil {
			return nil, err
		}
	}
	return ref, nil
}

func (ref *reference) render(o op) (string, error) {
	if o.kind == kJoin {
		return render(ref.join, o.src)
	}
	return render(ref.naive, o.src)
}

func render(ses *tquel.Session, src string) (string, error) {
	res, err := ses.Query(src)
	if err != nil {
		return "", err
	}
	return res.String(), nil
}

// differential sends each statement over the wire, holds the reply to what
// the generator knows, and compares it byte for byte with the reference
// session's rendering. Nothing else is running while it does.
func differential(e *env, ops []op, tl *tally) error {
	c, err := dial(e.addr)
	if err != nil {
		return err
	}
	defer c.Close()
	ref, err := newReference(e.db)
	if err != nil {
		return err
	}
	r := &result{}
	for _, o := range ops {
		resp, err := c.Exec(o.src)
		before := r.failed
		r.check(o, resp, err)
		if r.failed > before {
			continue
		}
		want, err := ref.render(o)
		if err != nil {
			r.fail("%s: reference: %v", o.src, err)
		} else if got := resp.Outcomes[len(resp.Outcomes)-1].Table; got != want {
			r.fail("%s: wire answer differs from the reference:\n%s\nwant:\n%s", o.src, got, want)
		}
	}
	tl.add(r.tally)
	return nil
}

const crashBurst = 32 // appends acknowledged in flight before the crash

// crashAndReopen renders the probe statements, lets one connection keep
// appending while the device crashes under it, reopens the database from
// what the crash left, and checks that every acknowledged append is there
// and that the probes render as before.
func crashAndReopen(e *env, ds *dataset, probes []op, acked []row, cfg config, rep *report, tl *tally) error {
	ref, err := newReference(e.db)
	if err != nil {
		return err
	}
	// Only keyed probes: the burst's appends may match anything else. They
	// are rendered by the reference's planned session, before and after:
	// the unplanned one scans every version per probe, and here the two
	// renderings are compared with each other, not with the wire.
	keyed := probes[:0:0]
	for _, o := range probes {
		if o.kind == kAsof {
			keyed = append(keyed, o)
		}
	}
	probes = keyed
	before := make([]string, len(probes))
	for i, o := range probes {
		if before[i], err = render(ref.join, o.src); err != nil {
			return fmt.Errorf("probe before crash: %s: %w", o.src, err)
		}
	}
	c, err := dial(e.addr)
	if err != nil {
		return err
	}
	defer c.Close()
	var n atomic.Int64
	burst := &result{}
	done := make(chan struct{})
	go func() {
		defer close(done)
		s := newStream(ds, cfg.seed, 9, 10, mixIngest)
		for {
			o := s.next()
			resp, err := c.Exec(o.src)
			if err != nil || resp.Error != "" {
				return // the crash; an unacknowledged append is no one's loss
			}
			burst.check(o, resp, nil)
			n.Add(1)
		}
	}()
	for n.Load() < crashBurst {
		select {
		case <-done:
			return fmt.Errorf("crash burst ended after %d appends", n.Load())
		default:
			runtime.Gosched()
		}
	}
	unsynced := e.fs.unsynced()
	if _, err := e.fs.Crash(); err != nil {
		return err
	}
	<-done
	if err := e.close(); err != nil {
		return err
	}
	tl.add(burst.tally)
	acked = append(acked, burst.acked...)

	start := time.Now()
	db, err := tdb.Open(e.path, tdb.Options{Clock: temporal.NewLogicalClock(clockOrigin), Sync: true})
	recovery := time.Since(start)
	if err != nil {
		return fmt.Errorf("reopen after crash: %w", err)
	}
	defer db.Close()
	gen, err := db.Relation("gen")
	if err != nil {
		return err
	}
	lost := 0
	for _, r := range acked {
		tl.attempted++
		h, err := gen.History(tdb.Key(tdb.String(r.id)))
		if err != nil || len(h) == 0 {
			lost++
			tl.fail("acknowledged append %s is gone after the crash", r.id)
		}
	}
	ref, err = newReference(db)
	if err != nil {
		return err
	}
	for i, o := range probes {
		tl.attempted++
		after, err := render(ref.join, o.src)
		if err != nil || after != before[i] {
			tl.fail("%s: renders differently after the crash (%v)", o.src, err)
		}
	}
	st := db.Stats()
	rep.add("lost_acked_writes", float64(lost), "count", len(acked))
	rep.add("recovery_s", recovery.Seconds(), "s", 0)
	rep.add("tdb.replayed_records", float64(st.Recovery.Replayed), "count", 0)
	rep.add("fs.unsynced_bytes_at_crash", float64(unsynced), "B", 0)
	return nil
}
