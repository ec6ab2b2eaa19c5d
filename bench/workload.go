package main

import (
	"fmt"
	"sync"
	"time"

	"tdb/server"
)

// spec is one workload. The README gives the reason for every number here.
type spec struct {
	name, why string
	data      bool    // gen starts as the bulk dataset; otherwise empty
	durable   bool    // synced WAL under the run's directory
	mix       mix     // nil: Zipf draws from the hot pool
	rate      float64 // statements a second of the open loop; 0: closed loop, conns connections
	principal kind    // the kind whose lower-quartile latency BENCHMARK.json lists as p25_ms
	tracedOps int     // statements in the traced run, full scale
	setups    int     // set-ups per run; setup_s is their median
	checkpt   bool    // one DB.Checkpoint() half-way through the window
	unlisted  bool    // run by this command and its tests, not named in BENCHMARK.json
}

const (
	conns = 2 // client connections; never more than this sandbox's nproc

	// warmup runs before every measured window: long enough for the
	// connections' sessions, the runtime's heap target and, on scan-read, the
	// parallel executor's pools to settle.
	warmup = 2 * time.Second

	// deadline is how long after it was due an open-loop statement may be
	// answered before it counts as failed.
	deadline = 2 * time.Second
)

var specs = []spec{
	{name: "hot-read", data: true, principal: kAsof, tracedOps: 20000, setups: 5,
		why: "Zipf(1.1) over a fixed pool of 512 retrieves that fits the result cache: server, tquel's front half and qcache do the work, the store none"},
	{name: "scan-read", data: true, mix: mixScan, principal: kOverlap, tracedOps: 2000, setups: 5,
		why: "retrieves whose parameters never repeat, so the cache misses: tdb fetch, segment, index and the tquel executor do the work, the wire under 3%"},
	{name: "ingest", durable: true, mix: mixIngest, principal: kAppend, tracedOps: 2000, setups: 31, checkpt: true,
		why: "appends to an empty relation on a synced WAL (modelled device) with a checkpoint and a crash: wal group commit, txn, commit-time stats and sealing do the work, the planner none"},
	{name: "mixed", data: true, durable: true, mix: mixMixed, rate: 30, principal: kReplace, tracedOps: 500, setups: 5, unlisted: true,
		why: "open loop, Poisson arrivals at 30/s, half appends, on a synced WAL (modelled device): commits retire cached results and a replace holds the store while appends queue behind it"},
}

// streams is how many statement streams the workload's loop deals from: one
// per connection of a closed loop, one for an open loop's dispatcher.
func (sp spec) streams() int {
	if sp.rate > 0 {
		return 1
	}
	return conns
}

func specByName(name string) (spec, bool) {
	for _, sp := range specs {
		if sp.name == name {
			return sp, true
		}
	}
	return spec{}, false
}

// sample is one timed statement of the measured window.
type sample struct {
	at   time.Duration // when it was sent, since the window began
	lat  time.Duration
	kind kind
}

// tally counts every statement whose answer was judged.
type tally struct {
	attempted, failed int
	failures          []string // the first few, for the report
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if len(t.failures) < 5 {
		t.failures = append(t.failures, fmt.Sprintf(format, args...))
	}
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.failures = append(t.failures, o.failures[:min(len(o.failures), 5-len(t.failures))]...)
}

// result is what one measured window produced.
type result struct {
	tally
	samples []sample
	window  time.Duration
	acked   []row           // appended rows the server acknowledged
	writes  int             // appends and replaces the server acknowledged
	late    int             // open loop: samples answered after the deadline
	lags    []time.Duration // open loop: how long after it was due each statement was put in the queue
	stolen  float64         // share of the machine's busy processor time the host took during the window
	cpStart time.Duration   // checkpoint span within the window; zero if none ran
	cpEnd   time.Duration
}

func (r *result) merge(o *result) {
	r.add(o.tally)
	r.samples = append(r.samples, o.samples...)
	r.acked = append(r.acked, o.acked...)
	r.writes += o.writes
	r.late += o.late
}

// check judges one reply against what the generator knows of the answer and
// notes an acknowledged append.
func (r *result) check(o op, resp *server.Response, err error) {
	r.attempted++
	switch {
	case err != nil:
		r.fail("%s: %v", o.src, err)
	case resp.Error != "":
		r.fail("%s: %s", o.src, resp.Error)
	case len(resp.Outcomes) == 0:
		r.fail("%s: no outcome", o.src)
	case o.kind == kAsof && resp.Outcomes[len(resp.Outcomes)-1].Rows != o.wantRows:
		r.fail("%s: %d rows, want %d", o.src, resp.Outcomes[len(resp.Outcomes)-1].Rows, o.wantRows)
	case o.kind.isRead() && o.kind != kAsof && resp.Outcomes[len(resp.Outcomes)-1].Rows == 0:
		r.fail("%s: empty answer", o.src)
	case o.kind == kAppend:
		r.acked = append(r.acked, o.row)
		r.writes++
	case o.kind == kReplace:
		r.writes++
	}
}

func dial(addr string) (*server.Client, error) {
	c, err := server.Dial(addr)
	if err != nil {
		return nil, err
	}
	resp, err := c.Exec(rangeDecls)
	if err == nil && resp.Error != "" {
		err = fmt.Errorf("range declarations: %s", resp.Error)
	}
	if err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// opSource yields a connection's statements in order.
type opSource func() op

// sources builds the workload's statement sources, one per stream: its mix,
// or Zipf draws from the hot pool when it has none.
func (sp spec) sources(ds *dataset, pool []op, seed int64) []opSource {
	out := make([]opSource, sp.streams())
	for c := range out {
		if sp.mix != nil {
			out[c] = newStream(ds, seed, c, len(out), sp.mix).next
			continue
		}
		pick := zipfPicker(seed, c)
		out[c] = func() op { return pool[pick()] }
	}
	return out
}

// dialAll opens n connections.
func dialAll(addr string, n int) ([]*server.Client, func(), error) {
	clients := make([]*server.Client, 0, n)
	closeAll := func() {
		for _, c := range clients {
			c.Close()
		}
	}
	for len(clients) < n {
		c, err := dial(addr)
		if err != nil {
			closeAll()
			return nil, nil, err
		}
		clients = append(clients, c)
	}
	return clients, closeAll, nil
}

// stolenShare runs f and returns the share of the machine's busy processor
// time the host took meanwhile.
func stolenShare(f func()) float64 {
	steal0, busy0 := stolen()
	f()
	steal1, busy1 := stolen()
	if busy1 == busy0 {
		return 0
	}
	return float64(steal1-steal0) / float64(busy1-busy0)
}

// runClosed drives the closed loop: every connection sends its next
// statement when the reply to the last one arrives. Statements issued
// during warm-up are checked but not timed.
func runClosed(e *env, srcs []opSource, warmup, window time.Duration, midpoint func()) (*result, error) {
	clients, closeAll, err := dialAll(e.addr, len(srcs))
	if err != nil {
		return nil, err
	}
	defer closeAll()
	begin := time.Now().Add(warmup)
	end := begin.Add(window)
	parts := make([]*result, len(srcs))
	total := &result{window: window}
	var wg sync.WaitGroup
	for i := range srcs {
		parts[i] = &result{}
		wg.Add(1)
		go func(c *server.Client, next opSource, r *result) {
			defer wg.Done()
			for {
				o := next()
				start := time.Now()
				if !start.Before(end) {
					return
				}
				resp, err := c.Exec(o.src)
				lat := time.Since(start)
				r.check(o, resp, err)
				if err != nil {
					return // the connection is gone; the failure is counted
				}
				if !start.Before(begin) {
					r.samples = append(r.samples, sample{at: start.Sub(begin), lat: lat, kind: o.kind})
				}
			}
		}(clients[i], srcs[i], parts[i])
	}
	if midpoint != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			time.Sleep(time.Until(begin.Add(window / 2)))
			total.cpStart = time.Since(begin)
			midpoint()
			total.cpEnd = time.Since(begin)
		}()
	}
	time.Sleep(time.Until(begin))
	total.stolen = stolenShare(wg.Wait)
	for _, p := range parts {
		total.merge(p)
	}
	return total, nil
}

// job is one open-loop statement and the instant it is due.
type job struct {
	op  op
	due time.Time
}

// runOpen drives the open loop: statements fall due on a schedule whatever
// the server is doing, each goes to whichever of the conns connections is
// free first, and its latency runs from the instant it was due, so the wait a
// stall imposes on the statements behind it is counted. due holds the
// schedule of warm-up and window together.
func runOpen(e *env, next opSource, due []time.Duration, warmup, window time.Duration) (*result, error) {
	clients, closeAll, err := dialAll(e.addr, conns)
	if err != nil {
		return nil, err
	}
	defer closeAll()
	ops := make([]op, len(due))
	for i := range ops {
		ops[i] = next()
	}
	queue := make(chan job, len(due)) // holds the whole schedule, so the dispatcher never waits for a connection
	parts := make([]*result, conns)
	var wg sync.WaitGroup
	start := time.Now()
	begin := start.Add(warmup)
	for i, c := range clients {
		parts[i] = &result{}
		wg.Add(1)
		go func(c *server.Client, r *result) {
			defer wg.Done()
			for j := range queue {
				resp, err := c.Exec(j.op.src)
				lat := time.Since(j.due)
				failed := r.failed
				r.check(j.op, resp, err)
				if err != nil {
					return // the connection is gone; the failure is counted
				}
				if lat > deadline && r.failed == failed {
					r.fail("%s: answered %v after it was due", j.op.src, lat)
				}
				if !j.due.Before(begin) {
					r.samples = append(r.samples, sample{at: j.due.Sub(begin), lat: lat, kind: j.op.kind})
					if lat > deadline {
						r.late++
					}
				}
			}
		}(c, parts[i])
	}
	total := &result{window: window}
	dispatch := func() {
		for i, d := range due {
			at := start.Add(d)
			time.Sleep(time.Until(at))
			if d >= warmup {
				total.lags = append(total.lags, time.Since(at))
			}
			queue <- job{ops[i], at}
		}
		close(queue)
		wg.Wait()
	}
	total.stolen = stolenShare(dispatch)
	for _, p := range parts {
		total.merge(p)
	}
	return total, nil
}
