package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tdb/internal/obs"
	"tdb/server"
)

// span is one recorded interval. Times are nanoseconds since the recorder
// was made. Parent and Self are filled in by link.
type span struct {
	ID     int              `json:"id"`
	Parent int              `json:"parent"` // -1: a root
	Name   string           `json:"name"`
	Start  int64            `json:"start_ns"`
	End    int64            `json:"end_ns"`
	Self   int64            `json:"self_ns"`
	Notes  map[string]int64 `json:"notes,omitempty"`
}

// recorder keeps spans in memory. It is the obs.Tracer handed to the server
// (whose sessions report parse, analyze, cache, plan, stats, execute and
// parallel) and the sink for the client-side spans of tracedClient. While
// off it records nothing, so set-up and cache filling leave no spans.
type recorder struct {
	epoch time.Time
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its id, or -1 when the recorder is off or
// nil (the untraced pass runs the same client code with a nil recorder).
func (r *recorder) begin(name string) int {
	if r == nil || !r.on.Load() {
		return -1
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans), Parent: -1, Name: name, Start: now, End: now})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) {
	if id < 0 {
		return
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// Start implements obs.Tracer.
func (r *recorder) Start(name string) obs.Span { return liveSpan{r, r.begin(name)} }

type liveSpan struct {
	r  *recorder
	id int
}

func (s liveSpan) End() { s.r.end(s.id) }

func (s liveSpan) Note(key string, v int64) {
	if s.id < 0 {
		return
	}
	s.r.mu.Lock()
	defer s.r.mu.Unlock()
	sp := &s.r.spans[s.id]
	if sp.Notes == nil {
		sp.Notes = make(map[string]int64)
	}
	sp.Notes[key] = v
}

// linked returns a copy of the recorded spans with parents and self times
// filled in. It copies under the lock because a server goroutine may still be
// ending the last request's spans.
func (r *recorder) linked() []span {
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	for i := range spans {
		if spans[i].Notes != nil {
			notes := make(map[string]int64, len(spans[i].Notes))
			for k, v := range spans[i].Notes {
				notes[k] = v
			}
			spans[i].Notes = notes
		}
	}
	r.mu.Unlock()
	link(spans)
	return spans
}

// link gives every span the innermost span that contains it as parent, and
// its self time: its duration minus the part its children cover. With one
// connection the spans of a request nest strictly, so containment in time
// is the call tree; the program's spans end up under the client's `server`
// span although they were recorded on another goroutine.
func link(spans []span) {
	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		x, y := spans[order[a]], spans[order[b]]
		if x.Start != y.Start {
			return x.Start < y.Start
		}
		if x.End != y.End {
			return x.End > y.End
		}
		return x.ID < y.ID
	})
	children := make(map[int][]int)
	var stack []int
	for _, i := range order {
		for len(stack) > 0 && spans[stack[len(stack)-1]].End < spans[i].End {
			stack = stack[:len(stack)-1]
		}
		spans[i].Parent = -1
		if len(stack) > 0 {
			p := stack[len(stack)-1]
			spans[i].Parent = p
			children[p] = append(children[p], i)
		}
		stack = append(stack, i)
	}
	for i := range spans {
		// children[i] is in start order; merge overlaps before subtracting.
		var covered, reach int64 = 0, spans[i].Start
		for _, c := range children[i] {
			from, to := max(spans[c].Start, reach), min(spans[c].End, spans[i].End)
			if to > from {
				covered += to - from
				reach = to
			}
		}
		spans[i].Self = spans[i].End - spans[i].Start - covered
	}
}

// selfByName sums self time per span name, and the duration of the roots
// named root.
func selfByName(spans []span, root string) (self map[string]int64, wall int64) {
	self = make(map[string]int64)
	for _, s := range spans {
		self[s.Name] += s.Self
		if s.Name == root && s.Parent == -1 {
			wall += s.End - s.Start
		}
	}
	return self, wall
}

func writeSpans(spans []span, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	err = json.NewEncoder(w).Encode(spans)
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// tracedClient speaks the wire protocol itself instead of through
// server.Client, because the spans need the three instants server.Client
// keeps to itself: request encoded, reply line read, reply decoded.
type tracedClient struct {
	conn      net.Conn
	r         *bufio.Reader
	rec       *recorder // nil: the untraced pass
	respBytes int64
}

func dialTraced(addr string, rec *recorder) (*tracedClient, error) {
	conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return nil, err
	}
	c := &tracedClient{conn: conn, r: bufio.NewReaderSize(conn, 64*1024), rec: rec}
	resp, err := c.exec(rangeDecls)
	if err == nil && resp.Error != "" {
		err = fmt.Errorf("range declarations: %s", resp.Error)
	}
	if err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

func (c *tracedClient) exec(src string) (*server.Response, error) {
	req := c.rec.begin("request")
	defer c.rec.end(req)

	enc := c.rec.begin("client.encode")
	line, err := json.Marshal(server.Request{V: server.ProtoVersion, Src: src})
	line = append(line, '\n')
	c.rec.end(enc)
	if err != nil {
		return nil, err
	}

	srv := c.rec.begin("server")
	_, err = c.conn.Write(line)
	var reply []byte
	if err == nil {
		reply, err = c.r.ReadBytes('\n')
	}
	c.rec.end(srv)
	if err != nil {
		return nil, err
	}
	c.respBytes += int64(len(reply))

	dec := c.rec.begin("client.decode")
	var resp server.Response
	err = json.Unmarshal(reply, &resp)
	c.rec.end(dec)
	if err != nil {
		return nil, err
	}
	return &resp, nil
}

// programSpans are the span names tquel sessions emit.
var programSpans = []string{"parse", "analyze", "cache", "plan", "stats", "execute", "parallel"}

// fixedPass sends the workload's statement stream on one connection, closed
// loop, a fixed number of statements, so that every count the program keeps
// repeats exactly for a seed. rec is nil for the untraced pass.
type fixedPass struct {
	elapsed   time.Duration
	srcs      []string
	acked     []row
	reads     int
	respBytes int64
	before    map[string]float64 // the program's counters around the pass
	after     map[string]float64
	fs        fsCounts
}

// counters reads every counter, and every histogram's count and sum, of the
// program's registry.
func counters() map[string]float64 {
	out := make(map[string]float64)
	for _, p := range obs.Default.Snapshot() {
		switch {
		case p.Hist != nil:
			out[p.Name+":count"] = float64(p.Hist.Count)
			out[p.Name+":sum"] = p.Hist.Sum
		case p.Type == "counter":
			out[p.Name] = float64(p.Value)
		}
	}
	return out
}

func (p *fixedPass) delta(name string) float64 { return p.after[name] - p.before[name] }

func runFixed(e *env, sp spec, ds *dataset, pool []op, n int, seed int64, rec *recorder, tl *tally) (*fixedPass, error) {
	c, err := dialTraced(e.addr, rec)
	if err != nil {
		return nil, err
	}
	defer c.conn.Close()
	// The workload's streams take turns on the one connection.
	srcs := sp.sources(ds, pool, seed)
	r := &result{}
	p := &fixedPass{before: counters()}
	var fs0 fsCounts
	if e.fs != nil {
		fs0 = e.fs.counts()
	}
	c.respBytes = 0
	if rec != nil {
		rec.on.Store(true)
		defer rec.on.Store(false)
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		if sp.checkpt && i == n/2 {
			if err := e.db.Checkpoint(); err != nil {
				return nil, err
			}
		}
		o := srcs[i%len(srcs)]()
		resp, err := c.exec(o.src)
		r.check(o, resp, err)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", o.src, err)
		}
		if o.kind.isRead() {
			p.reads++
		}
		if len(p.srcs) < 512 {
			p.srcs = append(p.srcs, o.src)
		}
	}
	p.elapsed = time.Since(start)
	p.after = counters()
	if e.fs != nil {
		p.fs = e.fs.counts().minus(fs0)
	}
	p.respBytes = c.respBytes
	p.acked = r.acked
	tl.add(r.tally)
	return p, nil
}

// tracedOps is the statement count of the fixed passes.
func (sp spec) tracedCount(cfg config) int {
	if cfg.smoke {
		return 200
	}
	return sp.tracedOps
}

// runTraced is the --trace 1 run: an untraced fixed pass for the overhead
// figure, the traced fixed pass on a fresh database, then the layer probes
// against that database.
func runTraced(sp spec, cfg config) (*report, *tally, error) {
	ph := newPhases()
	defer ph.print(sp.name)
	ds := sp.dataset(cfg)
	in := newInput(ds, sp.data)
	var pool []op
	if sp.mix == nil {
		pool = hotPool(ds, cfg.seed)
	}
	n := sp.tracedCount(cfg)
	tl := &tally{}
	ph.mark("generate")

	pass := func(rec *recorder) (*env, *fixedPass, error) {
		var tracer obs.Tracer
		if rec != nil {
			tracer = rec
		}
		e, err := cfg.setup(sp, in, tracer)
		if err != nil {
			return nil, nil, err
		}
		if pool != nil {
			err = prefill(e, pool, tl)
		}
		var p *fixedPass
		if err == nil {
			p, err = runFixed(e, sp, ds, pool, n, cfg.seed, rec, tl)
		}
		if err != nil {
			e.destroy()
			return nil, nil, err
		}
		return e, p, nil
	}

	e, plain, err := pass(nil)
	if err != nil {
		return nil, nil, err
	}
	if err := e.destroy(); err != nil {
		return nil, nil, err
	}
	ph.mark("untraced pass")

	rec := newRecorder()
	e, traced, err := pass(rec)
	if err != nil {
		return nil, nil, err
	}
	defer e.destroy()
	in.loads = nil
	ph.mark("traced pass")

	spans := rec.linked()
	if err := writeSpans(spans, filepath.Join(cfg.outDir, "trace.json")); err != nil {
		return nil, nil, err
	}
	rep := &report{}
	tracedMetrics(rep, e, traced, plain, spans, n)
	ph.mark("link and write spans")

	pds := ds
	if !sp.data {
		pds = datasetOf(traced.acked)
	}
	if err := probeLayers(rep, e, pds, traced.srcs, cfg); err != nil {
		return nil, nil, err
	}
	ph.mark("probes")
	return rep, tl, nil
}

// tracedMetrics derives the per-layer figures that come from the traced
// pass: span shares, the program's counters, the cache's and the device's.
func tracedMetrics(rep *report, e *env, t, plain *fixedPass, spans []span, n int) {
	self, wall := selfByName(spans, "request")
	ops := float64(n)
	rep.add("server.codec_us", float64(self["client.encode"]+self["client.decode"])/1e3/ops, "us", n)
	rep.add("server.command_share", t.delta("tdb_server_command_seconds:sum")*1e9/float64(wall), "ratio", 0)
	rep.add("server.resp_bytes_per_op", float64(t.respBytes)/ops, "B", n)
	for _, name := range programSpans {
		rep.add("tquel.span."+name, float64(self[name])/float64(wall), "ratio", 0)
	}
	rep.add("trace.unattributed_share", float64(self["server"])/float64(wall), "ratio", 0)
	rep.add("bench.trace_overhead_pct", (t.elapsed.Seconds()/plain.elapsed.Seconds()-1)*100, "%", 0)
	rep.add("tquel.rows_scanned_per_row", t.delta("tdb_query_rows_scanned_total")/max(t.delta("tdb_query_rows_returned_total"), 1), "ratio", 0)

	// Per retrieve, not per probe: one retrieve may probe under two keys.
	rep.add("qcache.hit_ratio", t.delta("tdb_qcache_hits_total")/max(float64(t.reads), 1), "ratio", t.reads)
	rep.add("qcache.insertions", t.delta("tdb_qcache_insertions_total"), "count", 0)
	rep.add("qcache.evictions", t.delta("tdb_qcache_evictions_total"), "count", 0)
	rep.add("qcache.bytes", float64(e.db.QueryCache().Stats().Bytes), "B", 0)

	pruned, scanned := t.delta("tdb_segment_pruned_total"), t.delta("tdb_segment_scanned_total")
	rep.add("segment.pruned_ratio", pruned/max(pruned+scanned, 1), "ratio", int(pruned+scanned))
	rep.add("segment.bloom_skips_per_op", t.delta("tdb_segment_bloom_skips_total")/ops, "count", 0)
	st := e.db.Stats()
	rep.add("segment.seals", float64(st.Segments), "count", 0)
	rep.add("segment.sealed_rows", float64(st.SealedRows), "count", 0)
	rep.add("segment.tail_rows", float64(st.TailRows), "count", 0)

	commits := t.delta("tdb_wal_records_total")
	rep.add("wal.fsyncs_per_commit", t.delta("tdb_wal_fsyncs_total")/max(commits, 1), "ratio", int(commits))
	rep.add("wal.group_batch_mean", t.delta("tdb_wal_group_commit_batch_size:sum")/max(t.delta("tdb_wal_group_commit_batch_size:count"), 1), "count", 0)
	rep.add("wal.bytes_per_commit", t.delta("tdb_wal_bytes_total")/max(commits, 1), "B", int(commits))
	rep.add("fs.writes", float64(t.fs.writes), "count", 0)
	rep.add("fs.write_bytes", float64(t.fs.bytes), "B", 0)
	rep.add("fs.syncs", float64(t.fs.syncs), "count", 0)
}
