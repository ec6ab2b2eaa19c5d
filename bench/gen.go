package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"tdb"
	"tdb/temporal"
)

// Everything the server receives is made here, from the seed alone: the
// bulk dataset, each connection's statement stream and the hot-read pool.
// Nothing in this file reads a clock or ranges over a map, so one seed always
// yields the same bytes.

type kind int

const (
	kAsof kind = iota
	kOverlap
	kWindow
	kJoin
	kAppend
	kReplace
	numKinds
)

var kindNames = [numKinds]string{"asof", "overlap", "window", "join", "append", "replace"}

func (k kind) String() string { return kindNames[k] }
func (k kind) isRead() bool   { return k <= kJoin }

// scale sizes the dataset. loadCall rows go in per Relation.Load call, one
// commit day each, so the number of calls is the number of distinct rollback
// cuts an `as of` probe can land between.
type scale struct {
	versions     int
	loadCall     int
	replacements int
}

var (
	fullScale  = scale{versions: 200_000, loadCall: 8192, replacements: 4_000}
	smokeScale = scale{versions: 2_000, loadCall: 256, replacements: 200}
)

const (
	numShards   = 16
	vRange      = 1000
	replaceTxns = 5
	// Rows whose index is a multiple of mutableEvery are the only ones the
	// set-up replacements and the workloads' `replace` statements touch; the
	// rest never change, which is what lets a read anchored on one of them
	// be guaranteed a non-empty answer.
	mutableEvery = 8
	day          = 86400
)

var (
	validBase = temporal.Date(1980, time.January, 1)
	// Commits land at noon and `as of` dates name midnight, so no probe
	// ever ties with a commit chronon.
	clockOrigin = temporal.Date(1985, time.January, 1).Add(12 * 3600)
	replaceDay0 = 25 // 01/26/85, after the last full-scale load day
)

type row struct {
	id       string
	shard, v int
	from, to temporal.Chronon
}

type dataset struct {
	sc        scale
	rows      []row
	loadDays  int
	immutable []int // indices of rows no statement ever rewrites
	mutable   []int
	// setupRepl lists (row index, new v) for the replacements set-up makes,
	// in execution order; it is cut into replaceTxns transactions.
	setupRepl [][2]int
}

// stream salts: every random choice draws from seed ^ salt of its purpose.
const (
	saltDataset = 0x5eed_d474
	saltPool    = 0x5eed_9001
	saltZipf    = 0x5eed_21bf
	saltArrive  = 0x5eed_a771
	saltStream  = 0x5eed_57a0 // + connection number
)

func newRand(seed int64, salt int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 ^ salt))
}

func shardName(s int) string { return fmt.Sprintf("s%02d", s) }

func dateLit(c temporal.Chronon) string { return c.Time().UTC().Format("01/02/06") }

func newDataset(seed int64, sc scale) *dataset {
	rng := newRand(seed, saltDataset)
	ds := &dataset{sc: sc, rows: make([]row, sc.versions)}
	ds.loadDays = (sc.versions + sc.loadCall - 1) / sc.loadCall
	for i := range ds.rows {
		from := validBase.Add(int64(rng.Intn(731)) * day)
		ds.rows[i] = row{
			id:    fmt.Sprintf("k%06d", i),
			shard: rng.Intn(numShards),
			v:     rng.Intn(vRange),
			from:  from,
			to:    from.Add(int64(1+rng.Intn(1000)) * day),
		}
		if i%mutableEvery == 0 {
			ds.mutable = append(ds.mutable, i)
		} else {
			ds.immutable = append(ds.immutable, i)
		}
	}
	for _, j := range rng.Perm(len(ds.mutable))[:sc.replacements] {
		ds.setupRepl = append(ds.setupRepl, [2]int{ds.mutable[j], rng.Intn(vRange)})
	}
	return ds
}

func (r row) tuple(v int) tdb.Tuple {
	return tdb.NewTuple(tdb.String(r.id), tdb.String(shardName(r.shard)), tdb.Int(int64(v)))
}

// loadRows renders the bulk rows as Load input, cut into the per-day calls.
func (ds *dataset) loadRows() [][]tdb.LoadRow {
	var calls [][]tdb.LoadRow
	for off := 0; off < len(ds.rows); off += ds.sc.loadCall {
		end := min(off+ds.sc.loadCall, len(ds.rows))
		call := make([]tdb.LoadRow, 0, end-off)
		for _, r := range ds.rows[off:end] {
			call = append(call, tdb.LoadRow{Data: r.tuple(r.v), From: r.from, To: r.to})
		}
		calls = append(calls, call)
	}
	return calls
}

// deptRows is the small relation the join reads: six back-to-back periods
// per shard covering every valid instant a gen row can have.
func deptRows() []tdb.LoadRow {
	var rows []tdb.LoadRow
	for s := 0; s < numShards; s++ {
		for j := 0; j < 6; j++ {
			from := temporal.Date(1979+j, time.January, 1)
			to := temporal.Date(1980+j, time.January, 1)
			if j == 5 {
				to = temporal.Forever
			}
			rows = append(rows, tdb.LoadRow{
				Data: tdb.NewTuple(tdb.String(shardName(s)), tdb.String(fmt.Sprintf("m%02d-%d", s, j))),
				From: from, To: to,
			})
		}
	}
	return rows
}

const rangeDecls = "range of g is gen range of d is dept"

// op is one generated statement with what the harness may assume about its
// answer.
type op struct {
	kind kind
	src  string
	// wantRows is the exact row count of an asof answer; for the other read
	// kinds it is -1, meaning "at least one row"; unused for writes.
	wantRows int
	row      row // append: the row written
}

// mix is a deck of kinds dealt in shuffled order, so every len(deck)
// consecutive statements hold exactly the stated shares; only order and
// parameters depend on the seed.
type mix []kind

func deck(counts [numKinds]int) mix {
	var m mix
	for k, n := range counts {
		for i := 0; i < n; i++ {
			m = append(m, kind(k))
		}
	}
	return m
}

var (
	mixScan   = deck([numKinds]int{kAsof: 8, kOverlap: 6, kWindow: 3, kJoin: 3})
	mixIngest = deck([numKinds]int{kAppend: 1})
	mixMixed  = deck([numKinds]int{kAppend: 10, kAsof: 3, kOverlap: 3, kWindow: 1, kJoin: 1, kReplace: 2})
)

// stream generates one connection's statements. Connection c of n anchors
// its reads on rows c, c+n, c+2n, … of a seeded permutation, so parameters
// repeat neither within nor across connections.
type stream struct {
	ds      *dataset
	rng     *rand.Rand
	conn    int
	mix     mix
	hand    mix
	anchors []int // permutation of immutable row positions for this stream
	nextAn  int
	keys    []int // permutation of all row positions, for asof
	nextKey int
	seq     int
}

func newStream(ds *dataset, seed int64, conn, conns int, m mix) *stream {
	s := &stream{ds: ds, rng: newRand(seed, saltStream+int64(conn)), conn: conn, mix: m}
	if len(ds.rows) > 0 {
		for _, p := range s.rng.Perm(len(ds.immutable)) {
			if p%conns == conn {
				s.anchors = append(s.anchors, ds.immutable[p])
			}
		}
		for _, p := range s.rng.Perm(len(ds.rows)) {
			if p%conns == conn {
				s.keys = append(s.keys, p)
			}
		}
	}
	return s
}

func (s *stream) next() op {
	if len(s.hand) == 0 {
		s.hand = append(s.hand, s.mix...)
		s.rng.Shuffle(len(s.hand), func(i, j int) { s.hand[i], s.hand[j] = s.hand[j], s.hand[i] })
	}
	k := s.hand[len(s.hand)-1]
	s.hand = s.hand[:len(s.hand)-1]
	return s.gen(k)
}

func (s *stream) anchor() row {
	r := s.ds.rows[s.anchors[s.nextAn%len(s.anchors)]]
	s.nextAn++
	return r
}

func (s *stream) gen(k kind) op {
	rng := s.rng
	switch k {
	case kAsof:
		i := s.keys[s.nextKey%len(s.keys)]
		s.nextKey++
		d := 1 + rng.Intn(s.ds.loadDays)
		want := 0
		if i/s.ds.sc.loadCall < d {
			want = 1
		}
		at := temporal.Date(1985, time.January, 1).Add(int64(d) * day)
		return op{kind: k, wantRows: want,
			src: fmt.Sprintf(`retrieve (g.v) where g.id = %q as of %q`, s.ds.rows[i].id, dateLit(at))}
	case kOverlap:
		r := s.anchor()
		days := int(int64(r.to-r.from) / day)
		at := r.from.Add(int64(rng.Intn(days)) * day)
		return op{kind: k, wantRows: -1,
			src: fmt.Sprintf(`retrieve (g.id, g.v) where g.shard = %q and g.v = %d when g overlap %q`,
				shardName(r.shard), r.v, dateLit(at))}
	case kWindow:
		r := s.anchor()
		src := fmt.Sprintf(`retrieve (c = count(g.v), s = sum(g.v)) where g.shard = %q and g.v < %d window %d`,
			shardName(r.shard), r.v+1+rng.Intn(100), 365*day/(1+rng.Intn(3)))
		if rng.Intn(2) == 0 {
			src += " coalesce"
		}
		return op{kind: k, wantRows: -1, src: src}
	case kJoin:
		r := s.anchor()
		return op{kind: k, wantRows: -1,
			src: fmt.Sprintf(`retrieve (g.id, d.mgr) where g.shard = d.shard and g.v = %d and d.shard = %q when g overlap d`,
				r.v, shardName(r.shard))}
	case kAppend:
		r := row{
			id:    fmt.Sprintf("a%d-%07d", s.conn, s.seq),
			shard: rng.Intn(numShards),
			v:     rng.Intn(vRange),
			from:  validBase.Add(int64(rng.Intn(731)) * day),
			to:    temporal.Date(1982, time.January, 1).Add(int64(rng.Intn(1096)) * day),
		}
		s.seq++
		return op{kind: k, row: r,
			src: fmt.Sprintf(`append to gen (id = %q, shard = %q, v = %d) valid from %q to %q`,
				r.id, shardName(r.shard), r.v, dateLit(r.from), dateLit(r.to))}
	case kReplace:
		r := s.ds.rows[s.ds.mutable[rng.Intn(len(s.ds.mutable))]]
		from := validBase.Add(int64(rng.Intn(731)) * day)
		to := temporal.Date(1982, time.January, 1).Add(int64(rng.Intn(1096)) * day)
		return op{kind: k,
			src: fmt.Sprintf(`replace g (v = %d) where g.id = %q valid from %q to %q`,
				rng.Intn(vRange), r.id, dateLit(from), dateLit(to))}
	}
	panic("bench: unknown kind")
}

const (
	poolSize = 512
	zipfS    = 1.1
)

// hotPool is the fixed statement set hot-read draws from: 256 asof, 192
// overlap, 64 window. Kinds sit at fixed ranks (the pattern below repeats
// every eight) so that the Zipf head always holds the same kinds and only
// parameters follow the seed.
func hotPool(ds *dataset, seed int64) []op {
	pattern := [8]kind{kAsof, kOverlap, kAsof, kOverlap, kAsof, kWindow, kAsof, kOverlap}
	s := newStream(ds, seed, 0, 1, nil)
	s.rng = newRand(seed, saltPool)
	pool := make([]op, poolSize)
	for i := range pool {
		pool[i] = s.gen(pattern[i%len(pattern)])
	}
	return pool
}

// zipfPicker draws pool positions Zipf(zipfS); one per connection.
func zipfPicker(seed int64, conn int) func() int {
	z := rand.NewZipf(newRand(seed, saltZipf+int64(conn)), zipfS, 1, poolSize-1)
	return func() int { return int(z.Uint64()) }
}

// arrivals is an open loop's plan: the instants, counted from the loop's
// start, at which its statements are due. They are a Poisson process of the
// given rate over span, conditioned on its count: exactly rate × span
// arrivals, so that every seed offers the same load, at instants drawn
// uniformly and independently, which is how a Poisson process places a known
// number of arrivals.
func arrivals(seed int64, perSecond float64, span time.Duration) []time.Duration {
	rng := newRand(seed, saltArrive)
	due := make([]time.Duration, int(perSecond*span.Seconds()))
	for i := range due {
		due[i] = time.Duration(rng.Float64() * float64(span))
	}
	sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })
	return due
}
