package wal

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Group commit. Every committed transaction must reach the log, and with
// Sync on, the fsync dominates commit latency. Instead of each committer
// paying for its own fsync, committers enqueue their encoded records with a
// dedicated leader goroutine, which drains the queue and lands the whole
// batch as one file write and one fsync (Log.AppendPayloads). Under
// concurrency the batch grows naturally: while the leader is inside an
// fsync, every committer that arrives queues up behind it and is flushed
// together the moment the fsync returns — no timer needed; committers that
// come back just after it are waited for briefly (see minPatience). MaxWait
// can widen the window further for workloads that trickle in, trading
// commit latency for larger batches.
//
// A failed flush stops the committer: AppendPayloads rolls the failed batch
// back to the pre-batch file size, so everything flushed before stays
// durable, and that batch and every later one fail with its error without
// touching the file. A record queued behind a lost one may depend on it (a
// replace of a key whose insert was lost), and only a reopen knows which
// prefix the log holds.

// maxBatch caps how many records one flush coalesces.
const maxBatch = 512

// GroupOptions configure a GroupCommitter.
type GroupOptions struct {
	// MaxWait is how long the leader lingers after the first record of a
	// batch arrives, hoping more committers show up. Zero (the default)
	// flushes immediately — batching still emerges from commits that
	// arrive during the previous flush's fsync or, from committers it
	// showed, just after it (see minPatience), which costs idle workloads
	// nothing.
	MaxWait time.Duration
	// Notify, when non-nil, runs after every successful flush — the hook
	// the database uses to wake replication streams without the leader
	// needing any database lock.
	Notify func()
}

// Pending is one enqueued commit's claim ticket. Wait blocks until the
// leader has flushed (or failed) the batch covering it.
type Pending struct {
	done chan error
}

// Wait blocks until the record is durably logged, returning the batch's
// error if its flush failed.
func (p *Pending) Wait() error { return <-p.done }

type pendingRec struct {
	payload []byte // nil for a Flush barrier
	done    chan error
}

// GroupCommitter coalesces concurrent commits onto shared WAL flushes. It
// owns all appends to its Log: callers enqueue, the leader goroutine
// writes.
type GroupCommitter struct {
	log     *Log
	maxWait time.Duration
	notify  func()

	mu     sync.Mutex
	queue  []pendingRec
	closed bool

	failed atomic.Pointer[error] // the first failed flush's error; set once, by the leader

	wake chan struct{} // cap 1: the leader's doorbell
	done chan struct{} // closed when the leader exits
}

// NewGroupCommitter starts a leader goroutine flushing l.
func NewGroupCommitter(l *Log, opts GroupOptions) *GroupCommitter {
	g := &GroupCommitter{
		log:     l,
		maxWait: opts.MaxWait,
		notify:  opts.Notify,
		wake:    make(chan struct{}, 1),
		done:    make(chan struct{}),
	}
	go g.run()
	return g
}

// Enqueue hands one record to the leader and returns immediately. The
// caller may keep holding whatever lock serialized the commit order —
// queue order is flush order — and Wait for durability after releasing it,
// which is what lets independent committers share a flush at all.
func (g *GroupCommitter) Enqueue(rec Record) *Pending {
	return g.enqueue(EncodeRecord(rec))
}

func (g *GroupCommitter) enqueue(payload []byte) *Pending {
	p := &Pending{done: make(chan error, 1)}
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		p.done <- ErrClosed
		return p
	}
	g.queue = append(g.queue, pendingRec{payload: payload, done: p.done})
	g.mu.Unlock()
	select {
	case g.wake <- struct{}{}:
	default:
	}
	return p
}

// Flush blocks until everything enqueued before it has been flushed,
// returning the error (if any) of the batch that carried the barrier, or
// of an earlier failed flush. The
// database's checkpoint calls it while holding the lock that gates new
// enqueues, so afterwards Log.Records is exact.
func (g *GroupCommitter) Flush() error {
	return g.enqueue(nil).Wait()
}

// Err returns the first failed flush's error, or nil while every flush has
// succeeded.
func (g *GroupCommitter) Err() error {
	if p := g.failed.Load(); p != nil {
		return *p
	}
	return nil
}

// Close drains the queue, flushes it, and stops the leader. Further
// enqueues fail with ErrClosed. It does not close the underlying Log,
// which the committer does not own.
func (g *GroupCommitter) Close() error {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		<-g.done
		return nil
	}
	g.closed = true
	g.mu.Unlock()
	select {
	case g.wake <- struct{}{}:
	default:
	}
	<-g.done
	return nil
}

// With no wait window armed the leader still waits for committers it has
// reason to expect: the ones its last flush released come back a round trip
// later, short beside an fsync, and flushing without them makes callers that
// wait for their reply take turns, one fsync each, where one would carry
// them all (docs/ingest.md). It blocks while it waits — a leader that yields
// keeps its processor from polling the network they come back over — and a
// blocked wait that runs out costs a millisecond whatever was asked, so
// after one it goes missRest flushes without; an append so quick that a
// quarter of it is under minPatience (Sync off) is never waited for.
const (
	minPatience = 20 * time.Microsecond
	missRest    = 64
)

// lingerTimer times the leader's linger; a test replaces it to count shared
// flushes without depending on how fast the scheduler brings committers back.
var lingerTimer = time.NewTimer

// run is the leader loop: wait for work, optionally linger to coalesce,
// pop a bounded prefix of the queue, flush it as one append, deliver the
// shared result to every committer it covered.
func (g *GroupCommitter) run() {
	defer close(g.done)
	var (
		expect int           // committers the last flush showed at once
		took   time.Duration // how long its append took; a quarter of that is waited for them
		calm   = missRest    // flushes since such a wait last ran out
	)
	for {
		n, closed := g.queued()
		if n == 0 {
			if closed {
				return
			}
			<-g.wake
			continue
		}
		wait, enough := g.maxWait, maxBatch
		if wait == 0 && n < expect && took/4 >= minPatience && calm >= missRest {
			wait, enough = took/4, min(expect, maxBatch)
		}
		switch {
		case wait > 0 && n < enough && !closed:
			timer := lingerTimer(wait)
		linger:
			for {
				select {
				case <-g.wake:
					n, closed = g.queued()
					if n >= enough || closed {
						break linger
					}
				case <-timer.C:
					if g.maxWait == 0 {
						calm = -1
					}
					break linger
				}
			}
			timer.Stop()
		case n < maxBatch && !closed:
			// Nothing to wait for: linger opportunistically instead. Each
			// yield lets runnable committers finish the enqueue they are
			// already inside, growing the batch at scheduler-switch cost —
			// microseconds, where even the shortest timer sleep costs
			// milliseconds. The loop stops the moment a yield adds nothing,
			// so a lone committer (blocked in Wait until this very flush)
			// still gets its record flushed alone, immediately: sequential
			// workloads produce byte-for-byte the logs they always did.
			for yields := 0; yields < 8; yields++ {
				runtime.Gosched()
				grown, closed := g.queued()
				if grown == n || grown >= maxBatch || closed {
					break
				}
				n = grown
			}
		}
		expect, took = g.flushPrefix()
		calm = min(calm+1, missRest)
	}
}

func (g *GroupCommitter) queued() (n int, closed bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.queue), g.closed
}

// flushPrefix pops up to maxBatch queued records, appends them as one
// batch, and delivers the result. It returns how many committers it saw at
// once — those it popped and those queued behind them when the append
// returned, before any is released to come back — and how long that took.
func (g *GroupCommitter) flushPrefix() (crowd int, took time.Duration) {
	g.mu.Lock()
	n := min(len(g.queue), maxBatch)
	batch := slices.Clone(g.queue[:n])
	g.queue = slices.Delete(g.queue, 0, n) // zeroes the vacated tail
	g.mu.Unlock()
	if n == 0 {
		return 0, 0
	}
	payloads := make([][]byte, 0, n)
	for _, p := range batch {
		if p.payload != nil {
			payloads = append(payloads, p.payload)
		}
	}
	err := g.Err()
	if len(payloads) > 0 && err == nil {
		start := time.Now()
		err = g.log.AppendPayloads(payloads)
		took = time.Since(start)
		mGroupBatch.Observe(float64(len(payloads)))
		if err != nil {
			g.failed.Store(&err)
		}
	}
	behind, _ := g.queued()
	for _, p := range batch {
		p.done <- err
	}
	if err == nil && len(payloads) > 0 && g.notify != nil {
		g.notify()
	}
	return n + behind, took
}
