package repl

import (
	"errors"
	"fmt"
	"time"

	"tdb/temporal"
)

// ErrEpochGone reports a log read against an epoch the primary has since
// checkpointed away. It is not a failure: the stream loop re-reads the
// position and re-syncs the follower onto the new era.
var ErrEpochGone = errors.New("repl: epoch rolled over")

// Source is the primary-side surface Stream serves from. *tdb.DB
// implements it; the indirection keeps this package free of the root
// package (which imports it back for the error sentinel).
//
// All methods are safe for concurrent use, and a position read followed by
// a log read is allowed to race a checkpoint: ReplReadLog fails with
// ErrEpochGone when the era it was asked for no longer exists, and the
// stream loop recovers by re-syncing.
type Source interface {
	// ReplPosition returns the current log era, its size in bytes, and the
	// latest commit chronon — the triple a heartbeat reports. An error ends
	// the stream.
	ReplPosition() (epoch uint64, size int64, last temporal.Chronon, err error)
	// ReplSnapshot returns the raw encoded bytes of the snapshot pairing
	// with the current era, and that era. Before the first checkpoint it
	// returns (nil, 0, nil): era zero needs no snapshot.
	ReplSnapshot() (data []byte, epoch uint64, err error)
	// ReplReadLog reads up to max bytes of the era's log file at offset.
	ReplReadLog(epoch uint64, offset int64, max int) ([]byte, error)
	// ReplChanged returns a channel closed when the log position next
	// advances (append, checkpoint, or reset).
	ReplChanged() <-chan struct{}
}

// StreamOptions configure one serving loop.
type StreamOptions struct {
	// Heartbeat is the idle-feed position-report interval. Zero means
	// DefaultHeartbeat.
	Heartbeat time.Duration
	// Stop ends the stream loop when closed (server shutdown).
	Stop <-chan struct{}
}

// DefaultHeartbeat is the idle position-report interval when unset.
const DefaultHeartbeat = 2 * time.Second

// Stream serves one replication feed: it brings the follower's cursor
// onto the primary's current era (shipping a snapshot when the cursor is
// from another era or past the log), then tails the log, shipping byte
// windows as they appear and heartbeats while idle. send delivers one
// message to the follower; its first error ends the stream (the follower
// reconnects and resumes). Stream returns nil on Stop and on send
// failure — a broken follower connection is a normal end, not a server
// error.
func Stream(src Source, cur Cursor, send func(Msg) error, opts StreamOptions) error {
	hb := opts.Heartbeat
	if hb <= 0 {
		hb = DefaultHeartbeat
	}
	mStreamsTotal.Inc()
	mStreamsOpen.Inc()
	defer mStreamsOpen.Dec()
	timer := time.NewTimer(hb)
	defer timer.Stop()
	for {
		epoch, size, last, err := src.ReplPosition()
		if err != nil {
			send(Msg{T: MsgError, Err: fmt.Sprintf("position unavailable: %v", err)})
			return fmt.Errorf("repl: stream position: %w", err)
		}
		if cur.Epoch != epoch || cur.Offset > size {
			// The cursor is not a prefix of the current era: checkpoint
			// rollover, a fresh follower against an old primary, or a
			// follower from a different history. Re-sync via snapshot.
			snap, snapEpoch, err := src.ReplSnapshot()
			if err != nil {
				send(Msg{T: MsgError, Err: fmt.Sprintf("snapshot unavailable: %v", err)})
				return fmt.Errorf("repl: stream snapshot: %w", err)
			}
			mSnapshotsServed.Inc()
			if err := send(Msg{T: MsgReset, Epoch: snapEpoch}); err != nil {
				return nil
			}
			for off := 0; ; off += ChunkBytes {
				end := off + ChunkBytes
				if end >= len(snap) {
					end = len(snap)
				}
				m := Msg{T: MsgSnap, Epoch: snapEpoch, Data: snap[off:end], Last: end == len(snap)}
				if err := send(m); err != nil {
					return nil
				}
				if m.Last {
					break
				}
			}
			cur = Cursor{Epoch: snapEpoch, Offset: 0}
			continue
		}
		if cur.Offset < size {
			max := int(size - cur.Offset)
			if max > ChunkBytes {
				max = ChunkBytes
			}
			data, err := src.ReplReadLog(cur.Epoch, cur.Offset, max)
			if err != nil {
				if errors.Is(err, ErrEpochGone) {
					continue // next iteration re-syncs onto the new era
				}
				send(Msg{T: MsgError, Err: fmt.Sprintf("log read: %v", err)})
				return fmt.Errorf("repl: stream read: %w", err)
			}
			if len(data) == 0 {
				continue
			}
			m := Msg{T: MsgFrames, Epoch: cur.Epoch, Offset: cur.Offset, Commit: last, Data: data}
			if err := send(m); err != nil {
				return nil
			}
			mShippedBytes.Add(uint64(len(data)))
			cur.Offset += int64(len(data))
			continue
		}
		// Caught up: wait for the position to advance, a heartbeat tick,
		// or shutdown. The change channel is fetched before re-checking
		// the position so an append between the check and the wait still
		// wakes the loop.
		changed := src.ReplChanged()
		if e2, s2, _, err := src.ReplPosition(); err != nil || e2 != cur.Epoch || s2 != cur.Offset {
			continue
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(hb)
		select {
		case <-changed:
		case <-timer.C:
			mHeartbeats.Inc()
			if err := send(Msg{T: MsgHeartbeat, Epoch: epoch, Offset: size, Commit: last}); err != nil {
				return nil
			}
		case <-opts.Stop:
			return nil
		}
	}
}
