package repl

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"tdb/temporal"
)

// fakeSource is an in-memory Source whose era and log the test mutates.
type fakeSource struct {
	mu      sync.Mutex
	epoch   uint64
	log     []byte
	last    temporal.Chronon
	snap    []byte
	changed chan struct{}
}

func newFakeSource() *fakeSource {
	return &fakeSource{changed: make(chan struct{})}
}

func (f *fakeSource) ReplPosition() (uint64, int64, temporal.Chronon, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.epoch, int64(len(f.log)), f.last, nil
}

func (f *fakeSource) ReplSnapshot() ([]byte, uint64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.snap, f.epoch, nil
}

func (f *fakeSource) ReplReadLog(epoch uint64, offset int64, max int) ([]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if epoch != f.epoch {
		return nil, ErrEpochGone
	}
	end := offset + int64(max)
	if end > int64(len(f.log)) {
		end = int64(len(f.log))
	}
	return append([]byte(nil), f.log[offset:end]...), nil
}

func (f *fakeSource) ReplChanged() <-chan struct{} {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.changed
}

// append grows the log and wakes waiters, like DB.notifyRepl.
func (f *fakeSource) append(p []byte) {
	f.mu.Lock()
	f.log = append(f.log, p...)
	f.last++
	close(f.changed)
	f.changed = make(chan struct{})
	f.mu.Unlock()
}

// checkpoint rolls the era: new snapshot, empty log.
func (f *fakeSource) checkpoint(snap []byte) {
	f.mu.Lock()
	f.epoch++
	f.snap = append([]byte(nil), snap...)
	f.log = nil
	close(f.changed)
	f.changed = make(chan struct{})
	f.mu.Unlock()
}

// collect runs Stream in the background, delivering messages to a channel
// the test drains.
func collect(t *testing.T, src Source, cur Cursor, stop chan struct{}) <-chan Msg {
	t.Helper()
	out := make(chan Msg, 64)
	go func() {
		defer close(out)
		err := Stream(src, cur, func(m Msg) error {
			out <- m
			return nil
		}, StreamOptions{Heartbeat: 20 * time.Millisecond, Stop: stop})
		if err != nil {
			t.Errorf("Stream: %v", err)
		}
	}()
	return out
}

func next(t *testing.T, out <-chan Msg) Msg {
	t.Helper()
	select {
	case m := <-out:
		return m
	case <-time.After(5 * time.Second):
		t.Fatal("no stream message within 5s")
		return Msg{}
	}
}

// A cursor already on the current era gets the log tail as frames, then
// heartbeats while idle, then more frames when the log grows.
func TestStreamTailsAndHeartbeats(t *testing.T) {
	src := newFakeSource()
	src.append([]byte("abcd"))
	stop := make(chan struct{})
	defer close(stop)
	out := collect(t, src, Cursor{}, stop)

	m := next(t, out)
	if m.T != MsgFrames || !bytes.Equal(m.Data, []byte("abcd")) || m.Offset != 0 {
		t.Fatalf("first message = %+v, want frames abcd@0", m)
	}
	if m = next(t, out); m.T != MsgHeartbeat || m.Offset != 4 {
		t.Fatalf("idle message = %+v, want heartbeat at offset 4", m)
	}
	src.append([]byte("efgh"))
	for {
		if m = next(t, out); m.T == MsgHeartbeat {
			continue // a tick can race the append
		}
		break
	}
	if m.T != MsgFrames || !bytes.Equal(m.Data, []byte("efgh")) || m.Offset != 4 {
		t.Fatalf("tail message = %+v, want frames efgh@4", m)
	}
}

// A cursor from another era triggers the snapshot re-sync preamble: reset,
// chunked snapshot with a terminating Last, then frames from offset zero.
func TestStreamResyncsForeignCursor(t *testing.T) {
	src := newFakeSource()
	src.checkpoint(bytes.Repeat([]byte("s"), ChunkBytes+10)) // era 1, 2 chunks
	src.append([]byte("tail"))
	stop := make(chan struct{})
	defer close(stop)
	out := collect(t, src, Cursor{Epoch: 0, Offset: 99}, stop)

	if m := next(t, out); m.T != MsgReset || m.Epoch != 1 {
		t.Fatalf("preamble = %+v, want reset to era 1", m)
	}
	m := next(t, out)
	if m.T != MsgSnap || m.Last || len(m.Data) != ChunkBytes {
		t.Fatalf("first chunk = %T %v %d bytes, want full non-last snap chunk", m.T, m.Last, len(m.Data))
	}
	if m = next(t, out); m.T != MsgSnap || !m.Last || len(m.Data) != 10 {
		t.Fatalf("second chunk = %+v, want 10-byte last snap chunk", m)
	}
	if m = next(t, out); m.T != MsgFrames || !bytes.Equal(m.Data, []byte("tail")) || m.Offset != 0 {
		t.Fatalf("post-snapshot message = %+v, want frames tail@0", m)
	}
}

// A checkpoint while the stream is tailing makes the next log read fail
// with ErrEpochGone; the loop recovers by re-syncing onto the new era
// rather than surfacing an error.
func TestStreamRecoversFromEpochRollover(t *testing.T) {
	src := newFakeSource()
	src.append([]byte("old era"))
	roll := make(chan struct{})
	stop := make(chan struct{})
	defer close(stop)
	out := make(chan Msg, 64)
	go func() {
		defer close(out)
		first := true
		err := Stream(src, Cursor{}, func(m Msg) error {
			if first {
				// Roll the era under the stream's feet after it has read the
				// position but before it delivers the first window — the
				// delivered window is from the dead era, and the next read
				// must hit ErrEpochGone.
				<-roll
				first = false
			}
			out <- m
			return nil
		}, StreamOptions{Heartbeat: time.Hour, Stop: stop})
		if err != nil {
			t.Errorf("Stream: %v", err)
		}
	}()
	src.checkpoint([]byte("snap"))
	src.append([]byte("new era"))
	close(roll)

	// Skip whatever stale-era message was in flight; the stream must reach
	// the new era's reset + snapshot + frames.
	var got []Msg
	deadline := time.After(5 * time.Second)
	for len(got) == 0 || got[len(got)-1].T != MsgFrames || got[len(got)-1].Epoch != 1 {
		select {
		case m := <-out:
			got = append(got, m)
		case <-deadline:
			t.Fatalf("stream never re-synced onto era 1; saw %+v", got)
		}
	}
	sawReset, sawSnap := false, false
	for _, m := range got {
		if m.T == MsgReset && m.Epoch == 1 {
			sawReset = true
		}
		if m.T == MsgSnap && m.Last && bytes.Equal(m.Data, []byte("snap")) {
			sawSnap = true
		}
	}
	if !sawReset || !sawSnap {
		t.Fatalf("re-sync preamble incomplete (reset=%v snap=%v): %+v", sawReset, sawSnap, got)
	}
	tail := got[len(got)-1]
	if !bytes.Equal(tail.Data, []byte("new era")) || tail.Offset != 0 {
		t.Fatalf("post-rollover frames = %+v", tail)
	}
}

// Closing Stop ends the loop with a nil error, and a send failure does the
// same — a follower hangup is a normal end of stream.
func TestStreamStopsCleanly(t *testing.T) {
	src := newFakeSource()
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- Stream(src, Cursor{}, func(Msg) error { return nil },
			StreamOptions{Heartbeat: time.Hour, Stop: stop})
	}()
	close(stop)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Stream on Stop: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Stream did not return after Stop")
	}

	src.append([]byte("x"))
	hangup := errors.New("peer went away")
	if err := Stream(src, Cursor{}, func(Msg) error { return hangup },
		StreamOptions{Heartbeat: time.Hour, Stop: nil}); err != nil {
		t.Fatalf("Stream on send failure: %v", err)
	}
}
