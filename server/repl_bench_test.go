package server

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"tdb"
	"tdb/internal/repl"
	"tdb/temporal"
	"tdb/tquel"
)

// benchPrimary serves a primary carrying the paper history plus extra emp
// rows so catch-up moves a non-trivial log.
func benchPrimary(b *testing.B, extra int) (*tdb.DB, string) {
	b.Helper()
	primary, clock, _ := newPrimary(b)
	ses := tquel.NewSession(primary)
	for i := 0; i < extra; i++ {
		clock.Set(temporal.Date(1991, 1, 1) + temporal.Chronon(i))
		if _, err := ses.Exec(fmt.Sprintf(
			`append to emp (name = "b%d", dept = "cs", pay = %d) valid from "01/01/91" to forever`,
			i, 100+i%40)); err != nil {
			b.Fatal(err)
		}
	}
	_, addr := serveDB(b, primary, func(s *Server) {
		s.ReplHeartbeat = time.Second
	})
	return primary, addr
}

// BenchmarkReplicaCatchup measures a cold follower: empty directory to
// fully caught up over the wire — dial, handshake, ship, apply.
func BenchmarkReplicaCatchup(b *testing.B) {
	primary, addr := benchPrimary(b, 500)
	pe, ps, pc, err := primary.ReplPosition()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		path := filepath.Join(b.TempDir(), "replica.wal")
		fdb, err := tdb.Open(path, tdb.Options{ReadOnly: true})
		if err != nil {
			b.Fatal(err)
		}
		f := &repl.Follower{Addr: addr, Target: fdb, MinBackoff: time.Millisecond}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			defer close(done)
			f.Run(ctx)
		}()
		for {
			fe, fs := fdb.ReplCursor()
			if fe == pe && fs == ps && fdb.LastCommit() == pc {
				break
			}
			time.Sleep(200 * time.Microsecond)
		}
		cancel()
		<-done
		fdb.Close()
	}
}
