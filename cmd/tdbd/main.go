// Command tdbd serves a temporal database over TCP using the tdb line
// protocol (see package tdb/server). Clients speak TQuel; each connection
// is its own session.
//
// Usage:
//
//	tdbd -addr :4791 -db /var/lib/tdb/data.wal -admin :4792
//
// With -follow the process becomes a read-only replica: it streams the
// primary's write-ahead log, applies it continuously, refuses mutations,
// and reports its lag on /statz (see docs/replication.md):
//
//	tdbd -addr :4793 -db /var/lib/tdb/replica.wal -follow 127.0.0.1:4791
//
// SIGINT/SIGTERM shut the server down gracefully, draining connections and
// syncing the write-ahead log. The optional admin endpoint serves
// /metrics (Prometheus text), /healthz, /statz (JSON snapshot), and
// /debug/pprof on its own listener; see docs/observability.md.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"tdb"
	"tdb/internal/obs"
	"tdb/internal/repl"
	"tdb/server"
)

// config collects the flag values so run can be exercised from tests.
type config struct {
	addr     string
	admin    string
	dbPath   string
	sync     bool
	slow     time.Duration
	trace    bool
	maxConns int
	readTO   time.Duration
	writeTO  time.Duration
	drainTO  time.Duration
	follow   string
}

func main() {
	var cfg config
	flag.StringVar(&cfg.addr, "addr", "127.0.0.1:4791", "listen address")
	flag.StringVar(&cfg.admin, "admin", "", "admin HTTP listen address (e.g. :4792; empty disables)")
	flag.StringVar(&cfg.dbPath, "db", "", "write-ahead log path (empty = in-memory)")
	flag.BoolVar(&cfg.sync, "sync", false, "fsync the log after every transaction")
	flag.DurationVar(&cfg.slow, "slow", 250*time.Millisecond, "log queries at least this slow (0 disables)")
	flag.BoolVar(&cfg.trace, "trace", false, "record per-phase query spans in the metrics registry")
	flag.IntVar(&cfg.maxConns, "max-conns", 0, "cap on concurrent connections; extra clients get a busy response (0 = unlimited)")
	flag.DurationVar(&cfg.readTO, "read-timeout", 0, "disconnect connections idle this long (0 disables)")
	flag.DurationVar(&cfg.writeTO, "write-timeout", 30*time.Second, "bound on writing one response (0 disables)")
	flag.DurationVar(&cfg.drainTO, "drain", server.DefaultDrainTimeout, "how long shutdown waits for in-flight requests")
	flag.StringVar(&cfg.follow, "follow", "", "primary address to replicate from; this node serves reads only")
	flag.Parse()
	logger := log.New(os.Stderr, "tdbd: ", log.LstdFlags)

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	if err := run(cfg, logger, sigs, nil); err != nil {
		logger.Fatal(err)
	}
}

// run opens the database, serves until a signal arrives or the listener
// fails, and — in every exit path — closes the database so the write-ahead
// log is synced and released. started, when non-nil, is called with the
// bound listener addresses (admin is nil when disabled) once the server is
// accepting.
func run(cfg config, logger *log.Logger, sigs <-chan os.Signal, started func(serverAddr, adminAddr net.Addr)) (err error) {
	if cfg.follow != "" && cfg.dbPath == "" {
		return errors.New("tdbd: -follow requires -db (followers persist the shipped log)")
	}
	db, err := tdb.Open(cfg.dbPath, tdb.Options{Sync: cfg.sync, ReadOnly: cfg.follow != ""})
	if err != nil {
		return err
	}
	// The deferred close is the shutdown-ordering guarantee: whether Serve
	// returns cleanly (signal) or with an error (port in use, listener
	// failure), the WAL is synced and closed before run returns.
	defer func() {
		if cerr := db.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()

	srv := server.New(db, logger)
	srv.SlowQueryThreshold = cfg.slow
	srv.MaxConns = cfg.maxConns
	srv.ReadTimeout = cfg.readTO
	srv.WriteTimeout = cfg.writeTO
	srv.DrainTimeout = cfg.drainTO
	if cfg.trace {
		srv.QueryTracer = obs.NewRegistryTracer(obs.Default, "tdb_query")
	}

	// A follower pulls the primary's stream in the background for the whole
	// life of the process; reads are served from the continuously applied
	// local state.
	var follower *repl.Follower
	var stopFollower context.CancelFunc
	if cfg.follow != "" {
		follower = &repl.Follower{Addr: cfg.follow, Target: db, Logger: logger}
		var fctx context.Context
		fctx, stopFollower = context.WithCancel(context.Background())
		defer stopFollower()
		go follower.Run(fctx)
		logger.Printf("following primary at %s", cfg.follow)
	}

	l, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}

	var admin *http.Server
	var adminAddr net.Addr
	if cfg.admin != "" {
		al, err := net.Listen("tcp", cfg.admin)
		if err != nil {
			l.Close()
			return err
		}
		adminAddr = al.Addr()
		admin = &http.Server{Handler: obs.NewAdminMux(obs.Default, obs.AdminOptions{
			Health: db.Health,
			Statz: func() map[string]any {
				st := db.Stats()
				m := map[string]any{
					"relations":        st.Relations,
					"versions":         st.Versions,
					"current_versions": st.CurrentVersions,
					"wal_records":      st.WALRecords,
					"last_commit":      int64(st.LastCommit),
					"epoch":            st.Epoch,
					"recovery":         st.Recovery,
					"cache":            db.QueryCache().Stats(),
					"config":           tdb.Config(),
					"stats":            db.TemporalStats(),
					"segments": map[string]any{
						"segments":    st.Segments,
						"sealed_rows": st.SealedRows,
						"tail_rows":   st.TailRows,
					},
				}
				if follower != nil {
					m["replication"] = map[string]any{
						"role":     "follower",
						"primary":  cfg.follow,
						"follower": follower.Stats(),
					}
				} else if st.ReadOnly {
					m["replication"] = map[string]any{"role": "follower"}
				} else {
					m["replication"] = map[string]any{"role": "primary"}
				}
				return m
			},
		})}
		go func() {
			if aerr := admin.Serve(al); aerr != nil && !errors.Is(aerr, http.ErrServerClosed) {
				logger.Printf("admin: %v", aerr)
			}
		}()
		logger.Printf("admin endpoint on %s", adminAddr)
	}

	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-sigs:
			logger.Print("shutting down")
			srv.Close()
		case <-done:
		}
	}()

	logger.Printf("listening on %s (db=%q sync=%v)", l.Addr(), cfg.dbPath, cfg.sync)
	if started != nil {
		started(l.Addr(), adminAddr)
	}
	serveErr := srv.Serve(l)
	// Whatever unblocked Serve — signal or listener failure — finish the
	// drain before the deferred db.Close: Close waits for every in-flight
	// handler even when a concurrent Close started the shutdown.
	srv.Close()
	if admin != nil {
		admin.Close()
	}
	return serveErr
}
