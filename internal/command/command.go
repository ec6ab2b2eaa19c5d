// Package command is the shared registry of session admin verbs — the
// commands that are not TQuel ("cache", "cache clear", "config", "stats",
// "help") — so every frontend dispatches the same set: the server serves
// them for Request.Cmd, and tdbcli runs them locally on a database it
// opened itself or forwards them over the wire. A new verb registers
// once here and appears everywhere, help text included.
//
// Wire-loop commands ("batch", "repl") are declared for help and
// recognition but handled by the server's request loop itself: they need
// the raw request or the connection, which a registry handler never sees.
package command

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"tdb"
	"tdb/internal/config"
	"tdb/internal/qcache"
)

// Result is a command's outcome: a human-readable rendering plus the
// typed payloads the wire protocol carries in dedicated response fields.
type Result struct {
	// Stmt labels the outcome ("cache", "config"); the server mirrors it
	// into Outcome.Stmt when Text is non-empty.
	Stmt string
	// Text is the human-readable rendering; empty when the payload is the
	// whole answer (the bare "cache" verb).
	Text string
	// Cache is set by the cache verbs, carried as Response.Cache.
	Cache *qcache.Stats
}

// Command is one registered verb.
type Command struct {
	// Name is the full verb, possibly multi-word ("cache clear"). Dispatch
	// picks the longest registered name that prefixes the input.
	Name string
	// Help is the one-line description shown by "help".
	Help string
	// Wire marks verbs the server's request loop handles itself ("batch",
	// "repl"): listed and recognized, but not dispatchable here.
	Wire bool
	// Run executes the verb. args is the input after the matched name,
	// trimmed; most verbs require it empty.
	Run func(db *tdb.DB, args string) (Result, error)
}

var (
	mu       sync.RWMutex
	registry = map[string]Command{}
)

// Register adds a verb, panicking on a duplicate name — commands register
// once, at init time.
func Register(c Command) {
	mu.Lock()
	defer mu.Unlock()
	if c.Name == "" {
		panic("command: empty name")
	}
	if _, ok := registry[c.Name]; ok {
		panic(fmt.Sprintf("command: duplicate %q", c.Name))
	}
	registry[c.Name] = c
}

// Lookup finds the longest registered verb prefixing line (on word
// boundaries) and returns it with the remaining arguments.
func Lookup(line string) (Command, string, bool) {
	mu.RLock()
	defer mu.RUnlock()
	fields := strings.Fields(line)
	for n := len(fields); n > 0; n-- {
		name := strings.Join(fields[:n], " ")
		if c, ok := registry[name]; ok {
			return c, strings.Join(fields[n:], " "), true
		}
	}
	return Command{}, "", false
}

// IsCommand reports whether line begins with a registered verb.
func IsCommand(line string) bool {
	_, _, ok := Lookup(line)
	return ok
}

// Dispatch runs the verb in line against db. Unknown verbs and wire-loop
// verbs return an error (the latter tells the caller to use the wire
// path).
func Dispatch(db *tdb.DB, line string) (Result, error) {
	c, args, ok := Lookup(line)
	if !ok {
		return Result{}, fmt.Errorf("unknown command %q (try %s)", strings.TrimSpace(line), nameList())
	}
	if c.Wire {
		return Result{}, fmt.Errorf("command %q is only available over the server wire protocol", c.Name)
	}
	return c.Run(db, args)
}

// Names returns the registered verbs, sorted.
func Names() []string {
	mu.RLock()
	defer mu.RUnlock()
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Help renders the one-line help for every verb.
func Help() string {
	mu.RLock()
	defer mu.RUnlock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString("commands:")
	for _, n := range names {
		fmt.Fprintf(&b, "\n  %-12s %s", n, registry[n].Help)
	}
	return b.String()
}

func nameList() string {
	names := Names()
	for i, n := range names {
		names[i] = fmt.Sprintf("%q", n)
	}
	return strings.Join(names, ", ")
}

// noArgs wraps a handler that accepts no arguments.
func noArgs(name string, run func(db *tdb.DB) (Result, error)) func(*tdb.DB, string) (Result, error) {
	return func(db *tdb.DB, args string) (Result, error) {
		if args != "" {
			return Result{}, fmt.Errorf("command %q takes no arguments (got %q)", name, args)
		}
		return run(db)
	}
}

func init() {
	Register(Command{
		Name: "cache", Help: "report query-cache statistics",
		Run: noArgs("cache", func(db *tdb.DB) (Result, error) {
			st := db.QueryCache().Stats()
			return Result{Stmt: "cache", Cache: &st}, nil
		}),
	})
	Register(Command{
		Name: "cache clear", Help: "drop every cached query result",
		Run: noArgs("cache clear", func(db *tdb.DB) (Result, error) {
			qc := db.QueryCache()
			qc.Clear()
			st := qc.Stats()
			return Result{Stmt: "cache", Text: "cache cleared", Cache: &st}, nil
		}),
	})
	Register(Command{
		Name: "config", Help: "show the configuration knobs and their effective values",
		Run: noArgs("config", func(db *tdb.DB) (Result, error) {
			return Result{Stmt: "config", Text: renderConfig()}, nil
		}),
	})
	Register(Command{
		Name: "stats", Help: "show per-relation temporal statistics",
		Run: noArgs("stats", func(db *tdb.DB) (Result, error) {
			return Result{Stmt: "stats", Text: renderStats(db)}, nil
		}),
	})
	Register(Command{
		Name: "help", Help: "list the available commands",
		Run: noArgs("help", func(db *tdb.DB) (Result, error) {
			return Result{Stmt: "help", Text: Help()}, nil
		}),
	})
	Register(Command{Name: "batch", Wire: true,
		Help: "run a multi-statement batch in one round trip (protocol 1.2+)"})
	Register(Command{Name: "repl", Wire: true,
		Help: "switch the connection into a replication feed (protocol 1.1+)"})
}

// renderConfig formats the knob registry with effective values: the
// environment's when set, the registered default otherwise.
func renderConfig() string {
	snap := config.Snapshot()
	var b strings.Builder
	b.WriteString("knob                          value")
	for _, k := range config.Knobs() {
		fmt.Fprintf(&b, "\n%-29s %s", k.Env, snap[k.Env])
	}
	return b.String()
}

// renderStats formats the per-relation statistics summaries, sorted by
// relation name so the output is deterministic.
func renderStats(db *tdb.DB) string {
	sums := db.TemporalStats()
	if len(sums) == 0 {
		return "no relations"
	}
	names := make([]string, 0, len(sums))
	for n := range sums {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString("relation: versions closures retractions")
	for _, n := range names {
		s := sums[n]
		fmt.Fprintf(&b, "\n%s: %d %d %d", n, s.Versions, s.Closures, s.Retractions)
	}
	return b.String()
}
