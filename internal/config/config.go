// Package config is the single registry of the TDB_* environment knobs.
//
// Before this package existed every subsystem parsed its own environment
// variables with slightly different spellings and tolerances (segment's
// boolean accepted "1"/"true"/"yes", the planner's anything but "0"/"false";
// some integers accepted zero, others only positives). Each knob is now
// declared exactly once, with a kind, a default, and one line of
// documentation; subsystems read through the typed accessors and the
// operational surfaces (the `config` session command, /statz's "config"
// section, docs/config.md) render the same table.
//
// Precedence everywhere stays: explicit option/setter → environment knob →
// registered default. The accessors only implement the middle step; they
// never cache, so tests may flip knobs with t.Setenv at any point.
package config

import (
	"os"
	"sort"
	"strconv"
)

// Knob is one registered environment knob.
type Knob struct {
	Env     string // variable name, e.g. "TDB_CACHE_BYTES"
	Kind    string // "int", "int64"
	Default string // rendered default ("" when the subsystem default applies)
	Doc     string // one-line description for the knob table
}

var registry []Knob

// register records a knob and returns its name, so declarations double as
// the canonical Env* constants.
func register(k Knob) string {
	registry = append(registry, k)
	return k.Env
}

// The knobs, one declaration each. Subsystems import these names instead of
// repeating the string, so a grep for the constant finds every consumer.
var (
	// Session (tquel) knob: the initial value for new sessions; the Session
	// setter (SetParallelism) overrides.
	EnvParallel = register(Knob{Env: "TDB_PARALLEL", Kind: "int", Default: "0 (GOMAXPROCS)",
		Doc: "Worker budget for parallel retrieve execution; <=1 forces the serial path."})

	// Database (Options) knobs: env is the fallback when the Options field
	// is zero.
	EnvCacheBytes = register(Knob{Env: "TDB_CACHE_BYTES", Kind: "int64", Default: "67108864",
		Doc: "Query result cache budget in bytes; 0 or negative disables the cache."})
	EnvLoadChunk = register(Knob{Env: "TDB_LOAD_CHUNK", Kind: "int", Default: "8192",
		Doc: "Rows per bulk-load transaction (Relation.Load chunk size)."})
	EnvGroupCommitBatch = register(Knob{Env: "TDB_GROUP_COMMIT_BATCH", Kind: "int", Default: "64",
		Doc: "Max transaction records one group-commit flush coalesces onto a WAL write."})

	// Storage knob, read at relation creation.
	EnvSegmentRows = register(Knob{Env: "TDB_SEGMENT_ROWS", Kind: "int", Default: "8192",
		Doc: "Rows per sealed columnar segment."})
)

// Knobs returns the registered knobs sorted by name.
func Knobs() []Knob {
	out := append([]Knob(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].Env < out[j].Env })
	return out
}

// Snapshot renders every knob's effective value — the environment setting
// when present, the registered default otherwise — for the `config` command
// and /statz's "config" section.
func Snapshot() map[string]string {
	out := make(map[string]string, len(registry))
	for _, k := range registry {
		if v, ok := os.LookupEnv(k.Env); ok && v != "" {
			out[k.Env] = v
		} else {
			out[k.Env] = k.Default + " (default)"
		}
	}
	return out
}

// Int reads an integer knob, returning def when unset or malformed. Any
// parseable value is accepted, including zero and negatives.
func Int(env string, def int) int {
	if v := os.Getenv(env); v != "" {
		if n, err := strconv.Atoi(v); err == nil {
			return n
		}
	}
	return def
}

// PosInt reads an integer knob that must be strictly positive, returning
// def otherwise.
func PosInt(env string, def int) int {
	if v := os.Getenv(env); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return def
}

// Int64 reads a 64-bit integer knob, returning def when unset or
// malformed. Any parseable value is accepted, including zero and negatives
// (TDB_CACHE_BYTES=0 is the cache-off ablation).
func Int64(env string, def int64) int64 {
	if v := os.Getenv(env); v != "" {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil {
			return n
		}
	}
	return def
}
