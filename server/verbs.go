package server

import (
	"fmt"
	"sort"
	"strings"

	"tdb"
)

// verb is one admin verb: a command Request.Cmd carries that is not TQuel.
// A nil run marks the verbs the request loop serves itself ("batch",
// "repl"): they need the raw request or the connection.
type verb struct {
	help string
	run  func(db *tdb.DB) Response
}

// verbs maps each admin verb's name, which may be two words, to the verb.
// "help" joins in init, since it lists this map.
var verbs = map[string]verb{
	"cache": {"report query-cache statistics", func(db *tdb.DB) Response {
		// A disabled cache still answers, zeroed with max_bytes 0, so
		// operators can tell "off" from "cold".
		st := db.QueryCache().Stats()
		return Response{Cache: &st}
	}},
	"cache clear": {"drop every cached query result", func(db *tdb.DB) Response {
		qc := db.QueryCache()
		qc.Clear()
		st := qc.Stats()
		resp := message("cache", "cache cleared")
		resp.Cache = &st
		return resp
	}},
	"config": {"show the configuration knobs and their effective values", func(*tdb.DB) Response {
		knobs := tdb.Config()
		var b strings.Builder
		b.WriteString("knob                          value")
		for _, k := range sortedKeys(knobs) {
			fmt.Fprintf(&b, "\n%-29s %s", k, knobs[k])
		}
		return message("config", b.String())
	}},
	"stats": {"show per-relation temporal statistics", func(db *tdb.DB) Response {
		sums := db.TemporalStats()
		if len(sums) == 0 {
			return message("stats", "no relations")
		}
		var b strings.Builder
		b.WriteString("relation: versions closures retractions")
		for _, n := range sortedKeys(sums) {
			s := sums[n]
			fmt.Fprintf(&b, "\n%s: %d %d %d", n, s.Versions, s.Closures, s.Retractions)
		}
		return message("stats", b.String())
	}},
	"batch": {"run a multi-statement batch in one round trip (protocol 1.2+)", nil},
	"repl":  {"switch the connection into a replication feed (protocol 1.1+)", nil},
}

func init() {
	verbs["help"] = verb{"list the available commands", func(*tdb.DB) Response {
		var b strings.Builder
		b.WriteString("commands:")
		for _, n := range sortedKeys(verbs) {
			fmt.Fprintf(&b, "\n  %-12s %s", n, verbs[n].help)
		}
		return message("help", b.String())
	}}
}

// Verb returns what answers the admin verb line begins with: the Response
// a Request.Cmd gets, which tdbcli also prints for a database it opened
// itself. It returns nil when line begins with no verb, which makes line
// TQuel. The longest verb wins ("cache clear" over "cache"); a verb given
// arguments, or one only the request loop serves, answers an error.
func Verb(line string) func(db *tdb.DB) Response {
	fields := strings.Fields(line)
	for n := len(fields); n > 0; n-- {
		name := strings.Join(fields[:n], " ")
		v, ok := verbs[name]
		switch {
		case !ok:
			continue
		case v.run == nil:
			return refuse(fmt.Sprintf("command %q is only available over the server wire protocol", name))
		case n < len(fields):
			return refuse(fmt.Sprintf("command %q takes no arguments (got %q)", name, strings.Join(fields[n:], " ")))
		}
		return v.run
	}
	return nil
}

// handleCmd serves Request.Cmd.
func (s *Server) handleCmd(cmd string) Response {
	if run := Verb(cmd); run != nil {
		return run(s.db)
	}
	names := sortedKeys(verbs)
	for i, n := range names {
		names[i] = fmt.Sprintf("%q", n)
	}
	return Response{Error: fmt.Sprintf("unknown command %q (try %s)", strings.TrimSpace(cmd), strings.Join(names, ", "))}
}

func message(stmt, text string) Response {
	return Response{Outcomes: []Outcome{{Stmt: stmt, Msg: text}}}
}

func refuse(msg string) func(*tdb.DB) Response {
	return func(*tdb.DB) Response { return Response{Error: msg} }
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
