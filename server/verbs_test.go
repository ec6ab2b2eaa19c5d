package server

import (
	"strings"
	"testing"

	"tdb"
)

// The admin verbs answered on a database opened in this process, as tdbcli
// runs them without a server.
func TestVerbs(t *testing.T) {
	open := func(t *testing.T) *tdb.DB {
		t.Helper()
		db, err := tdb.Open("", tdb.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		return db
	}
	answer := func(t *testing.T, db *tdb.DB, line string) Response {
		t.Helper()
		run := Verb(line)
		if run == nil {
			t.Fatalf("%q is not a verb", line)
		}
		return run(db)
	}

	t.Run("LookupLongestPrefix", func(t *testing.T) {
		db := open(t)
		if resp := answer(t, db, "cache  clear"); resp.Error != "" || len(resp.Outcomes) != 1 {
			t.Fatalf("cache clear answered as %+v", resp)
		}
		if resp := answer(t, db, "cache"); resp.Error != "" || len(resp.Outcomes) != 0 {
			t.Fatalf("cache answered as %+v", resp)
		}
		for _, src := range []string{"retrieve (f.rank)", "bogus", "", "  "} {
			if Verb(src) != nil {
				t.Errorf("%q taken for a verb", src)
			}
		}
	})

	t.Run("DispatchCacheAndUnknown", func(t *testing.T) {
		s := &Server{db: open(t)}
		if resp := s.handleCmd("cache"); resp.Error != "" || resp.Cache == nil {
			t.Fatalf("cache: %+v", resp)
		}
		resp := s.handleCmd("cache clear")
		if resp.Error != "" || resp.Cache == nil || resp.Outcomes[0].Msg != "cache cleared" {
			t.Fatalf("cache clear: %+v", resp)
		}
		if resp := s.handleCmd("bogus"); !strings.HasPrefix(resp.Error, `unknown command "bogus" (try "batch", "cache", `) {
			t.Fatalf("bogus: %+v", resp)
		}
		if resp := s.handleCmd("cache clear now"); resp.Error != `command "cache clear" takes no arguments (got "now")` {
			t.Fatalf("cache clear now: %+v", resp)
		}
	})

	t.Run("ConfigVerbListsEveryKnob", func(t *testing.T) {
		t.Setenv(tdb.EnvCacheBytes, "1234")
		resp := answer(t, open(t), "config")
		if len(resp.Outcomes) != 1 {
			t.Fatalf("config: %+v", resp)
		}
		for k := range tdb.Config() {
			if !strings.Contains(resp.Outcomes[0].Msg, k) {
				t.Errorf("config output missing %s:\n%s", k, resp.Outcomes[0].Msg)
			}
		}
		if !strings.Contains(resp.Outcomes[0].Msg, "TDB_CACHE_BYTES               1234") {
			t.Errorf("config output missing env override:\n%s", resp.Outcomes[0].Msg)
		}
	})

	t.Run("StatsVerb", func(t *testing.T) {
		db := open(t)
		sch, err := tdb.NewSchema(tdb.Attr("x", tdb.StringKind))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := db.CreateRelation("stuff", tdb.Static, sch); err != nil {
			t.Fatal(err)
		}
		if resp := answer(t, db, "stats"); resp.Error != "" || !strings.Contains(resp.Outcomes[0].Msg, "stuff: 0 0 0") {
			t.Fatalf("stats: %+v", resp)
		}
	})

	t.Run("WireVerbsRejectedLocally", func(t *testing.T) {
		db := open(t)
		for _, v := range []string{"batch", "repl"} {
			if resp := answer(t, db, v); !strings.Contains(resp.Error, "wire") {
				t.Errorf("%s: %+v", v, resp)
			}
		}
	})

	t.Run("HelpListsAllVerbs", func(t *testing.T) {
		resp := answer(t, open(t), "help")
		for n, v := range verbs {
			if !strings.Contains(resp.Outcomes[0].Msg, n+" ") || !strings.Contains(resp.Outcomes[0].Msg, v.help) {
				t.Errorf("help missing %q:\n%s", n, resp.Outcomes[0].Msg)
			}
		}
	})
}
