package command

import (
	"strings"
	"testing"

	"tdb"
	"tdb/internal/config"
)

func testDB(t *testing.T) *tdb.DB {
	t.Helper()
	db, err := tdb.Open("", tdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func TestLookupLongestPrefix(t *testing.T) {
	c, args, ok := Lookup("cache clear")
	if !ok || c.Name != "cache clear" || args != "" {
		t.Fatalf("Lookup(cache clear) = %q %q %v", c.Name, args, ok)
	}
	c, args, ok = Lookup("cache")
	if !ok || c.Name != "cache" || args != "" {
		t.Fatalf("Lookup(cache) = %q %q %v", c.Name, args, ok)
	}
	if _, _, ok := Lookup("retrieve (f.rank)"); ok {
		t.Fatal("TQuel source must not look like a command")
	}
}

func TestDispatchCacheAndUnknown(t *testing.T) {
	db := testDB(t)
	res, err := Dispatch(db, "cache")
	if err != nil || res.Cache == nil {
		t.Fatalf("cache: %v %+v", err, res)
	}
	res, err = Dispatch(db, "cache clear")
	if err != nil || res.Cache == nil || res.Text != "cache cleared" {
		t.Fatalf("cache clear: %v %+v", err, res)
	}
	if _, err := Dispatch(db, "bogus"); err == nil || !strings.Contains(err.Error(), "unknown command") {
		t.Fatalf("bogus: %v", err)
	}
	if _, err := Dispatch(db, "cache clear now"); err == nil {
		t.Fatal("extra arguments must be rejected")
	}
}

func TestConfigVerbListsEveryKnob(t *testing.T) {
	t.Setenv("TDB_CACHE_BYTES", "1234")
	res, err := Dispatch(testDB(t), "config")
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range config.Knobs() {
		if !strings.Contains(res.Text, k.Env) {
			t.Errorf("config output missing %s:\n%s", k.Env, res.Text)
		}
	}
	if !strings.Contains(res.Text, "TDB_CACHE_BYTES               1234") {
		t.Errorf("config output missing env override:\n%s", res.Text)
	}
}

func TestStatsVerb(t *testing.T) {
	db := testDB(t)
	sch, err := tdb.NewSchema(tdb.Attr("x", tdb.StringKind))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateRelation("stuff", tdb.Static, sch); err != nil {
		t.Fatal(err)
	}
	res, err := Dispatch(db, "stats")
	if err != nil || !strings.Contains(res.Text, "stuff:") {
		t.Fatalf("stats: %v\n%s", err, res.Text)
	}
}

func TestWireVerbsRejectedLocally(t *testing.T) {
	db := testDB(t)
	for _, v := range []string{"batch", "repl"} {
		if _, err := Dispatch(db, v); err == nil || !strings.Contains(err.Error(), "wire") {
			t.Errorf("%s: %v", v, err)
		}
	}
}

func TestHelpListsAllVerbs(t *testing.T) {
	res, err := Dispatch(testDB(t), "help")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range Names() {
		if !strings.Contains(res.Text, n) {
			t.Errorf("help missing %q:\n%s", n, res.Text)
		}
	}
}
