package main

import (
	"strings"
	"testing"

	"tdb"
)

func TestStripSemicolons(t *testing.T) {
	cases := map[string]string{
		`retrieve (f.x);`:              `retrieve (f.x) `,
		`a; b; c`:                      `a  b  c`,
		`where f.name = "a;b";`:        `where f.name = "a;b" `,
		`where f.name = "a\";b"; done`: `where f.name = "a\";b"  done`,
		``:                             ``,
		`no terminators at all`:        `no terminators at all`,
		"multi\nline;\nstatement":      "multi\nline \nstatement",
	}
	for in, want := range cases {
		if got := stripSemicolons(in); got != want {
			t.Errorf("stripSemicolons(%q) = %q, want %q", in, got, want)
		}
	}
}

// A script runs a statement group at a time against the in-process backend,
// admin verbs included, stops at the first failing group, and runs whatever
// the input's end left unterminated.
func TestReplLocalScript(t *testing.T) {
	db, err := tdb.Open("", tdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	exec := local(db)
	versions := func() int { return db.Stats().Versions }

	ok := repl(strings.NewReader(`create static relation r (name = string) key (name);
append to r (name = "a;b");
stats;
append to nowhere (name = "x");
append to r (name = "never");`), exec, false)
	if ok || versions() != 1 {
		t.Fatalf("failing script: ok = %v with %d versions, want a stop after the first append", ok, versions())
	}
	if ok := repl(strings.NewReader(`append to r (name = "c")`), exec, false); !ok || versions() != 2 {
		t.Fatalf("unterminated input: ok = %v with %d versions, want it run", ok, versions())
	}
}
