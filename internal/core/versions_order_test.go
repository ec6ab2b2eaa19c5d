package core

import (
	"testing"

	"tdb/temporal"
)

// versionStrings renders everything Versions yields, in the order it yields it.
func versionStrings(s *Store) []string {
	var out []string
	s.Versions(func(v Version) bool { out = append(out, v.String()); return true })
	return out
}

func mustOK(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// The two stores without transaction time keep their rows in a version log,
// as the rollback kinds do, and Versions yields the current ones in commit
// order, so the sequence below — order included — is a function of the
// exact update history: when each surviving row, remainder and coalesced
// period was appended, with an aborted transaction's rows gone. It is what a
// checkpoint writes row by row, so the snapshot's bytes depend on it too.
func TestDestructiveVersionsOrder(t *testing.T) {
	t.Run("static", func(t *testing.T) {
		s := New(Static, facultySchema(t), false)
		for _, n := range []string{"a", "b", "c", "d"} {
			mustOK(t, s.Insert(fac(n, "assistant"), noPast))
		}
		mustOK(t, s.Delete(nameKey("b"), noPast))
		mustOK(t, s.Insert(fac("e", "assistant"), noPast))
		mustOK(t, s.Replace(nameKey("c"), fac("c", "associate"), noPast)) // same key
		mustOK(t, s.Replace(nameKey("d"), fac("f", "full"), noPast))      // key changes
		mustOK(t, s.Delete(nameKey("a"), noPast))
		s.BeginTxn()
		mustOK(t, s.Insert(fac("g", "full"), noPast))
		mustOK(t, s.Insert(fac("h", "full"), noPast))
		mustOK(t, s.Delete(nameKey("e"), noPast))
		mustOK(t, s.Replace(nameKey("f"), fac("i", "associate"), noPast)) // key changes
		mustOK(t, s.Replace(nameKey("c"), fac("c", "full"), noPast))
		s.AbortTxn()
		mustOK(t, s.Insert(fac("j", "assistant"), noPast))
		mustOK(t, s.Insert(fac("k", "assistant"), noPast))
		mustOK(t, s.Replace(nameKey("e"), fac("l", "full"), noPast)) // key changes
		want := []string{
			"(c, associate) valid=[-∞, ∞) trans=[-∞, ∞)",
			"(f, full) valid=[-∞, ∞) trans=[-∞, ∞)",
			"(j, assistant) valid=[-∞, ∞) trans=[-∞, ∞)",
			"(k, assistant) valid=[-∞, ∞) trans=[-∞, ∞)",
			"(l, full) valid=[-∞, ∞) trans=[-∞, ∞)",
		}
		if got := versionStrings(s); !equalStrings(got, want) {
			t.Fatalf("Versions:\n got %q\nwant %q", got, want)
		}
	})
	t.Run("historical", func(t *testing.T) {
		s := New(Historical, facultySchema(t), false)
		iv := func(from, to temporal.Chronon) temporal.Interval { return temporal.Interval{From: from, To: to} }
		mustOK(t, s.Assert(fac("a", "assistant"), iv(10, 50), noPast))
		mustOK(t, s.Assert(fac("b", "assistant"), iv(10, 40), noPast))
		mustOK(t, s.Assert(fac("a", "associate"), iv(50, 80), noPast))
		mustOK(t, s.Assert(fac("a", "assistant"), iv(30, 60), noPast)) // carves a hole, coalesces
		mustOK(t, s.Retract(nameKey("b"), iv(20, 25), noPast))         // splits b
		mustOK(t, s.Assert(fac("c", "full"), temporal.Since(5), noPast))
		mustOK(t, s.Assert(fac("b", "assistant"), iv(20, 25), noPast)) // coalesces b back to one
		s.BeginTxn()
		mustOK(t, s.Assert(fac("a", "full"), iv(0, 100), noPast))
		mustOK(t, s.Retract(nameKey("c"), iv(50, 70), noPast))
		mustOK(t, s.Assert(fac("d", "full"), iv(1, 2), noPast))
		s.AbortTxn()
		mustOK(t, s.Retract(nameKey("c"), iv(0, 30), noPast))
		mustOK(t, s.Assert(fac("d", "assistant"), iv(60, 90), noPast))
		mustOK(t, s.Retract(nameKey("a"), iv(70, 75), noPast))
		want := []string{
			"(a, assistant) valid=[01/01/70 00:00:10, 01/01/70 00:01:00) trans=[-∞, ∞)",
			"(b, assistant) valid=[01/01/70 00:00:10, 01/01/70 00:00:40) trans=[-∞, ∞)",
			"(c, full) valid=[01/01/70 00:00:30, ∞) trans=[-∞, ∞)",
			"(d, assistant) valid=[01/01/70 00:01:00, 01/01/70 00:01:30) trans=[-∞, ∞)",
			"(a, associate) valid=[01/01/70 00:01:00, 01/01/70 00:01:10) trans=[-∞, ∞)",
			"(a, associate) valid=[01/01/70 00:01:15, 01/01/70 00:01:20) trans=[-∞, ∞)",
		}
		if got := versionStrings(s); !equalStrings(got, want) {
			t.Fatalf("Versions:\n got %q\nwant %q", got, want)
		}
	})
	t.Run("historical event", func(t *testing.T) {
		s := New(Historical, facultySchema(t), true)
		mustOK(t, s.AssertAt(fac("a", "associate"), 10, noPast))
		mustOK(t, s.AssertAt(fac("b", "associate"), 10, noPast))
		mustOK(t, s.AssertAt(fac("a", "full"), 20, noPast))
		mustOK(t, s.AssertAt(fac("a", "assistant"), 10, noPast)) // corrects a's event at 10
		mustOK(t, s.Retract(nameKey("b"), temporal.At(10), noPast))
		mustOK(t, s.AssertAt(fac("c", "full"), 30, noPast))
		want := []string{
			"(a, full) valid=[01/01/70 00:00:20, 01/01/70 00:00:21) trans=[-∞, ∞)",
			"(a, assistant) valid=[01/01/70 00:00:10, 01/01/70 00:00:11) trans=[-∞, ∞)",
			"(c, full) valid=[01/01/70 00:00:30, 01/01/70 00:00:31) trans=[-∞, ∞)",
		}
		if got := versionStrings(s); !equalStrings(got, want) {
			t.Fatalf("Versions:\n got %q\nwant %q", got, want)
		}
	})
}
