package tquel

import (
	"strings"
	"testing"
	"time"

	"tdb/temporal"
)

const day = 86400 // chronons (seconds) per day; dates are UTC midnights

// windowDB loads a small sensor history with day-aligned valid intervals:
//
//	s1 v=10 [01/01/80, 01/03/80)
//	s1 v=20 [01/03/80, 01/04/80)
//	s2 v=5  [01/02/80, 01/05/80)
func windowDB(t testing.TB) *Session {
	t.Helper()
	ses := NewSession(newDB(t))
	if _, err := ses.Exec(`
		create temporal relation obs (sensor = string, v = int) key (sensor, v)
		range of r is obs
		append to obs (sensor = "s1", v = 10) valid from "01/01/80" to "01/03/80"
		append to obs (sensor = "s1", v = 20) valid from "01/03/80" to "01/04/80"
		append to obs (sensor = "s2", v = 5)  valid from "01/02/80" to "01/05/80"
	`); err != nil {
		t.Fatal(err)
	}
	return ses
}

func TestWindowTumbling(t *testing.T) {
	ses := windowDB(t)
	res, err := ses.Query(`retrieve (r.sensor, c = count(r.v), s = sum(r.v)) window 86400`)
	if err != nil {
		t.Fatal(err)
	}
	// One row per populated (sensor, day) pair: s1 covers Jan 1-3, s2 Jan 2-4.
	if res.Len() != 6 {
		t.Fatalf("rows:\n%s", res)
	}
	type key struct {
		sensor string
		from   temporal.Chronon
	}
	got := map[key][2]int64{}
	for _, r := range res.Rows {
		if width := int64(r.Valid.To - r.Valid.From); width != day {
			t.Fatalf("window width %d: %v", width, r.Valid)
		}
		got[key{r.Data[0].Str(), r.Valid.From}] = [2]int64{r.Data[1].Int(), r.Data[2].Int()}
	}
	jan := func(d int) temporal.Chronon { return temporal.Date(1980, 1, d) }
	want := map[key][2]int64{
		{"s1", jan(1)}: {1, 10},
		{"s1", jan(2)}: {1, 10},
		{"s1", jan(3)}: {1, 20},
		{"s2", jan(2)}: {1, 5},
		{"s2", jan(3)}: {1, 5},
		{"s2", jan(4)}: {1, 5},
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("window %v @ %v = %v, want %v", k.sensor, k.from, got[k], w)
		}
	}
}

func TestWindowSliding(t *testing.T) {
	ses := windowDB(t)
	res, err := ses.Query(
		`retrieve (c = count(r.v), s = sum(r.v)) window 172800 slide 86400 where r.sensor = "s1"`)
	if err != nil {
		t.Fatal(err)
	}
	// Two-day windows sliding daily; [01/02, 01/04) catches both s1 rows.
	target := temporal.Date(1980, 1, 2)
	found := false
	for _, r := range res.Rows {
		if int64(r.Valid.To-r.Valid.From) != 2*day {
			t.Fatalf("window width: %v", r.Valid)
		}
		if r.Valid.From == target {
			found = true
			if r.Data[0].Int() != 2 || r.Data[1].Int() != 30 {
				t.Errorf("[01/02, 01/04) = %v, want count 2 sum 30", r.Data)
			}
		}
	}
	if !found {
		t.Fatalf("no window starting 01/02/80:\n%s", res)
	}
}

func TestWindowOpenEndpointsClampToExtent(t *testing.T) {
	ses := windowDB(t)
	// An open-ended fact contributes to every materialized window it
	// overlaps, but windows only exist over the finite endpoint extent.
	if _, err := ses.Exec(`append to obs (sensor = "s2", v = 7) valid from "01/01/80" to forever`); err != nil {
		t.Fatal(err)
	}
	res, err := ses.Query(`retrieve (c = count(r.v)) window 86400 where r.sensor = "s2"`)
	if err != nil {
		t.Fatal(err)
	}
	// Finite extent is [01/01/80, 01/05/80): four daily windows, the
	// open-ended row in all four, the [01/02, 01/05) row in three.
	if res.Len() != 4 {
		t.Fatalf("rows:\n%s", res)
	}
	counts := map[temporal.Chronon]int64{}
	for _, r := range res.Rows {
		counts[r.Valid.From] = r.Data[0].Int()
	}
	jan := func(d int) temporal.Chronon { return temporal.Date(1980, 1, d) }
	for d, want := range map[int]int64{1: 1, 2: 2, 3: 2, 4: 2} {
		if counts[jan(d)] != want {
			t.Errorf("day %d count = %d, want %d", d, counts[jan(d)], want)
		}
	}
}

func TestWindowNoFiniteEndpointErrors(t *testing.T) {
	ses := NewSession(newDB(t))
	if _, err := ses.Exec(`
		create temporal relation g (x = string) key (x)
		range of v is g
		append to g (x = "a") valid from beginning to forever
	`); err != nil {
		t.Fatal(err)
	}
	_, err := ses.Query(`retrieve (count(v.x)) window 86400`)
	if err == nil || !strings.Contains(err.Error(), "finite valid endpoint") {
		t.Fatalf("err = %v", err)
	}
}

// A window clause whose (group, window) accumulators would pass
// maxWindowGroups is refused at once, with the clause's position, instead of
// folding millions of windows. The second statement is a fuzz find: at a
// ceiling of 2^20 it answered 888 610 rows in seconds and a gigabyte.
func TestWindowCeilingRefusesStatement(t *testing.T) {
	ses := paperSession(t)
	for _, c := range []struct{ src, pos string }{
		{`retrieve (n = count(f.name)) window 10 slide 5`, "1:30"},
		{`retrieve (f.rank, n = count(f.name), m = max(f.name)) window 316`, "1:55"},
	} {
		start := time.Now()
		_, err := ses.Query(c.src)
		if took := time.Since(start); took > time.Second {
			t.Errorf("%s: refusal took %v, want under a second", c.src, took)
		}
		if err == nil || !strings.Contains(err.Error(), c.pos+": window clause needs more than") {
			t.Errorf("%s: err = %v, want the window ceiling at %s", c.src, err, c.pos)
		}
	}
}

func TestWindowRequiresAggregates(t *testing.T) {
	ses := windowDB(t)
	_, err := ses.Query(`retrieve (r.sensor) window 86400`)
	if err == nil || !strings.Contains(err.Error(), "aggregate targets") {
		t.Fatalf("err = %v", err)
	}
}

func TestCoalesceRetrieve(t *testing.T) {
	ses := NewSession(newDB(t))
	if _, err := ses.Exec(`
		create temporal relation rank (name = string, rank = string) key (name, rank)
		range of k is rank
		append to rank (name = "Tom", rank = "assoc") valid from "01/01/80" to "01/03/80"
		append to rank (name = "Tom", rank = "assoc") valid from "01/03/80" to "01/05/80"
		append to rank (name = "Tom", rank = "full")  valid from "01/05/80" to "01/07/80"
		append to rank (name = "Ann", rank = "assoc") valid from "01/02/80" to "01/04/80"
		append to rank (name = "Ann", rank = "assoc") valid from "01/06/80" to "01/08/80"
	`); err != nil {
		t.Fatal(err)
	}
	res, err := ses.Query(`retrieve (k.name, k.rank) coalesce`)
	if err != nil {
		t.Fatal(err)
	}
	// Tom's adjacent assoc intervals merge; Ann's disjoint ones do not.
	if res.Len() != 4 {
		t.Fatalf("rows:\n%s", res)
	}
	var tomAssoc *temporal.Interval
	for i, r := range res.Rows {
		if r.Data[0].Str() == "Tom" && r.Data[1].Str() == "assoc" {
			if tomAssoc != nil {
				t.Fatalf("Tom/assoc not coalesced:\n%s", res)
			}
			tomAssoc = &res.Rows[i].Valid
		}
	}
	want := temporal.Interval{From: temporal.Date(1980, 1, 1), To: temporal.Date(1980, 1, 5)}
	if tomAssoc == nil || *tomAssoc != want {
		t.Fatalf("Tom/assoc valid = %v, want %v", tomAssoc, want)
	}
}

func TestCoalesceWindowedAggregate(t *testing.T) {
	ses := windowDB(t)
	// s2 holds v=5 across three daily windows: identical per-window results
	// coalesce into one row spanning [01/02/80, 01/05/80).
	res, err := ses.Query(`retrieve (c = count(r.v)) window 86400 where r.sensor = "s2" coalesce`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Fatalf("rows:\n%s", res)
	}
	want := temporal.Interval{From: temporal.Date(1980, 1, 2), To: temporal.Date(1980, 1, 5)}
	if res.Rows[0].Valid != want || res.Rows[0].Data[0].Int() != 1 {
		t.Fatalf("coalesced window row = %v %v", res.Rows[0].Valid, res.Rows[0].Data)
	}
}

func TestCoalesceRejectsWholeRelationAggregates(t *testing.T) {
	ses := windowDB(t)
	_, err := ses.Query(`retrieve (count(r.v)) coalesce`)
	if err == nil || !strings.Contains(err.Error(), "coalesce applies to") {
		t.Fatalf("err = %v", err)
	}
}

func TestWindowParseErrors(t *testing.T) {
	ses := windowDB(t)
	for _, src := range []string{
		`retrieve (count(r.v)) window 0`,
		`retrieve (count(r.v)) window 10 slide 0`,
		`retrieve (count(r.v)) window 10 window 10`,
		`retrieve (r.sensor) coalesce coalesce`,
		`retrieve (count(r.v)) window`,
	} {
		if _, err := ses.Query(src); err == nil {
			t.Errorf("no error for %q", src)
		}
	}
}

// The window plan's full rendering is pinned, including the "est windows"
// figure the planner derives from the relation's valid-time extent — the one
// place explain output reads that statistic.
func TestWindowExplain(t *testing.T) {
	ses := windowDB(t)
	outs, err := ses.Exec(`explain retrieve (r.sensor, count(r.v)) window 86400 coalesce`)
	if err != nil {
		t.Fatal(err)
	}
	const want = `plan (statistics on)
  1. r (obs): 3 candidate(s), scan, est out 3
  est work 14, est rows 3
  window: size 86400, slide 86400, est windows 5
  coalesce: merge value-equivalent valid intervals`
	if msg := outs[0].Msg; msg != want {
		t.Errorf("window explain drifted:\n--- got ---\n%s\n--- want ---\n%s", msg, want)
	}
}
