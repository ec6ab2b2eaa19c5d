package main

import (
	"net"
	"strings"
	"testing"

	"tdb"
	"tdb/server"
	"tdb/temporal"
	"tdb/tquel"
)

// A CSV load reads each field as its column's declared kind — a negative
// number, a whole number in a float column, an exponent, a string of
// digits and a bool — and each row's valid period from its columns.
func TestStreamLoad(t *testing.T) {
	db, err := tdb.Open("", tdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	srv := server.New(db, nil)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	defer srv.Close()
	c, err := server.Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ses := tquel.NewSession(db)
	if _, err := ses.Exec(`create temporal relation staff (name = string, code = string, delta = int, score = float, ok = bool) key (name)`); err != nil {
		t.Fatal(err)
	}
	csv := "name,code,delta,score,ok,start,stop\n" +
		"Jane,007,-5,5,true,09/01/70,forever\n" +
		"Tom,042,12,1e5,false,01/01/80,12/31/85\n"
	if n, err := streamLoad(c, strings.NewReader(csv), "staff", "start", "stop", "", 1, 2); err != nil || n != 2 {
		t.Fatalf("loaded %d rows: %v", n, err)
	}

	res, err := ses.Query(`range of s is staff retrieve (s.name, s.code, s.delta, s.score, s.ok)`)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]struct {
		row   string
		valid temporal.Interval
	}{
		"Jane": {"Jane 007 -5 5 true", temporal.Since(temporal.MustParse("09/01/70"))},
		"Tom":  {"Tom 042 12 100000 false", temporal.Interval{From: temporal.MustParse("01/01/80"), To: temporal.MustParse("12/31/85")}},
	}
	if res.Len() != len(want) {
		t.Fatalf("read back:\n%s", res)
	}
	for _, r := range res.Rows {
		var fields []string
		for _, v := range r.Data {
			fields = append(fields, v.String())
		}
		w := want[r.Data[0].Str()]
		if got := strings.Join(fields, " "); got != w.row || r.Valid != w.valid {
			t.Errorf("row %q valid %v, want %q valid %v", got, r.Valid, w.row, w.valid)
		}
	}
	if k := res.Rows[0].Data[3].Kind(); k != tdb.FloatKind {
		t.Errorf("score has kind %v, want float", k)
	}
}
