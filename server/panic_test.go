package server

import (
	"strings"
	"testing"

	"tdb"
)

// The "test panic" verb inserts a row inside a transaction and panics
// before the transaction returns.
func init() {
	verbs["test panic"] = verb{"panic inside a transaction (tests only)", func(db *tdb.DB) Response {
		err := db.Update(func(tx *tdb.Tx) error {
			h, err := tx.Rel("p")
			if err != nil {
				return err
			}
			if err := h.Insert(tdb.NewTuple(tdb.String("lost"))); err != nil {
				return err
			}
			panic("test panic")
		})
		return Response{Error: err.Error()}
	}}
}

// A panicking request is answered with an internal error and its
// connection closed; the transaction it interrupted rolls back, the panic
// is counted and logged once with its stack, and other connections are
// still served.
func TestPanickingRequestIsContained(t *testing.T) {
	addr, logged := startLoggedServer(t, 0)
	before := mPanicsTotal.Value()

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if resp, err := c.Exec(`create static relation p (name = string) key (name)`); err != nil || resp.Error != "" {
		t.Fatalf("create: %v %+v", err, resp)
	}
	resp, err := c.Command("test panic")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Code != CodeInternal || resp.Error != "internal error" {
		t.Fatalf("panicking request answered %+v, want code %q", resp, CodeInternal)
	}
	if _, err := c.Exec(`range of x is p retrieve (x.name)`); err == nil {
		t.Fatal("connection still served after a panic, want it closed")
	}

	c2, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	resp, err = c2.Exec(`range of x is p retrieve (x.name)`)
	if err != nil || resp.Error != "" {
		t.Fatalf("second connection: %v %+v", err, resp)
	}
	if rows := resp.Outcomes[len(resp.Outcomes)-1].Rows; rows != 0 {
		t.Errorf("relation holds %d rows after the panicking transaction, want 0", rows)
	}
	if got := mPanicsTotal.Value() - before; got != 1 {
		t.Errorf("tdb_server_panics_total rose by %v, want 1", got)
	}
	if log := logged(); strings.Count(log, "panic serving") != 1 || !strings.Contains(log, "runtime/debug.Stack") {
		t.Errorf("log does not carry the panic and its stack once:\n%s", log)
	}
}
