package segment

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"testing"

	"tdb/internal/tuple"
	"tdb/internal/value"
	"tdb/temporal"
)

// abortHistory drives l through a fixed run of txns transactions and returns
// the committed rows in commit order. Each appends one to three of randRow's
// rows at its commit chronon, each append may supersede a current row at
// that chronon, and one transaction in three aborts. One row in four carries
// a name no committed row has had and one in eight one of five new depts, so
// aborts often pop dictionary entries, and a popped name can come back.
func abortHistory(l *Log, txns int) []Row {
	rng := rand.New(rand.NewSource(87))
	var ref []Row
	commit := temporal.Chronon(100)
	for i := 0; i < txns; i++ {
		commit += temporal.Chronon(rng.Intn(2))
		mark := len(ref)
		var closed []int
		for n := 1 + rng.Intn(3); n > 0; n-- {
			r := randRow(rng, commit)
			if rng.Intn(4) == 0 {
				r.Data[0] = value.NewString(fmt.Sprintf("new%d", len(ref)))
			}
			if rng.Intn(8) == 0 {
				r.Data[1] = value.NewString(fmt.Sprintf("dept%d", len(ref)%5))
			}
			l.Append(r)
			ref = append(ref, r)
			if pos := rng.Intn(len(ref)); rng.Intn(2) == 0 && ref[pos].Trans.To == temporal.Forever {
				l.CloseTrans(pos, commit)
				ref[pos].Trans.To = commit
				closed = append(closed, pos)
			}
		}
		if rng.Intn(3) == 0 {
			for _, pos := range closed {
				l.CloseTrans(pos, temporal.Forever)
				ref[pos].Trans.To = temporal.Forever
			}
			l.TruncateTail(mark)
			ref = ref[:mark]
			continue
		}
		l.Seal()
	}
	return ref
}

// abortBlocks is abortHistory's first 300 transactions on a 16-row
// threshold, sealed to the end and encoded.
func abortBlocks(t *testing.T) []byte {
	sealEvery(t, 16)
	l := NewLog(testSchema())
	abortHistory(l, 300)
	l.SealNow()
	var blocks []byte
	for _, g := range l.Segments() {
		blocks = AppendBlock(blocks, g)
	}
	return blocks
}

// TestAbortedHistoryBlocks: appending into columns, popping them and their
// dictionaries on abort, and freezing them change no byte of a block.
// testdata/abort_blocks.bin is abortBlocks as the log wrote it when it kept
// unsealed versions as rows and re-encoded them at seal (commit 5f274f8).
func TestAbortedHistoryBlocks(t *testing.T) {
	got := abortBlocks(t)
	want, err := os.ReadFile("testdata/abort_blocks.bin")
	if err != nil || !bytes.Equal(got, want) {
		t.Errorf("the blocks encode to %d bytes, which differ from the %d written by the row tail (read: %v)", len(got), len(want), err)
	}
}

// TestAbortPopsDictionary: an abort pops the dictionary entries first seen in
// the rows it pops. A string seen only in an aborted transaction selects
// nothing afterwards, the next new string takes its code, and the segment
// frozen from what is left encodes as the committed rows alone do.
func TestAbortPopsDictionary(t *testing.T) {
	sch := testSchema()
	row := func(name, dept string, at temporal.Chronon) Row {
		data := tuple.Tuple{value.NewString(name), value.NewString(dept), value.NewInt(1),
			value.NewFloat(0.5), value.NewBool(true), value.NewInstant(at)}
		return Row{Data: data, Valid: temporal.Since(at), Trans: temporal.Since(at)}
	}
	eq := func(attr int, s string) Pred {
		f, ok := NewCmpFilter(sch, attr, OpEq, value.NewString(s))
		if !ok {
			t.Fatalf("NewCmpFilter(%d, %q) rejected a well-kinded filter", attr, s)
		}
		return Pred{Filters: []*Filter{f}}
	}
	l, committed := NewLog(sch), NewLog(sch)
	both := func(r Row) {
		l.Append(r)
		committed.Append(r)
	}
	both(row("Jane", "CS", 100))
	l.Append(row("Ghost", "Rare", 101)) // a transaction whose strings are new aborts
	l.Append(row("Jane", "Rare", 101))
	l.TruncateTail(1)
	samePositions(t, "name=Ghost after the abort", scanWith(l, eq(0, "Ghost")), nil)
	samePositions(t, "dept=Rare after the abort", scanWith(l, eq(1, "Rare")), nil)
	both(row("Tom", "EE", 102))
	samePositions(t, "name=Tom", scanWith(l, eq(0, "Tom")), []int{1})
	samePositions(t, "dept=EE", scanWith(l, eq(1, "EE")), []int{1})
	samePositions(t, "name=Ghost once Tom has its code", scanWith(l, eq(0, "Ghost")), nil)
	samePositions(t, "dept=Rare once EE has its code", scanWith(l, eq(1, "Rare")), nil)
	l.SealNow()
	committed.SealNow()
	if got, want := AppendBlock(nil, l.Segments()[0]), AppendBlock(nil, committed.Segments()[0]); !bytes.Equal(got, want) {
		t.Error("the segment frozen after the abort encodes otherwise than the committed rows alone")
	}
}

// TestScanMatchesRowWise is the differential for the one scan loop: after
// abortHistory on thresholds 3 and 16 and the default, Scan returns, for
// every predCases predicate and for an equality on each name the history
// drew, exactly the positions whose row as Log.Row builds it Pred.Match
// holds for, in commit order — sealed rows and the open segment's alike,
// whatever the aborts popped from its dictionaries.
func TestScanMatchesRowWise(t *testing.T) {
	sch := testSchema()
	for _, c := range []struct {
		rows int
		txns int
	}{{3, 150}, {16, 151}, {DefaultSealRows, 120}} {
		sealEvery(t, c.rows)
		l := NewLog(sch)
		ref := abortHistory(l, c.txns)
		if l.Len() != len(ref) {
			t.Fatalf("SealRows = %d: the log holds %d rows, %d were committed", c.rows, l.Len(), len(ref))
		}
		rows := make([]Row, l.Len())
		for pos := range rows {
			if rows[pos] = l.Row(pos); !rowsEqual(rows[pos], ref[pos]) {
				t.Fatalf("SealRows = %d: row %d is %+v, %+v was committed", c.rows, pos, rows[pos], ref[pos])
			}
		}
		cases := predCases(t, rand.New(rand.NewSource(88)), ref)
		now := temporal.Since(temporal.Forever - 1)
		for k := 0; k <= len(ref); k++ {
			f, ok := NewCmpFilter(sch, 0, OpEq, value.NewString(fmt.Sprintf("new%d", k)))
			if !ok {
				t.Fatal("NewCmpFilter rejected a name")
			}
			name := fmt.Sprintf(" name=new%d", k)
			cases = append(cases, predCase{name: name, pred: Pred{Filters: []*Filter{f}}},
				predCase{name: "current" + name, pred: Pred{Trans: &now, Filters: []*Filter{f}}})
		}
		for _, pc := range cases {
			want := where(rows, func(r Row) bool { return pc.pred.Match(&r) })
			samePositions(t, fmt.Sprintf("SealRows = %d Scan(%s)", c.rows, pc.name), scanWith(l, pc.pred), want)
		}
	}
}
