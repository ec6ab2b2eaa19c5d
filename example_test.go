package tdb_test

import (
	"fmt"
	"log"

	"tdb"
	"tdb/temporal"
	"tdb/tquel"
)

// A bitemporal relation distinguishes what was true (valid time) from what
// the database believed (transaction time): the paper's retroactive
// promotion, in miniature.
func Example() {
	db, err := tdb.Open("", tdb.Options{Clock: temporal.NewLogicalClock(temporal.Date(1982, 12, 1))})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	sch, _ := tdb.NewSchema(tdb.Attr("name", tdb.StringKind), tdb.Attr("rank", tdb.StringKind))
	sch, _ = sch.WithKey("name")
	_, _ = db.CreateRelation("faculty", tdb.Temporal, sch)

	// Recorded 12/01/82: Merrie is an associate professor since 1977.
	_ = db.UpdateAt(temporal.Date(1982, 12, 1), func(tx *tdb.Tx) error {
		f, _ := tx.Rel("faculty")
		return f.Assert(tdb.NewTuple(tdb.String("Merrie"), tdb.String("associate")),
			temporal.Date(1977, 9, 1), temporal.Forever)
	})
	// Recorded 12/15/82: she was actually promoted on 12/01/82.
	_ = db.UpdateAt(temporal.Date(1982, 12, 15), func(tx *tdb.Tx) error {
		f, _ := tx.Rel("faculty")
		return f.Assert(tdb.NewTuple(tdb.String("Merrie"), tdb.String("full")),
			temporal.Date(1982, 12, 1), temporal.Forever)
	})

	// Reality on 12/10/82 (current belief) vs the database's belief then.
	ses := tquel.NewSession(db)
	now, _ := ses.Query(`range of f is faculty
		retrieve (f.rank) when f overlap "12/10/82"`)
	then, _ := ses.Query(`retrieve (f.rank) when f overlap "12/10/82" as of "12/10/82"`)
	fmt.Println("valid at 12/10/82, known today: ", now.Rows[0].Data[0])
	fmt.Println("valid at 12/10/82, known then:  ", then.Rows[0].Data[0])
	// Output:
	// valid at 12/10/82, known today:  full
	// valid at 12/10/82, known then:   associate
}

// TQuel runs the paper's queries verbatim.
func Example_tquel() {
	db, err := tdb.Open("", tdb.Options{Clock: temporal.NewLogicalClock(temporal.Date(1985, 1, 1))})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	ses := tquel.NewSession(db)
	_, err = ses.Exec(`
		create static relation faculty (name = string, rank = string) key (name)
		range of f is faculty
		append to faculty (name = "Merrie", rank = "full")
		append to faculty (name = "Tom", rank = "associate")
	`)
	if err != nil {
		log.Fatal(err)
	}
	res, err := ses.Query(`retrieve (f.rank) where f.name = "Merrie"`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(res)
	// Output:
	// +------+
	// | rank |
	// +------+
	// | full |
	// +------+
}

// Series answers the paper's trend-analysis question a static database
// cannot: head count per calendar bucket.
func ExampleRelation_Series() {
	db, _ := tdb.Open("", tdb.Options{Clock: temporal.NewLogicalClock(0)})
	defer db.Close()
	sch, _ := tdb.NewSchema(tdb.Attr("name", tdb.StringKind), tdb.Attr("rank", tdb.StringKind))
	sch, _ = sch.WithKey("name")
	faculty, _ := db.CreateRelation("faculty", tdb.Historical, sch)

	_ = faculty.Assert(tdb.NewTuple(tdb.String("Merrie"), tdb.String("full")),
		temporal.Date(1977, 9, 1), temporal.Forever)
	_ = faculty.Assert(tdb.NewTuple(tdb.String("Tom"), tdb.String("associate")),
		temporal.Date(1982, 12, 5), temporal.Forever)

	series, _ := faculty.Series(temporal.Date(1981, 1, 1), temporal.Date(1984, 1, 1), temporal.Year)
	for _, p := range series {
		fmt.Printf("%v: %d\n", p.Bucket.From, p.Count)
	}
	// Output:
	// 01/01/81: 1
	// 01/01/82: 1
	// 01/01/83: 2
}
