// Quickstart: create a bitemporal relation, record some history, correct
// it retroactively, and see how "as of" recovers what the database used to
// believe — the paper's central capability in thirty lines of API.
package main

import (
	"fmt"
	"log"

	"tdb"
	"tdb/temporal"
	"tdb/tquel"
)

func main() {
	// An in-memory database; pass a path to persist via a write-ahead log.
	db, err := tdb.Open("", tdb.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	// A temporal (bitemporal) relation: it records both when facts were
	// true (valid time) and when the database learned them (transaction
	// time).
	sch, err := tdb.NewSchema(
		tdb.Attr("name", tdb.StringKind),
		tdb.Attr("rank", tdb.StringKind),
	)
	if err != nil {
		log.Fatal(err)
	}
	if sch, err = sch.WithKey("name"); err != nil {
		log.Fatal(err)
	}
	faculty, err := db.CreateRelation("faculty", tdb.Temporal, sch)
	if err != nil {
		log.Fatal(err)
	}

	jan := temporal.Date(2025, 1, 1)
	jun := temporal.Date(2025, 6, 1)

	// Merrie has been an associate professor since January.
	if err := faculty.Assert(
		tdb.NewTuple(tdb.String("Merrie"), tdb.String("associate")),
		jan, temporal.Forever,
	); err != nil {
		log.Fatal(err)
	}
	beforePromotion := db.Now()

	// Later we learn she was actually promoted in June — a retroactive
	// correction: the old belief is superseded, not destroyed.
	if err := faculty.Assert(
		tdb.NewTuple(tdb.String("Merrie"), tdb.String("full")),
		jun, temporal.Forever,
	); err != nil {
		log.Fatal(err)
	}

	// Read back through TQuel, the paper's query language. Chronon literals
	// carry a four-digit year: a two-digit one means 19xx.
	ses := tquel.NewSession(db)
	show := func(title, q string) {
		res, err := ses.Query(q)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(title)
		fmt.Println(res)
	}

	// Current belief: what was her rank in March?
	show("rank valid in March (current belief):", `range of f is faculty
		retrieve (f.name, f.rank) when f overlap "2025-03-01"`)

	// Rollback: what did the database believe before the correction?
	show("the database's belief before the promotion was recorded:", fmt.Sprintf(
		"retrieve (f.name, f.rank) as of %q", beforePromotion.Time().Format("2006-01-02 15:04:05")))

	// Every version ever stored remains accountable.
	vs, err := faculty.Scan(tdb.ScanSpec{AllVersions: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("all stored versions (nothing is ever lost):")
	for _, v := range vs {
		fmt.Printf("  %v\n", v)
	}
}
