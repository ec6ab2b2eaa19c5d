// Versioning: engineering release tracking — the paper's other §2
// motivating example ("release dates of engineering versions"). An event
// relation records releases; a user-defined time attribute carries the
// date printed on the release notes, distinct from both the release event
// (valid time) and the moment the record entered the database (transaction
// time) — exactly Figure 9's three-times-on-one-row structure.
package main

import (
	"fmt"
	"log"

	"tdb"
	"tdb/temporal"
	"tdb/tquel"
)

func main() {
	clock := temporal.NewLogicalClock(0)
	db, err := tdb.Open("", tdb.Options{Clock: clock})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	sch, err := tdb.NewSchema(
		tdb.Attr("component", tdb.StringKind),
		tdb.Attr("version", tdb.StringKind),
		tdb.Attr("notes_date", tdb.InstantKind), // user-defined time
	)
	if err != nil {
		log.Fatal(err)
	}
	if sch, err = sch.WithKey("component"); err != nil {
		log.Fatal(err)
	}
	releases, err := db.CreateEventRelation("releases", tdb.Temporal, sch)
	if err != nil {
		log.Fatal(err)
	}

	rec := func(recorded, released, notes, component, version string) {
		err := db.UpdateAt(temporal.MustParse(recorded), func(tx *tdb.Tx) error {
			r, _ := tx.Rel("releases")
			return r.AssertAt(tdb.NewTuple(
				tdb.String(component), tdb.String(version),
				tdb.Instant(temporal.MustParse(notes)),
			), temporal.MustParse(released))
		})
		if err != nil {
			log.Fatal(err)
		}
	}

	// The scheduler released compiler v2.0 on 03/15/84; the release notes
	// are dated 03/01/84; the record was entered 03/20/84.
	rec("03/20/84", "03/15/84", "03/01/84", "compiler", "2.0")
	// A scheduled release that was entered ahead of time (postactive).
	rec("04/01/84", "05/01/84", "04/15/84", "linker", "1.3")
	// An erroneous record, corrected later: v2.1 was entered as released
	// 06/01/84, but actually slipped to 06/10/84.
	rec("05/28/84", "06/01/84", "05/20/84", "compiler", "2.1")
	if err := db.UpdateAt(temporal.MustParse("06/12/84"), func(tx *tdb.Tx) error {
		r, _ := tx.Rel("releases")
		if err := r.RetractAt(tdb.Key(tdb.String("compiler")), temporal.MustParse("06/01/84")); err != nil {
			return err
		}
		return r.AssertAt(tdb.NewTuple(
			tdb.String("compiler"), tdb.String("2.1"),
			tdb.Instant(temporal.MustParse("05/20/84")),
		), temporal.MustParse("06/10/84"))
	}); err != nil {
		log.Fatal(err)
	}

	fmt.Println("current release history (three times per row):")
	fmt.Println("component  version  notes date  released    recorded")
	vs, err := releases.Scan(tdb.ScanSpec{AllVersions: true})
	if err != nil {
		log.Fatal(err)
	}
	for _, v := range vs {
		if !v.Current() {
			continue
		}
		fmt.Printf("%-10s %-8s %-11v %-11v %v\n",
			v.Data[0], v.Data[1], v.Data[2], v.Valid.From, v.Trans.From)
	}

	ses := tquel.NewSession(db)
	show := func(title, q string) {
		res, err := ses.Query(q)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(title)
		fmt.Println(res)
	}

	// What did the schedule look like on 06/05/84, before the slip was
	// recorded?
	show("\nv2.1's release date as believed on 06/05/84 (before the slip was known):", `range of r is releases
		retrieve (r.component, r.version, r.notes_date) where r.version = "2.1" as of "06/05/84"`)
	show("v2.1's release date as known today:",
		`retrieve (r.component, r.version, r.notes_date) where r.version = "2.1"`)
}
