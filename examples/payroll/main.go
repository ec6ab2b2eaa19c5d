// Payroll: the retroactive salary raise from the paper's §3 — the example
// the paper uses to demolish the "application-dependent time" criterion.
//
// A raise effective 8/1/83 is recorded on 12/1/83 (salary updates are
// batched). With a bitemporal relation, the payroll system can compute
// back pay exactly: the difference between what was believed owed at each
// pay date and what is now known to have been owed.
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
		tdb.Attr("employee", tdb.StringKind),
		tdb.Attr("monthly_salary", tdb.IntKind),
	)
	if err != nil {
		log.Fatal(err)
	}
	if sch, err = sch.WithKey("employee"); err != nil {
		log.Fatal(err)
	}
	if _, err := db.CreateRelation("payroll", tdb.Temporal, sch); err != nil {
		log.Fatal(err)
	}

	at := func(date string, fn func(tx *tdb.Tx) error) {
		if err := db.UpdateAt(temporal.MustParse(date), fn); err != nil {
			log.Fatal(err)
		}
	}
	salary := func(amount int64) tdb.Tuple {
		return tdb.NewTuple(tdb.String("Merrie"), tdb.Int(amount))
	}

	// 1/1/83: Merrie earns 3000/month.
	at("01/01/83", func(tx *tdb.Tx) error {
		p, _ := tx.Rel("payroll")
		return p.Assert(salary(3000), temporal.MustParse("01/01/83"), temporal.Forever)
	})
	// 12/1/83: the batched update lands — a raise to 3500, retroactively
	// effective 8/1/83.
	at("12/01/83", func(tx *tdb.Tx) error {
		p, _ := tx.Rel("payroll")
		return p.Assert(salary(3500), temporal.MustParse("08/01/83"), temporal.Forever)
	})

	// Pay was issued monthly according to the database state at pay time.
	ses := tquel.NewSession(db)
	if _, err := ses.Exec("range of p is payroll"); err != nil {
		log.Fatal(err)
	}
	fmt.Println("month      paid (as of pay date)   owed (current belief)   back pay")
	totalBackPay := int64(0)
	months := []string{
		"01/01/83", "02/01/83", "03/01/83", "04/01/83", "05/01/83", "06/01/83",
		"07/01/83", "08/01/83", "09/01/83", "10/01/83", "11/01/83", "12/01/83",
	}
	for _, m := range months {
		paid := amountAt(ses, m, fmt.Sprintf("as of %q", m)) // belief at pay time
		owed := amountAt(ses, m, "")                         // current belief
		diff := owed - paid
		totalBackPay += diff
		fmt.Printf("%s   %5d                   %5d                   %5d\n", m, paid, owed, diff)
	}
	fmt.Printf("\ntotal back pay owed: %d\n", totalBackPay)
	fmt.Println("\nThe rollback axis answers \"what did we pay and why\";")
	fmt.Println("the valid axis answers \"what should we have paid\".")
	fmt.Println("A static or historical database can answer only one of them.")
}

// amountAt returns Merrie's salary valid on date v according to the state
// the rollback clause selects, the current belief when it is empty (0 owed
// when no version matches).
func amountAt(ses *tquel.Session, v, rollback string) int64 {
	res, err := ses.Query(fmt.Sprintf("retrieve (p.monthly_salary) when p overlap %q %s", v, rollback))
	if err != nil {
		log.Fatal(err)
	}
	if res.Len() == 0 {
		return 0
	}
	return res.Rows[0].Data[0].Int()
}
