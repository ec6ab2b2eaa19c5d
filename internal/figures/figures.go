// Package figures regenerates every figure of the paper from the running
// system: the example relations (Figures 2-9) are produced by replaying the
// paper's dated transactions through the public API and TQuel, and the
// classification tables (Figures 1, 10-13) come from the taxonomy package,
// with Figures 10-12 derived by probing the live stores. cmd/figures prints
// them; the benchmark harness times their regeneration.
package figures

import (
	"fmt"
	"sort"
	"strings"

	"tdb"
	"tdb/internal/pretty"
	"tdb/taxonomy"
	"tdb/temporal"
	"tdb/tquel"
)

// Paper dates.
var (
	d770825 = temporal.Date(1977, 8, 25)
	d770901 = temporal.Date(1977, 9, 1)
	d821201 = temporal.Date(1982, 12, 1)
	d821205 = temporal.Date(1982, 12, 5)
	d821207 = temporal.Date(1982, 12, 7)
	d821211 = temporal.Date(1982, 12, 11)
	d821215 = temporal.Date(1982, 12, 15)
	d830101 = temporal.Date(1983, 1, 1)
	d830110 = temporal.Date(1983, 1, 10)
	d840225 = temporal.Date(1984, 2, 25)
	d840301 = temporal.Date(1984, 3, 1)
)

func facultySchema() (*tdb.Schema, error) {
	s, err := tdb.NewSchema(tdb.Attr("name", tdb.StringKind), tdb.Attr("rank", tdb.StringKind))
	if err != nil {
		return nil, err
	}
	return s.WithKey("name")
}

func promotionSchema() (*tdb.Schema, error) {
	s, err := tdb.NewSchema(
		tdb.Attr("name", tdb.StringKind),
		tdb.Attr("rank", tdb.StringKind),
		tdb.Attr("effective", tdb.InstantKind),
	)
	if err != nil {
		return nil, err
	}
	return s.WithKey("name")
}

func fac(name, rank string) tdb.Tuple { return tdb.NewTuple(tdb.String(name), tdb.String(rank)) }

// PaperDB builds an in-memory database holding every relation the figures
// need, loaded by replaying the paper's dated transactions:
//
//   - faculty_static   (Figure 2)
//   - faculty_rollback (Figures 3, 4)
//   - faculty_hist     (Figures 5, 6)
//   - faculty          (Figures 7, 8; temporal)
//   - promotion        (Figure 9; temporal event, user-defined time)
func PaperDB() (*tdb.DB, error) {
	db, err := tdb.Open("", tdb.Options{Clock: temporal.NewLogicalClock(temporal.Date(1985, 3, 1))})
	if err != nil {
		return nil, err
	}
	fs, err := facultySchema()
	if err != nil {
		return nil, err
	}
	ps, err := promotionSchema()
	if err != nil {
		return nil, err
	}
	for _, c := range []struct {
		name  string
		kind  tdb.Kind
		event bool
		sch   *tdb.Schema
	}{
		{"faculty_static", tdb.Static, false, fs},
		{"faculty_rollback", tdb.StaticRollback, false, fs},
		{"faculty_hist", tdb.Historical, false, fs},
		{"faculty", tdb.Temporal, false, fs},
		{"promotion", tdb.Temporal, true, ps},
	} {
		if c.event {
			_, err = db.CreateEventRelation(c.name, c.kind, c.sch)
		} else {
			_, err = db.CreateRelation(c.name, c.kind, c.sch)
		}
		if err != nil {
			return nil, err
		}
	}

	// The rollback and temporal relations, replayed at the paper's dates.
	type step struct {
		at temporal.Chronon
		fn func(tx *tdb.Tx) error
	}
	steps := []step{
		{d770825, func(tx *tdb.Tx) error {
			rb, _ := tx.Rel("faculty_rollback")
			if err := rb.Insert(fac("Merrie", "associate")); err != nil {
				return err
			}
			f, _ := tx.Rel("faculty")
			if err := f.Assert(fac("Merrie", "associate"), d770901, temporal.Forever); err != nil {
				return err
			}
			p, _ := tx.Rel("promotion")
			return p.AssertAt(tdb.NewTuple(tdb.String("Merrie"), tdb.String("associate"), tdb.Instant(d770901)), d770825)
		}},
		{d821201, func(tx *tdb.Tx) error {
			f, _ := tx.Rel("faculty")
			if err := f.Assert(fac("Tom", "full"), d821205, temporal.Forever); err != nil {
				return err
			}
			p, _ := tx.Rel("promotion")
			return p.AssertAt(tdb.NewTuple(tdb.String("Tom"), tdb.String("full"), tdb.Instant(d821205)), d821205)
		}},
		{d821207, func(tx *tdb.Tx) error {
			rb, _ := tx.Rel("faculty_rollback")
			if err := rb.Insert(fac("Tom", "associate")); err != nil {
				return err
			}
			f, _ := tx.Rel("faculty")
			if err := f.Assert(fac("Tom", "associate"), d821205, temporal.Forever); err != nil {
				return err
			}
			p, _ := tx.Rel("promotion")
			if err := p.RetractAt(tdb.Key(tdb.String("Tom")), d821205); err != nil {
				return err
			}
			return p.AssertAt(tdb.NewTuple(tdb.String("Tom"), tdb.String("associate"), tdb.Instant(d821205)), d821207)
		}},
		{d821215, func(tx *tdb.Tx) error {
			rb, _ := tx.Rel("faculty_rollback")
			if err := rb.Replace(tdb.Key(tdb.String("Merrie")), fac("Merrie", "full")); err != nil {
				return err
			}
			f, _ := tx.Rel("faculty")
			if err := f.Assert(fac("Merrie", "full"), d821201, temporal.Forever); err != nil {
				return err
			}
			p, _ := tx.Rel("promotion")
			return p.AssertAt(tdb.NewTuple(tdb.String("Merrie"), tdb.String("full"), tdb.Instant(d821201)), d821211)
		}},
		{d830110, func(tx *tdb.Tx) error {
			rb, _ := tx.Rel("faculty_rollback")
			if err := rb.Insert(fac("Mike", "assistant")); err != nil {
				return err
			}
			f, _ := tx.Rel("faculty")
			if err := f.Assert(fac("Mike", "assistant"), d830101, temporal.Forever); err != nil {
				return err
			}
			p, _ := tx.Rel("promotion")
			return p.AssertAt(tdb.NewTuple(tdb.String("Mike"), tdb.String("assistant"), tdb.Instant(d830101)), d830101)
		}},
		{d840225, func(tx *tdb.Tx) error {
			rb, _ := tx.Rel("faculty_rollback")
			if err := rb.Delete(tdb.Key(tdb.String("Mike"))); err != nil {
				return err
			}
			f, _ := tx.Rel("faculty")
			if err := f.Retract(tdb.Key(tdb.String("Mike")), d840301, temporal.Forever); err != nil {
				return err
			}
			p, _ := tx.Rel("promotion")
			return p.AssertAt(tdb.NewTuple(tdb.String("Mike"), tdb.String("left"), tdb.Instant(d840301)), d840225)
		}},
	}
	for _, s := range steps {
		if err := db.UpdateAt(s.at, s.fn); err != nil {
			return nil, fmt.Errorf("figures: at %v: %w", s.at, err)
		}
	}

	// The static and historical relations are loaded after the dated
	// replay: their mutations consume present-day commit chronons, which
	// must not precede the paper's dated transactions.
	// The static relation of Figure 2 (the current state only).
	st, _ := db.Relation("faculty_static")
	if err := st.Insert(fac("Merrie", "full")); err != nil {
		return nil, err
	}
	if err := st.Insert(fac("Tom", "associate")); err != nil {
		return nil, err
	}

	// The historical relation of Figure 6: the current best knowledge,
	// including the corrected error (Tom was never full).
	hist, _ := db.Relation("faculty_hist")
	histOps := []func() error{
		func() error { return hist.Assert(fac("Merrie", "associate"), d770901, temporal.Forever) },
		func() error { return hist.Assert(fac("Tom", "full"), d821205, temporal.Forever) },
		func() error { return hist.Assert(fac("Tom", "associate"), d821205, temporal.Forever) },
		func() error { return hist.Assert(fac("Merrie", "full"), d821201, temporal.Forever) },
		func() error { return hist.Assert(fac("Mike", "assistant"), d830101, temporal.Forever) },
		func() error { return hist.Retract(tdb.Key(tdb.String("Mike")), d840301, temporal.Forever) },
	}
	for _, op := range histOps {
		if err := op(); err != nil {
			return nil, err
		}
	}

	return db, nil
}

// renderVersions renders a relation's stored versions in the paper's
// tuple-timestamped figure style.
func renderVersions(db *tdb.DB, relName, title string, showValid, showTrans bool) (string, error) {
	rel, err := db.Relation(relName)
	if err != nil {
		return "", err
	}
	vs, err := rel.Scan(tdb.ScanSpec{AllVersions: true})
	if err != nil {
		return "", err
	}
	sort.Slice(vs, func(i, j int) bool {
		a, b := vs[i], vs[j]
		if an, bn := a.Data[0].String(), b.Data[0].String(); an != bn {
			return an < bn
		}
		if a.Trans.From != b.Trans.From {
			return a.Trans.From < b.Trans.From
		}
		return a.Valid.From < b.Valid.From
	})
	sch := rel.Schema()
	headers := make([]string, 0, sch.Arity()+4)
	for i := 0; i < sch.Arity(); i++ {
		headers = append(headers, sch.Attr(i).Name)
	}
	split := len(headers)
	event := rel.Event()
	if showValid {
		if event {
			headers = append(headers, "valid (at)")
		} else {
			headers = append(headers, "valid (from)", "valid (to)")
		}
	}
	if showTrans {
		headers = append(headers, "trans (start)", "trans (end)")
	}
	tbl := pretty.Table{Title: title, Headers: headers, Split: split}
	for _, v := range vs {
		row := make([]string, 0, len(headers))
		for _, val := range v.Data {
			row = append(row, val.String())
		}
		if showValid {
			if event {
				row = append(row, v.Valid.From.String())
			} else {
				row = append(row, v.Valid.From.String(), v.Valid.To.String())
			}
		}
		if showTrans {
			row = append(row, v.Trans.From.String(), v.Trans.To.String())
		}
		tbl.Rows = append(tbl.Rows, row)
	}
	return tbl.String(), nil
}

func query(db *tdb.DB, setup, q string) (string, error) {
	ses := tquel.NewSession(db)
	res, err := ses.Query(setup + "\n" + q)
	if err != nil {
		return "", err
	}
	return res.String(), nil
}

// Figure2 reproduces the static relation and its Quel query.
func Figure2(db *tdb.DB) (string, error) {
	tbl, err := renderVersions(db, "faculty_static", "Figure 2 : A Static Relation", false, false)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString(tbl)
	b.WriteString("\nQuel query: retrieve (f.rank) where f.name = \"Merrie\"\n")
	out, err := query(db, `range of f is faculty_static`, `retrieve (f.rank) where f.name = "Merrie"`)
	if err != nil {
		return "", err
	}
	b.WriteString(out)
	return b.String(), nil
}

// Figure3 reproduces the conceptual view of a static rollback relation as
// a sequence of static states indexed by transaction time.
func Figure3(db *tdb.DB) (string, error) {
	return renderStates(db, "faculty_rollback",
		"Figure 3 : A Static Rollback Relation (sequence of static states)\n", "state")
}

// renderStates draws a rollback or temporal relation as the sequence of
// states TQuel's "as of" answers at each of its commits. Each state is drawn
// without the transaction columns TQuel prints for a rollback relation: the
// commit it was read at heads it instead.
func renderStates(db *tdb.DB, relName, title, label string) (string, error) {
	rel, err := db.Relation(relName)
	if err != nil {
		return "", err
	}
	commits, err := relRollbackCommits(rel)
	if err != nil {
		return "", err
	}
	ses := tquel.NewSession(db)
	var b strings.Builder
	b.WriteString(title)
	for _, at := range commits {
		// A four-digit year: Parse reads a two-digit one as 19xx.
		res, err := ses.Query(fmt.Sprintf("range of f is %s\nretrieve (f.name, f.rank) as of %q",
			relName, at.Time().Format("2006-01-02 15:04:05")))
		if err != nil {
			return "", err
		}
		res.HasTrans = false
		fmt.Fprintf(&b, "\n%s as of %v:\n%s", label, at, res.String())
	}
	return b.String(), nil
}

// relRollbackCommits lists the distinct transaction chronons recorded in a
// rollback or temporal relation.
func relRollbackCommits(rel *tdb.Relation) ([]temporal.Chronon, error) {
	vs, err := rel.Scan(tdb.ScanSpec{AllVersions: true})
	if err != nil {
		return nil, err
	}
	seen := map[temporal.Chronon]bool{}
	var out []temporal.Chronon
	for _, v := range vs {
		for _, c := range []temporal.Chronon{v.Trans.From, v.Trans.To} {
			if c.IsFinite() && !seen[c] {
				seen[c] = true
				out = append(out, c)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// Figure4 reproduces the tuple-timestamped rollback relation and the TQuel
// rollback query (answer: associate).
func Figure4(db *tdb.DB) (string, error) {
	tbl, err := renderVersions(db, "faculty_rollback", "Figure 4 : A Static Rollback Relation", false, true)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString(tbl)
	b.WriteString("\nTQuel query: retrieve (f.rank) where f.name = \"Merrie\" as of \"12/10/82\"\n")
	out, err := query(db, `range of f is faculty_rollback`,
		`retrieve (f.rank) where f.name = "Merrie" as of "12/10/82"`)
	if err != nil {
		return "", err
	}
	b.WriteString(out)
	return b.String(), nil
}

// Figure5 reproduces the historical relation's conceptual view: the single
// current historical state (contrast Figure 3's retained sequence).
func Figure5(db *tdb.DB) (string, error) {
	tbl, err := renderVersions(db, "faculty_hist", "", true, false)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("Figure 5 : An Historical Relation (current knowledge of history; ")
	b.WriteString("the erroneous tuple was removed without trace)\n")
	b.WriteString(tbl)
	return b.String(), nil
}

// Figure6 reproduces the valid-time-stamped historical relation and the
// TQuel historical query (answer: full, [12/01/82, ∞)).
func Figure6(db *tdb.DB) (string, error) {
	tbl, err := renderVersions(db, "faculty_hist", "Figure 6 : A Historical Relation", true, false)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString(tbl)
	b.WriteString("\nTQuel query: retrieve (f1.rank) where f1.name = \"Merrie\" and f2.name = \"Tom\"\n")
	b.WriteString("            when f1 overlap start of f2\n")
	out, err := query(db, "range of f1 is faculty_hist\nrange of f2 is faculty_hist",
		`retrieve (f1.rank) where f1.name = "Merrie" and f2.name = "Tom" when f1 overlap start of f2`)
	if err != nil {
		return "", err
	}
	b.WriteString(out)
	return b.String(), nil
}

// Figure7 reproduces the temporal relation's conceptual view: a sequence of
// historical states, one per transaction.
func Figure7(db *tdb.DB) (string, error) {
	return renderStates(db, "faculty",
		"Figure 7 : A Temporal Relation (sequence of historical states)\n", "historical state")
}

// Figure8 reproduces the bitemporal relation and the §4.4 query at both
// rollback instants (associate, then full).
func Figure8(db *tdb.DB) (string, error) {
	tbl, err := renderVersions(db, "faculty", "Figure 8 : A Temporal Relation", true, true)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString(tbl)
	const q = `retrieve (f1.rank) where f1.name = "Merrie" and f2.name = "Tom" when f1 overlap start of f2 as of %s`
	for _, date := range []string{`"12/10/82"`, `"12/20/82"`} {
		fmt.Fprintf(&b, "\nTQuel query: ... when f1 overlap start of f2 as of %s\n", date)
		out, err := query(db, "range of f1 is faculty\nrange of f2 is faculty",
			strings.Replace(q, "%s", date, 1))
		if err != nil {
			return "", err
		}
		b.WriteString(out)
	}
	return b.String(), nil
}

// Figure9 reproduces the temporal event relation with its user-defined
// effective-date attribute.
func Figure9(db *tdb.DB) (string, error) {
	return renderVersions(db, "promotion", "Figure 9 : A Temporal Event Relation", true, true)
}

// Taxonomy figures.

// Figure1 renders the prior-literature survey.
func Figure1() string { return taxonomy.RenderFigure1() }

// Figures10to12 renders the classification tables from live-probed
// capabilities.
func Figures10to12() (string, error) {
	var caps []taxonomy.Capabilities
	for _, k := range taxonomy.AllKinds {
		c, err := taxonomy.Probe(k)
		if err != nil {
			return "", err
		}
		caps = append(caps, c)
	}
	var b strings.Builder
	b.WriteString(taxonomy.RenderFigure10(caps))
	b.WriteString("\n")
	b.WriteString(taxonomy.RenderFigure11(caps))
	b.WriteString("\n")
	b.WriteString(taxonomy.RenderFigure12())
	return b.String(), nil
}

// Figure13 renders the systems survey.
func Figure13() string { return taxonomy.RenderFigure13() }

// All regenerates every figure in order.
func All() (string, error) {
	db, err := PaperDB()
	if err != nil {
		return "", err
	}
	defer db.Close()
	var b strings.Builder
	b.WriteString(Figure1())
	b.WriteString("\n")
	for _, fn := range []func(*tdb.DB) (string, error){
		Figure2, Figure3, Figure4, Figure5, Figure6, Figure7, Figure8, Figure9,
	} {
		out, err := fn(db)
		if err != nil {
			return "", err
		}
		b.WriteString(out)
		b.WriteString("\n")
	}
	t, err := Figures10to12()
	if err != nil {
		return "", err
	}
	b.WriteString(t)
	b.WriteString("\n")
	b.WriteString(Figure13())
	return b.String(), nil
}
