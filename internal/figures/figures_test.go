package figures

import (
	"os"
	"strings"
	"testing"

	"tdb/internal/segment"
)

func TestAllFiguresRegenerate(t *testing.T) {
	out, err := All()
	if err != nil {
		t.Fatal(err)
	}
	// Every figure heading must be present.
	for _, want := range []string{
		"Figure 1 : Types of Time",
		"Figure 2 : A Static Relation",
		"Figure 3 : A Static Rollback Relation",
		"Figure 4 : A Static Rollback Relation",
		"Figure 5 : An Historical Relation",
		"Figure 6 : A Historical Relation",
		"Figure 7 : A Temporal Relation",
		"Figure 8 : A Temporal Relation",
		"Figure 9 : A Temporal Event Relation",
		"Figure 10 : Types of Databases",
		"Figure 11 : Attributes of the New Kinds of Databases",
		"Figure 12 : Attributes of the New Kinds of Time",
		"Figure 13 : Time Support in Existing or Proposed Systems",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

// All thirteen figures must render byte-identically on both sides of the
// seal boundary: at the default threshold, where every figure relation
// stays in the row tail, and with the threshold forced to 2 and 4, so every
// figure relation seals into columnar segments. The figures read every
// store kind through every query path — snapshot, rollback, when,
// bitemporal — so agreement here is the end-to-end storage differential.
func TestFiguresSegmentsDifferential(t *testing.T) {
	old := segment.SealRows
	t.Cleanup(func() { segment.SealRows = old })
	segment.SealRows = segment.DefaultSealRows
	base, err := All()
	if err != nil {
		t.Fatal(err)
	}
	for _, rows := range []int{2, 4} {
		segment.SealRows = rows
		sealed, err := All()
		if err != nil {
			t.Fatal(err)
		}
		if sealed != base {
			t.Errorf("figures drift when relations seal into %d-row segments", rows)
		}
	}
}

// The exact rows of the paper's central figures.
func TestFigure8RowsMatchPaper(t *testing.T) {
	db, err := PaperDB()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	out, err := Figure8(db)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"| Merrie | associate || 09/01/77     | ∞          | 08/25/77      | 12/15/82    |",
		"| Merrie | associate || 09/01/77     | 12/01/82   | 12/15/82      | ∞           |",
		"| Merrie | full      || 12/01/82     | ∞          | 12/15/82      | ∞           |",
		"| Tom    | full      || 12/05/82     | ∞          | 12/01/82      | 12/07/82    |",
		"| Tom    | associate || 12/05/82     | ∞          | 12/07/82      | ∞           |",
		"| Mike   | assistant || 01/01/83     | ∞          | 01/10/83      | 02/25/84    |",
		"| Mike   | assistant || 01/01/83     | 03/01/84   | 02/25/84      | ∞           |",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Figure 8 missing row %q\n%s", want, out)
		}
	}
	// Both query answers, in order: associate as of 12/10, full as of 12/20.
	i1 := strings.Index(out, `as of "12/10/82"`)
	i2 := strings.Index(out, `as of "12/20/82"`)
	if i1 < 0 || i2 < 0 || i1 > i2 {
		t.Fatalf("query sections missing:\n%s", out)
	}
	if !strings.Contains(out[i1:i2], "associate") {
		t.Error("as-of-12/10 answer is not associate")
	}
	if !strings.Contains(out[i2:], "full") {
		t.Error("as-of-12/20 answer is not full")
	}
}

func TestFigure4AnswerIsAssociate(t *testing.T) {
	db, err := PaperDB()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	out, err := Figure4(db)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"| Merrie | associate || 08/25/77      | 12/15/82    |",
		"| Merrie | full      || 12/15/82      | ∞           |",
		"| Mike   | assistant || 01/10/83      | 02/25/84    |",
		"| Tom    | associate || 12/07/82      | ∞           |",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Figure 4 missing row %q\n%s", want, out)
		}
	}
	// The answer: associate (not full).
	qi := strings.Index(out, "TQuel query")
	if !strings.Contains(out[qi:], "associate") {
		t.Errorf("rollback answer wrong:\n%s", out[qi:])
	}
}

func TestFigure6AnswerIsFull(t *testing.T) {
	db, err := PaperDB()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	out, err := Figure6(db)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"| Merrie | associate || 09/01/77     | 12/01/82   |",
		"| Merrie | full      || 12/01/82     | ∞          |",
		"| Mike   | assistant || 01/01/83     | 03/01/84   |",
		"| Tom    | associate || 12/05/82     | ∞          |",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Figure 6 missing row %q\n%s", want, out)
		}
	}
	qi := strings.Index(out, "TQuel query")
	if !strings.Contains(out[qi:], "| full") {
		t.Errorf("historical answer wrong:\n%s", out[qi:])
	}
	// No trace of the corrected error.
	if strings.Contains(out[:qi], "| Tom    | full") {
		t.Error("corrected error visible in historical relation")
	}
}

func TestFigure9UserDefinedTime(t *testing.T) {
	db, err := PaperDB()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	out, err := Figure9(db)
	if err != nil {
		t.Fatal(err)
	}
	// Merrie's retroactive promotion: three distinct times on one row —
	// effective (user-defined) 12/01/82, valid at 12/11/82, recorded
	// 12/15/82.
	if !strings.Contains(out, "| Merrie | full      | 12/01/82  || 12/11/82   | 12/15/82      | ∞           |") {
		t.Errorf("Figure 9 row with three distinct times missing:\n%s", out)
	}
	// Tom's superseded promotion survives with closed transaction time.
	if !strings.Contains(out, "| Tom    | full      | 12/05/82  || 12/05/82   | 12/01/82      | 12/07/82    |") {
		t.Errorf("Figure 9 superseded event missing:\n%s", out)
	}
}

func TestFigure3StateCount(t *testing.T) {
	db, err := PaperDB()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	out, err := Figure3(db)
	if err != nil {
		t.Fatal(err)
	}
	// Five transactions touch the rollback relation: Merrie's insertion,
	// Tom's, Merrie's promotion, Mike's insertion and Mike's deletion.
	if got := strings.Count(out, "state as of"); got != 5 {
		t.Errorf("Figure 3 shows %d states, want 5 (the rollback relation's transactions)\n%s", got, out)
	}
}

func TestFigure7HistoricalStates(t *testing.T) {
	db, err := PaperDB()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	out, err := Figure7(db)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(out, "historical state as of"); got != 6 {
		t.Errorf("Figure 7 shows %d states, want 6\n%s", got, out)
	}
	// The first state already shows Merrie's postactive start date.
	first := out[strings.Index(out, "historical state as of 08/25/77"):]
	if !strings.Contains(first[:400], "09/01/77") {
		t.Errorf("postactive start date missing from first state:\n%s", first[:400])
	}
}

// The committed artifact docs/figures.txt must stay in sync with what the
// harness generates (regenerate with: go run ./cmd/figures > docs/figures.txt).
func TestCommittedFiguresArtifactCurrent(t *testing.T) {
	want, err := os.ReadFile("../../docs/figures.txt")
	if err != nil {
		t.Skipf("artifact not present: %v", err)
	}
	got, err := All()
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Error("docs/figures.txt is stale; regenerate with: go run ./cmd/figures > docs/figures.txt")
	}
}
