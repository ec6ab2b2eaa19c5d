package taxonomy

import (
	"strings"
	"testing"

	"tdb"
)

// The central claim: behavioral probing of the four live store kinds
// reproduces exactly the capabilities the taxonomy predicts (Figures 10-12
// derived, not transcribed).
func TestProbeMatchesTaxonomy(t *testing.T) {
	for _, k := range AllKinds {
		got, err := Probe(k)
		if err != nil {
			t.Fatalf("Probe(%v): %v", k, err)
		}
		want := Expected(k)
		if got != want {
			t.Errorf("Probe(%v) = %+v, want %+v", k, got, want)
		}
	}
}

func TestExpectedMatrix(t *testing.T) {
	cases := map[tdb.Kind]Capabilities{
		tdb.Static:         {Kind: tdb.Static, Rollback: false, Historical: false, AppendOnly: false},
		tdb.StaticRollback: {Kind: tdb.StaticRollback, Rollback: true, Historical: false, AppendOnly: true},
		tdb.Historical:     {Kind: tdb.Historical, Rollback: false, Historical: true, AppendOnly: false},
		tdb.Temporal:       {Kind: tdb.Temporal, Rollback: true, Historical: true, AppendOnly: true},
	}
	for k, want := range cases {
		if got := Expected(k); got != want {
			t.Errorf("Expected(%v) = %+v, want %+v", k, got, want)
		}
	}
}

func TestTimeKindAttributesFigure12(t *testing.T) {
	// Figure 12's exact contents.
	cases := map[TimeKind]TimeAttributes{
		TransactionTime: {AppendOnly: true, ApplicationIndependent: true, RepresentationNotReality: true},
		ValidTime:       {AppendOnly: false, ApplicationIndependent: true, RepresentationNotReality: false},
		UserDefinedTime: {AppendOnly: false, ApplicationIndependent: false, RepresentationNotReality: false},
	}
	for k, want := range cases {
		if got := k.Attributes(); got != want {
			t.Errorf("%v.Attributes() = %+v, want %+v", k, got, want)
		}
	}
	if TransactionTime.String() != "Transaction" || UserDefinedTime.String() != "User-defined" {
		t.Error("time kind names wrong")
	}
}

func TestFigure13Contents(t *testing.T) {
	if len(Figure13) != 17 {
		t.Fatalf("Figure 13 has %d systems, paper lists 17", len(Figure13))
	}
	// TQuel is the only entry supporting all three kinds of time.
	all3 := 0
	for _, s := range Figure13 {
		if s.Transaction && s.Valid && s.UserDefined {
			all3++
			if s.System != "TQuel" {
				t.Errorf("unexpected full-support system %q", s.System)
			}
		}
	}
	if all3 != 1 {
		t.Errorf("%d systems support all three times", all3)
	}
	// TRM is the only (bitemporal) temporal database besides TQuel.
	for _, s := range Figure13 {
		if s.Transaction && s.Valid &&
			s.System != "TRM" && s.System != "TQuel" {
			t.Errorf("unexpected temporal system %q", s.System)
		}
	}
}

func TestRenderedFiguresContainKeyFacts(t *testing.T) {
	var caps []Capabilities
	for _, k := range AllKinds {
		c, err := Probe(k)
		if err != nil {
			t.Fatal(err)
		}
		caps = append(caps, c)
	}
	f10 := RenderFigure10(caps)
	for _, want := range []string{"Static Rollback", "Historical", "Temporal", "No Rollback"} {
		if !strings.Contains(f10, want) {
			t.Errorf("Figure 10 missing %q:\n%s", want, f10)
		}
	}
	f11 := RenderFigure11(caps)
	if !strings.Contains(f11, "User-defined") {
		t.Errorf("Figure 11 missing user-defined column:\n%s", f11)
	}
	f12 := RenderFigure12()
	for _, want := range []string{"Transaction", "Representation", "Reality", "Yes", "No"} {
		if !strings.Contains(f12, want) {
			t.Errorf("Figure 12 missing %q:\n%s", want, f12)
		}
	}
	f13 := RenderFigure13()
	for _, want := range []string{"TQuel", "SWALLOW", "GemStone", "LEGOL 2.0"} {
		if !strings.Contains(f13, want) {
			t.Errorf("Figure 13 missing %q:\n%s", want, f13)
		}
	}
	f1 := RenderFigure1()
	for _, want := range []string{"Registration", "Effective", "(2) Can make corrections only"} {
		if !strings.Contains(f1, want) {
			t.Errorf("Figure 1 missing %q:\n%s", want, f1)
		}
	}
}

func TestFigure10CellsUnique(t *testing.T) {
	var caps []Capabilities
	for _, k := range AllKinds {
		caps = append(caps, Expected(k))
	}
	seen := map[[2]bool]tdb.Kind{}
	for _, c := range caps {
		cell := [2]bool{c.Historical, c.Rollback}
		if prev, dup := seen[cell]; dup {
			t.Errorf("kinds %v and %v occupy the same cell", prev, c.Kind)
		}
		seen[cell] = c.Kind
	}
	if len(seen) != 4 {
		t.Errorf("the four kinds must fill all four cells, filled %d", len(seen))
	}
}
