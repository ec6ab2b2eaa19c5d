package tquel

import (
	"strings"
	"testing"
)

// FuzzExec runs each input as statements on a fresh paperSession with f
// and g ranging over faculty. No input may panic; errors are fine. Inputs
// that declare variables are skipped, so cross products stay at most
// 6 × 6 versions. Seeds are one statement per clause, plus a window clause
// that once ran for minutes.
func FuzzExec(f *testing.F) {
	for _, src := range []string{
		`retrieve (f.name, f.rank)`,
		`retrieve into copy (f.name) where f.rank = "full" or not f.name != "Tom"`,
		`retrieve (f.name) valid from start of f to end of g when f overlap g`,
		`retrieve (f.name) valid at "01/01/83" when f precede g`,
		`retrieve (f.rank) as of "12/10/82" through "12/20/82"`,
		`retrieve (f.rank, n = count(f.name), m = max(f.name)) window 31536000 slide 86400`,
		`retrieve (f.name, g.name) where f.rank = g.rank coalesce`,
		`retrieve (n = count(f.name)) window 10 slide 5`,
		`explain retrieve (f.name, g.rank) where f.name = g.name`,
		`append to faculty (name = "Jane", rank = "full") valid from "01/01/84" to forever`,
		`replace f (rank = "emeritus") where f.name = "Tom" valid from "01/01/85" to forever`,
		`delete f where f.rank = "associate"`,
		`create historical event relation e (x = int, d = date) key (x)`,
		`destroy faculty`,
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if strings.Contains(strings.ToLower(src), "range") {
			return
		}
		ses := paperSession(t)
		if _, err := ses.Exec(`range of g is faculty`); err != nil {
			t.Fatal(err)
		}
		ses.Exec(src)
	})
}
