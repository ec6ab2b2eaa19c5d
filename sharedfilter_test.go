package tdb

import (
	"fmt"
	"sync"
	"testing"

	"tdb/internal/segment"
	"tdb/temporal"
)

// A ScanSpec — and so the filters in it — is a value callers may share: any
// number of goroutines may scan with one spec at once and each must get the
// full answer. The fixture makes the filter's per-segment state matter: "x"
// sits at a different offset of every 100-row segment, so its dictionary code
// differs from segment to segment, and a filter that remembered the code of
// the segment another goroutine is in would both add and drop rows.
func TestSharedFilterConcurrentScans(t *testing.T) {
	sealEvery(t, 100)
	const rows, segments = 2000, 20
	db, err := Open("", Options{Clock: temporal.NewLogicalClock(1 << 20), LoadChunkRows: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	sch, err := mustSchema(t, Attr("id", StringKind), Attr("s", StringKind)).WithKey("id")
	if err != nil {
		t.Fatal(err)
	}
	rel, err := db.CreateRelation("r", Temporal, sch)
	if err != nil {
		t.Fatal(err)
	}
	load := make([]LoadRow, rows)
	for i := range load {
		s := fmt.Sprintf("s%04d", i)
		if seg := i / 100; i%100 == 5*seg {
			s = "x"
		}
		load[i] = LoadRow{Data: NewTuple(String(fmt.Sprintf("k%04d", i)), String(s)), From: temporal.Chronon(i), To: temporal.Forever}
	}
	if n, err := rel.Load(load); err != nil || n != rows {
		t.Fatalf("Load = %d, %v", n, err)
	}
	if st := db.Stats(); st.Segments != segments || st.TailRows != 0 {
		t.Fatalf("fixture: %+v", st)
	}
	f, ok := rel.EqFilter("s", String("x"))
	if !ok {
		t.Fatal("EqFilter rejected")
	}
	spec := ScanSpec{Filters: []*segment.Filter{f}}

	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				vs, err := rel.Scan(spec)
				if err != nil {
					errs <- err
					return
				}
				for _, v := range vs {
					if v.Data[1].Str() != "x" {
						errs <- fmt.Errorf("scan %d returned %v", i, v)
						return
					}
				}
				if len(vs) != segments {
					errs <- fmt.Errorf("scan %d returned %d rows, want %d", i, len(vs), segments)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
