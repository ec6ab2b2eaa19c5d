package main

import "testing"

func TestSelfTimeIsDurationMinusChildCover(t *testing.T) {
	spans := []span{
		{ID: 0, Name: "request", Start: 0, End: 100},
		{ID: 1, Name: "client.encode", Start: 10, End: 30},
		{ID: 2, Name: "server", Start: 40, End: 90},
		{ID: 3, Name: "parse", Start: 50, End: 60},
		{ID: 4, Name: "execute", Start: 60, End: 85},
		{ID: 5, Name: "parallel", Start: 65, End: 70},
		{ID: 6, Name: "request", Start: 100, End: 130},
		{ID: 7, Name: "server", Start: 100, End: 130}, // same interval: the earlier id is the outer
	}
	link(spans)
	wantParent := []int{-1, 0, 0, 2, 2, 4, -1, 6}
	wantSelf := []int64{30, 20, 15, 10, 20, 5, 0, 30}
	for i, s := range spans {
		if s.Parent != wantParent[i] || s.Self != wantSelf[i] {
			t.Errorf("%s#%d: parent %d self %d, want parent %d self %d", s.Name, i, s.Parent, s.Self, wantParent[i], wantSelf[i])
		}
	}
	self, wall := selfByName(spans, "request")
	if wall != 130 {
		t.Errorf("request wall = %d, want 130", wall)
	}
	var sum int64
	for _, v := range self {
		sum += v
	}
	if sum != wall {
		t.Errorf("self times sum to %d, want the wall time %d", sum, wall)
	}
}
