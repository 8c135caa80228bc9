package main

import (
	"testing"
	"time"
)

func sp(id, parent uint64, name string, start, end time.Duration) span {
	return span{ID: id, Parent: parent, Name: name, Start: start, End: end}
}

func TestSelfTime(t *testing.T) {
	parent := sp(1, 0, "job", 10, 110) // 100 long
	for _, tc := range []struct {
		name     string
		children []span
		want     time.Duration
	}{
		{"no children", nil, 100},
		{"disjoint", []span{sp(2, 1, "a", 20, 30), sp(3, 1, "b", 50, 70)}, 70},
		{"overlapping parallel children count once", []span{sp(2, 1, "a", 20, 60), sp(3, 1, "b", 40, 80)}, 40},
		{"nested and unsorted", []span{sp(3, 1, "b", 30, 40), sp(2, 1, "a", 20, 90)}, 30},
		{"clipped to the parent", []span{sp(2, 1, "a", 0, 30), sp(3, 1, "b", 100, 200)}, 70},
		{"outside the parent", []span{sp(2, 1, "a", 0, 5), sp(3, 1, "b", 120, 130)}, 100},
		{"touching intervals", []span{sp(2, 1, "a", 10, 50), sp(3, 1, "b", 50, 110)}, 0},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: selfTime = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestSpanIndex(t *testing.T) {
	ix := indexSpans([]span{
		sp(1, 0, "job", 0, 100),
		sp(2, 1, "rep", 0, 60),
		sp(3, 1, "rep", 40, 100),
		sp(4, 2, "sim.run", 10, 50),
	})
	if got := selfTime(ix.byID[1], ix.children[1]); got != 0 {
		t.Errorf("job self time %v, want 0: its two replications cover it", got)
	}
	if got := selfTime(ix.byID[2], ix.children[2]); got != 20 {
		t.Errorf("rep self time %v, want 20", got)
	}
	if d := ix.durations("rep"); len(d) != 2 || d[0] != 60 || d[1] != 60 {
		t.Errorf("rep durations %v", d)
	}
}

func TestTracer(t *testing.T) {
	var none *tracer
	if id := none.begin("x", 0, 0); id != 0 {
		t.Fatalf("nil tracer gave span %d", id)
	}
	none.end(0)

	tr := newTracer()
	root := tr.begin("job", 0, 7)
	child := tr.begin("sim.run", root, 7)
	open := tr.begin("left-open", root, 7)
	tr.end(child)
	tr.end(root)
	spans := tr.closed()
	if len(spans) != 2 {
		t.Fatalf("%d closed spans, want 2 (open spans are not written)", len(spans))
	}
	c, ok := tr.lookup(child)
	if !ok || c.Parent != root || c.Job != 7 || c.End < c.Start {
		t.Errorf("child span %+v", c)
	}
	if _, ok := tr.lookup(open + 1); ok {
		t.Error("lookup of an unknown span succeeded")
	}
}
