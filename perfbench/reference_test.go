package main

import (
	"testing"
	"time"
)

func TestRelMedian(t *testing.T) {
	lat := []time.Duration{30 * time.Millisecond, 10 * time.Millisecond, 20 * time.Millisecond}
	refs := []time.Duration{5 * time.Millisecond, 15 * time.Millisecond, 10 * time.Millisecond, 100 * time.Millisecond}
	// median(lat) = 20 ms; median(refs) = (10 + 15) / 2 = 12.5 ms.
	if got, want := relMedian(lat, refs), 1.6; got < want-1e-12 || got > want+1e-12 {
		t.Fatalf("relMedian = %v, want %v", got, want)
	}
}

// TestRefGate checks that the gate times the reference once as it starts
// and that it never times it while a request is in flight.
func TestRefGate(t *testing.T) {
	g := startRefGate(time.Millisecond)
	g.enter()
	n := len(g.refs) // safe: the read lock keeps measure out
	time.Sleep(20 * time.Millisecond)
	if len(g.refs) != n {
		t.Errorf("reference timed while a request was in flight")
	}
	g.leave()
	refs := g.finish()
	if n < 1 || len(refs) < n {
		t.Fatalf("gate timed %d references (%d at the first request)", len(refs), n)
	}
	for _, d := range refs {
		if d <= 0 {
			t.Fatalf("reference time %v", d)
		}
	}
}
