package main

import (
	"strings"
	"testing"
)

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false},
		{10, 0, false},
		{99, 0, false}, // p90 would have 9.9 samples beyond it
		{100, 90, true},
		{999, 90, true},
		{1000, 99, true},
		{9999, 99, true},
		{10000, 99.9, true},
	} {
		got, ok := tailPercentile(tc.n)
		if got != tc.want || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted input
	}
	for _, tc := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {0.5, 1}} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if xs[0] != 100 {
		t.Fatal("percentile reordered its input")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}

func TestCheckName(t *testing.T) {
	for _, ok := range []string{"setup_s", "cpu_share.pki", "serve-fleet", "9lives", "a", strings.Repeat("x", 64)} {
		if err := checkName(ok); err != nil {
			t.Errorf("checkName(%q) = %v", ok, err)
		}
	}
	for _, bad := range []string{"", "_lead", ".lead", "-lead", "has space", "per/s", "μs", strings.Repeat("x", 65)} {
		if checkName(bad) == nil {
			t.Errorf("checkName(%q) accepted", bad)
		}
	}
	for _, ok := range []string{"ms", "s", "1/s", "count", "%", "MB", "ratio"} {
		if err := checkUnit(ok); err != nil {
			t.Errorf("checkUnit(%q) = %v", ok, err)
		}
	}
	for _, bad := range []string{"", "per second", strings.Repeat("u", 17)} {
		if checkUnit(bad) == nil {
			t.Errorf("checkUnit(%q) accepted", bad)
		}
	}
}

func TestJobSeed(t *testing.T) {
	seen := map[int64]bool{}
	for _, ws := range []int64{1, 2, -7} {
		for i := -110; i < 100; i++ {
			s := jobSeed(ws, i)
			if s != jobSeed(ws, i) {
				t.Fatal("jobSeed is not a function of its inputs")
			}
			if s <= 0 || s > 1<<40 {
				t.Fatalf("jobSeed(%d, %d) = %d out of (0, 2^40]", ws, i, s)
			}
			if seen[s] {
				t.Fatalf("jobSeed(%d, %d) = %d repeats", ws, i, s)
			}
			seen[s] = true
		}
	}
}

// TestSpecMatchesProgram holds BENCHMARK.json and the program together:
// every declared name and unit is valid, every declared workload has a
// runner, and a run that measured no end-to-end metric is refused.
func TestSpecMatchesProgram(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("declared workload %s has no runner", w.Name)
		}
	}
	r := newReport()
	r.ops(1, 0)
	if _, err := r.finish(spec.EndToEnd, false); err == nil {
		t.Error("finish accepted a run with no end-to-end metric")
	}
	res, err := r.finish(spec.PerLayer, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Metrics) != len(spec.PerLayer) {
		t.Errorf("traced result has %d metrics, want every one of %d per-layer metrics", len(res.Metrics), len(spec.PerLayer))
	}
}

func TestWindowPeak(t *testing.T) {
	// Three windows of four samples; a lone spike in the first window
	// does not move its median, the sustained rise in the third does.
	vals := []float64{1, 1, 9, 1, 2, 2, 2, 2, 3, 3, 3, 1, 7}
	if got := windowPeak(vals, 4); got != 3 {
		t.Errorf("windowPeak = %v, want 3 (the partial window is ignored)", got)
	}
	if got := windowPeak([]float64{5, 1, 3}, 4); got != 3 {
		t.Errorf("windowPeak of one partial window = %v, want its median 3", got)
	}
}
