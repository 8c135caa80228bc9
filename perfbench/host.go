package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"strings"
	"sync"
	"time"
)

// host identifies where and on what a result was measured, so numbers
// from different machines or sources are never compared by accident.
type host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Source     string `json:"source_sha256"`
}

func stampHost() host {
	return host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
		Source:     sourceDigest("."),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision the binary was built from, when the build
// saw a repository; a plain source checkout reports "unknown", and the
// source digest identifies the code instead.
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// sourceDigest hashes every Go source and module file under root (build
// outputs excluded), in path order.
func sourceDigest(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	slices.Sort(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return "unknown"
		}
		h.Write([]byte(filepath.ToSlash(p)))
		h.Write([]byte{0})
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// heapSampler samples the live heap (the heap the latest GC cycle marked
// live) at a fixed period while it runs. The value changes only when a GC
// cycle ends, so the samples trace the live heap over time.
type heapSampler struct {
	every time.Duration
	stop  chan struct{}
	done  chan struct{}
	mu    sync.Mutex
	vals  []float64 // MB, one per period
}

const liveHeapMetric = "/gc/heap/live:bytes"

// heapWindow is the smoothing window of heap_live_mb_max.
const heapWindow = time.Second

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{every: every, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: liveHeapMetric}}
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			metrics.Read(s)
			h.mu.Lock()
			h.vals = append(h.vals, float64(s[0].Value.Uint64())/(1<<20))
			h.mu.Unlock()
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// finish stops the sampler, waits for it and returns the peak live heap in
// MB: the largest median over consecutive heapWindow windows of samples.
// A lone GC cycle that ends while much is in flight moves one window's
// median little, so the peak follows the sustained working set, not the
// timing of single collections.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	<-h.done
	h.mu.Lock()
	defer h.mu.Unlock()
	return windowPeak(h.vals, int(heapWindow/h.every))
}

// windowPeak is the largest median over consecutive windows of n samples;
// a trailing partial window counts when it is the only one.
func windowPeak(vals []float64, n int) float64 {
	if len(vals) <= n {
		return median(vals)
	}
	peak := math.Inf(-1)
	for i := 0; i+n <= len(vals); i += n {
		peak = max(peak, median(vals[i:i+n]))
	}
	return peak
}

// gcCounters reads cumulative allocation bytes and GC cycles.
func gcCounters() (allocBytes, cycles uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}
