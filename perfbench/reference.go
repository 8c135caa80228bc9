package main

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"sync"
	"time"
)

// The host-speed reference. On a shared virtual machine the speed of the
// cores drifts with the load of its neighbours: the same Fig4 job, re-run
// back to back in one process, took 260 ms to 420 ms of wall time within
// minutes, and its CPU time drifted with it. A run's median job time then
// measures the host as much as the program. So the benchmark also times a
// fixed reference kernel, alone, between the jobs, and reports the median
// job time as a multiple of the median reference time of the same run. The
// kernel uses only the standard library and none of the program's code: a
// change to the program moves the ratio exactly as it moves the raw time,
// while a slower or faster host moves both sides.

// refKernel is the reference: ECDSA P-256 signing and verification, map
// and allocation churn, and JSON encoding and decoding: about 25 ms on one
// core of a 2-core Intel Xeon virtual machine. Its work is fixed.
func refKernel() int {
	refKeyOnce.Do(func() {
		k, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
		if err != nil {
			panic(err)
		}
		refKey = k
	})
	sink := 0
	digest := sha256.Sum256([]byte("perfbench reference kernel"))
	for range 30 {
		r, s, err := ecdsa.Sign(rand.Reader, refKey, digest[:])
		if err == nil && ecdsa.Verify(&refKey.PublicKey, digest[:], r, s) {
			sink++
		}
	}
	m := make(map[int][]byte)
	for i := range 150_000 {
		m[i%5000] = make([]byte, 64)
		sink += len(m[i%977])
	}
	type row struct {
		ID    int       `json:"id"`
		Name  string    `json:"name"`
		Value []float64 `json:"value"`
	}
	rows := make([]row, 200)
	for i := range rows {
		rows[i] = row{ID: i, Name: "vehicle", Value: []float64{float64(i), 0.5, 1e-3}}
	}
	for range 10 {
		b, _ := json.Marshal(rows)
		var back []row
		if json.Unmarshal(b, &back) == nil {
			sink += len(back)
		}
	}
	return sink
}

var (
	refKeyOnce sync.Once
	refKey     *ecdsa.PrivateKey
)

// timeRef runs the reference kernel once and returns its wall time.
func timeRef() time.Duration {
	t0 := time.Now()
	refKernel()
	return time.Since(t0)
}

// refGate times the reference for a closed loop of concurrent clients.
// Every interval it stops new requests, waits for those in flight, and
// times the kernel alone; a client wraps each request in enter and leave.
type refGate struct {
	mu   sync.RWMutex
	refs []time.Duration // guarded by mu
	stop chan struct{}
	done chan struct{}
}

func startRefGate(interval time.Duration) *refGate {
	g := &refGate{stop: make(chan struct{}), done: make(chan struct{})}
	g.measure()
	go func() {
		defer close(g.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-g.stop:
				return
			case <-t.C:
				g.measure()
			}
		}
	}()
	return g
}

func (g *refGate) measure() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.refs = append(g.refs, timeRef())
}

// enter admits one request.
func (g *refGate) enter() { g.mu.RLock() }

func (g *refGate) leave() { g.mu.RUnlock() }

// finish stops the gate and returns every reference time it measured.
func (g *refGate) finish() []time.Duration {
	close(g.stop)
	<-g.done
	return g.refs
}

// relMedian is the median of lat as a multiple of the median of refs.
func relMedian(lat, refs []time.Duration) float64 {
	return median(millis(lat)) / median(millis(refs))
}

// reportRef reports the median job time relative to the reference
// (job_rel_p50) and the reference's own median time (ref_ms_p50), which
// shows how fast the host was during the run.
func reportRef(e *env, lat, refs []time.Duration) {
	e.rep.set("job_rel_p50", relMedian(lat, refs), "ratio",
		fmt.Sprintf("median job time ÷ median reference time, n=%d", len(lat)))
	e.rep.set("ref_ms_p50", median(millis(refs)), "ms",
		fmt.Sprintf("reference kernel, n=%d", len(refs)))
}
