package main

import (
	"context"
	"fmt"
	"time"

	"blackdp"
)

// The metro-grid workload is simulator work with almost nothing else: a
// job is one serial blackdp.Run of a 1,000-vehicle 3×3 grid city (18
// clusters) with free placeholder signatures, two data packets and 10
// simulated seconds — the world of BenchmarkMetroRun1k. The scheduler,
// radio, grid index, mobility and AODV beacons do nearly all the work;
// world build is a small share, and PKI, serve and dist are not used, so a
// build or crypto optimisation should leave it unchanged. One world is
// alive at a time, which leaves the second core to the garbage collector.

// metroCounted is how many jobs of a traced run feed the exact counters.
const metroCounted = 1

func metroConfig(seed int64, i int) blackdp.Config {
	cfg := blackdp.DefaultConfig()
	cfg.Topology = "grid"
	cfg.GridRows = 3
	cfg.GridCols = 3
	cfg.Vehicles = 1_000
	cfg.RealCrypto = false
	cfg.DataPackets = 2
	cfg.MaxSimTime = 10 * time.Second
	cfg.Seed = jobSeed(seed, i)
	return cfg
}

func metroJob(ctx context.Context, cfg blackdp.Config) (string, error) {
	o, err := blackdp.Run(ctx, cfg)
	if err != nil {
		return "", err
	}
	return hashJSON(o)
}

func runMetro(ctx context.Context, e *env) error {
	// A set-up warms the process with one metro world run for one
	// simulated second: a full job would make every run several seconds
	// longer for no better a measurement.
	_, err := measureSetup(e, func(rep int) (struct{}, error) {
		cfg := metroConfig(warmupSeed, -1-rep)
		cfg.MaxSimTime = time.Second
		_, err := blackdp.Run(ctx, cfg)
		return struct{}{}, err
	}, func(struct{}) {})
	if err != nil {
		return err
	}

	untracedWin, tracedWin := e.phases()
	hashes := map[int]string{}
	heap := startHeapSampler(5 * time.Millisecond)
	a0, c0 := gcCounters()
	w := serialWindow(ctx, e, untracedWin, 1, func(ctx context.Context, i int) error {
		h, err := metroJob(ctx, metroConfig(e.seed, i))
		if err == nil {
			hashes[i] = h
		}
		return err
	})
	a1, c1 := gcCounters()
	e.rep.set("heap_live_mb_max", heap.finish(), "MB", "peak of one-second medians")
	windowStats(e, "job_ms", w.lat)
	e.rep.set("reps_per_s", 1/median(secondsOf(w.lat)), "1/s", "1 rep per job ÷ median job time")
	reportRef(e, w.lat, w.refs)
	e.rep.set("reps_per_ref", 1/relMedian(w.lat, w.refs), "1/ref", "1 rep per job ÷ job_rel_p50")

	checkPins(e, "metro-grid", hashes)
	if !e.traced {
		h, err := metroJob(ctx, metroConfig(e.seed, 0))
		if err == nil && h != hashes[0] {
			err = fmt.Errorf("re-run hash %s, timed run %s", h[:12], hashes[0][:12])
		}
		e.rep.check("serial-rerun", err, "job 0 again, byte-identical")
		return nil
	}
	reportGC(e, a0, c0, a1, c1, len(w.lat))

	tr := newTracer()
	traced := map[int]string{}
	var (
		counted   []worldCounters
		allEvents uint64
		tw        serialRecord
	)
	shares, err := profiled(e, fmt.Sprintf("metro-grid-seed%d", e.seed), func() {
		tw = serialWindow(ctx, e, tracedWin, metroCounted, func(ctx context.Context, i int) error {
			root := tr.begin("job", 0, i)
			o, c, err := tracedRep(ctx, tr, root, i, metroConfig(e.seed, i))
			tr.end(root)
			if err != nil {
				return err
			}
			h, err := hashJSON(o)
			traced[i] = h
			allEvents += c.Events
			if i < metroCounted {
				counted = append(counted, c)
			}
			return err
		})
	})
	if err != nil {
		return err
	}
	checkHashes("traced-equals-untraced", e, hashes, traced)
	reportWorlds(e, indexSpans(tr.closed()), counted, allEvents)
	reportCPU(e, shares)
	e.rep.set("perfbench.trace_overhead", relMedian(tw.lat, tw.refs)/relMedian(w.lat, w.refs)-1, "ratio", "traced ÷ untraced job_rel_p50 − 1")
	return tr.write(spanPath(e, "metro-grid"))
}
