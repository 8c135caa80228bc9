package main

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"blackdp"
	"blackdp/internal/metrics"
	"blackdp/internal/scenario"
)

// The fig4-ecdsa workload is the paper's own experiment: a job is one
// Figure 4 sweep (the attacker in each of the Table I highway's 10
// clusters, evasive behaviour in clusters 8-10, one replication per
// cluster, all ten sharing the job's seed) with ECDSA P-256 credentials,
// on two sweep workers. World build, credential issuance above all, is a
// large share of each replication; serve and dist are not used.

const (
	fig4Workers = 2
	fig4Reps    = 10 // replications per job: one per cluster
	// fig4Counted is how many jobs of a traced run feed the exact layer
	// counters; the traced phase always completes at least this many.
	fig4Counted = 4
)

func fig4Base(seed int64, i int) blackdp.Config {
	cfg := blackdp.DefaultConfig()
	cfg.Seed = jobSeed(seed, i)
	return cfg
}

// fig4Job runs one job through the public entry point and returns its
// outcome hash.
func fig4Job(ctx context.Context, cfg blackdp.Config, workers int) (string, error) {
	points, err := blackdp.Fig4(ctx, cfg, blackdp.SingleBlackHole, 1, blackdp.WithWorkers(workers))
	if err != nil {
		return "", err
	}
	return hashJSON(points)
}

// fig4Traced computes the same job as fig4Job, replication by replication,
// so that spans can surround each world build and run: one "exp.rep" span
// per replication under the job's root span, on fig4Workers goroutines
// like the sweep pool. It returns the outcome hash — which must equal
// fig4Job's — and every replication's layer counters in cluster order.
func fig4Traced(ctx context.Context, tr *tracer, job int, base blackdp.Config) (string, []worldCounters, error) {
	clusters := int(base.HighwayLengthM / base.ClusterLengthM)
	var evasive []int
	for c := max(clusters-2, 1); c <= clusters; c++ {
		evasive = append(evasive, c)
	}
	root := tr.begin("job", 0, job)
	outcomes := make([]metrics.Outcome, clusters)
	counters := make([]worldCounters, clusters)
	errs := make([]error, clusters)
	var next atomic.Int64
	var wg sync.WaitGroup
	for range fig4Workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= clusters {
					return
				}
				cfg := base
				cfg.Attack = blackdp.SingleBlackHole
				cfg.AttackerCluster = k + 1
				cfg.EvasiveClusters = evasive
				rep := tr.begin("exp.rep", root, job)
				outcomes[k], counters[k], errs[k] = tracedRep(ctx, tr, rep, job, cfg)
				tr.end(rep)
			}
		}()
	}
	wg.Wait()
	tr.end(root)
	if err := errors.Join(errs...); err != nil {
		return "", nil, err
	}
	points := make([]scenario.Fig4Point, clusters)
	for k := range points {
		points[k] = scenario.Fig4Point{Cluster: k + 1, Kind: blackdp.SingleBlackHole,
			Summary: metrics.Aggregate(outcomes[k : k+1])}
	}
	h, err := hashJSON(points)
	return h, counters, err
}

func runFig4(ctx context.Context, e *env) error {
	_, err := measureSetup(e, func(rep int) (struct{}, error) {
		_, err := fig4Job(ctx, fig4Base(warmupSeed, -1-rep), fig4Workers)
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
		h, err := fig4Job(ctx, fig4Base(e.seed, i), fig4Workers)
		if err == nil {
			hashes[i] = h
		}
		return err
	})
	a1, c1 := gcCounters()
	e.rep.set("heap_live_mb_max", heap.finish(), "MB", "peak of one-second medians")
	windowStats(e, "job_ms", w.lat)
	e.rep.set("reps_per_s", fig4Reps/median(secondsOf(w.lat)), "1/s", fmt.Sprintf("%d reps per job ÷ median job time", fig4Reps))
	reportRef(e, w.lat, w.refs)
	e.rep.set("reps_per_ref", fig4Reps/relMedian(w.lat, w.refs), "1/ref", fmt.Sprintf("%d reps per job ÷ job_rel_p50", fig4Reps))

	checkPins(e, "fig4-ecdsa", hashes)
	if !e.traced {
		h, err := fig4Job(ctx, fig4Base(e.seed, 0), 1)
		if err == nil && h != hashes[0] {
			err = fmt.Errorf("serial re-run hash %s, timed run %s", h[:12], hashes[0][:12])
		}
		e.rep.check("serial-rerun", err, "job 0 on one worker, byte-identical")
		return nil
	}
	reportGC(e, a0, c0, a1, c1, fig4Reps*len(w.lat))

	tr := newTracer()
	traced := map[int]string{}
	var (
		counted   []worldCounters
		allEvents uint64
		tw        serialRecord
	)
	shares, err := profiled(e, fmt.Sprintf("fig4-ecdsa-seed%d", e.seed), func() {
		tw = serialWindow(ctx, e, tracedWin, fig4Counted, func(ctx context.Context, i int) error {
			h, cs, err := fig4Traced(ctx, tr, i, fig4Base(e.seed, i))
			if err != nil {
				return err
			}
			traced[i] = h
			for _, c := range cs {
				allEvents += c.Events
			}
			if i < fig4Counted {
				counted = append(counted, cs...)
			}
			return nil
		})
	})
	if err != nil {
		return err
	}
	checkHashes("traced-equals-untraced", e, hashes, traced)
	ix := indexSpans(tr.closed())
	reportWorlds(e, ix, counted, allEvents)
	reportCPU(e, shares)
	var repSum, jobSum time.Duration
	for _, d := range ix.durations("exp.rep") {
		repSum += d
	}
	for _, d := range ix.durations("job") {
		jobSum += d
	}
	e.rep.set("exp.parallel_efficiency", repSum.Seconds()/(fig4Workers*jobSum.Seconds()), "ratio",
		"replication time ÷ (workers × job time)")
	e.rep.set("perfbench.trace_overhead", relMedian(tw.lat, tw.refs)/relMedian(w.lat, w.refs)-1, "ratio", "traced ÷ untraced job_rel_p50 − 1")
	return tr.write(spanPath(e, "fig4-ecdsa"))
}
