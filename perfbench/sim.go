package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"

	"blackdp/internal/metrics"
	"blackdp/internal/scenario"
)

// worldCounters are one replication's exact layer counters, read from the
// layers' public Stats() after the run.
type worldCounters struct {
	Events           uint64 // sim: scheduler events executed
	FramesSent       uint64 // radio: transmissions
	CopiesOffered    uint64 // radio: per-receiver copies offered
	CopiesDelivered  uint64 // radio: per-receiver copies delivered
	BackboneMsgs     uint64 // radio: wired backbone messages
	Beacons          uint64 // aodv: hello beacons
	RREQ             uint64 // aodv: route requests originated or forwarded
	RREP             uint64 // aodv: route replies originated or forwarded
	Examinations     uint64 // core: cluster-head examinations
	Probes           uint64 // core: bait probes sent
	Renewals         uint64 // pki: pseudonym renewals applied
	DetectionPackets int    // core: the outcome's detection packet count
	FalseAccusations int    // core: honest vehicles convicted
}

func countWorld(w *scenario.World, o metrics.Outcome) worldCounters {
	air, wired := w.Env.Medium.Stats(), w.Env.Backbone.Stats()
	c := worldCounters{
		Events:           w.Sched.Executed(),
		FramesSent:       air.SentFrames.Frames,
		CopiesOffered:    air.OfferedFrames.Frames,
		CopiesDelivered:  air.DeliveredFrames.Frames,
		BackboneMsgs:     wired.SentFrames.Frames,
		DetectionPackets: o.DetectionPackets,
		FalseAccusations: o.FalseAccusations,
	}
	for _, v := range w.Vehicles {
		rs, vs := v.Router().Stats(), v.Stats()
		c.Beacons += rs.BeaconsSent
		c.RREQ += rs.RREQOriginated + rs.RREQForwarded
		c.RREP += rs.RREPOriginated + rs.RREPForwarded
		c.Probes += vs.ProbesSent
		c.Renewals += vs.RenewalsApplied
	}
	for _, h := range w.Heads {
		rs := h.Router().Stats()
		c.Beacons += rs.BeaconsSent
		c.RREQ += rs.RREQOriginated + rs.RREQForwarded
		c.RREP += rs.RREPOriginated + rs.RREPForwarded
		c.Examinations += h.Stats().Examinations
	}
	return c
}

// checkWorld audits a traced replication: the packet ledgers must balance,
// and the counters read from the layers must equal the ones the untraced
// entry point reports in its outcome.
func checkWorld(w *scenario.World, c worldCounters, o metrics.Outcome) error {
	if err := w.CheckConservation(); err != nil {
		return err
	}
	if c.FramesSent != o.AirFrames || c.CopiesOffered != o.AirOffered || c.CopiesDelivered != o.AirDelivered {
		return fmt.Errorf("radio counters %d/%d/%d differ from outcome %d/%d/%d",
			c.FramesSent, c.CopiesOffered, c.CopiesDelivered, o.AirFrames, o.AirOffered, o.AirDelivered)
	}
	return nil
}

// tracedRep builds and runs one replication under spans "scenario.build"
// and "sim.run", children of parent.
func tracedRep(ctx context.Context, tr *tracer, parent uint64, job int, cfg scenario.Config) (metrics.Outcome, worldCounters, error) {
	id := tr.begin("scenario.build", parent, job)
	w, err := scenario.Build(cfg)
	tr.end(id)
	if err != nil {
		return metrics.Outcome{}, worldCounters{}, err
	}
	id = tr.begin("sim.run", parent, job)
	o, err := w.RunContext(ctx)
	tr.end(id)
	if err != nil {
		return metrics.Outcome{}, worldCounters{}, err
	}
	c := countWorld(w, o)
	return o, c, checkWorld(w, c, o)
}

// serialRecord is what serialWindow measured.
type serialRecord struct {
	lat  []time.Duration // latencies of the jobs that succeeded
	refs []time.Duration // reference times, one before each job
}

// serialWindow runs job(0), job(1), ... back to back until the window has
// closed and at least minJobs have been attempted. Before each job it
// times the reference kernel, outside the job's latency.
func serialWindow(ctx context.Context, e *env, window time.Duration, minJobs int, job func(ctx context.Context, i int) error) serialRecord {
	var rec serialRecord
	start := time.Now()
	for i := 0; time.Since(start) < window || i < minJobs; i++ {
		rec.refs = append(rec.refs, timeRef())
		t0 := time.Now()
		err := job(ctx, i)
		d := time.Since(t0)
		e.rep.ops(1, 0)
		if err != nil {
			e.rep.check(fmt.Sprintf("job-%d", i), err, "")
			continue
		}
		rec.lat = append(rec.lat, d)
	}
	return rec
}

// checkHashes compares the hashes two phases computed for the same jobs.
func checkHashes(name string, e *env, want, got map[int]string) {
	n := 0
	for i, h := range got {
		if w, ok := want[i]; ok {
			if w != h {
				e.rep.check(name, fmt.Errorf("job %d: hash %s, want %s", i, h[:12], w[:12]), "")
				return
			}
			n++
		}
	}
	if n == 0 {
		e.rep.check(name, fmt.Errorf("no job ran in both phases"), "")
		return
	}
	e.rep.check(name, nil, fmt.Sprintf("%d jobs identical", n))
}

// pinJobs is how many leading jobs of a run are pinned.
const pinJobs = 4

// checkPins compares the default seed's job hashes with pins.json. The
// hashes of the first pinJobs jobs (and of any negative-index job) are
// printed on every run, so a seed-1 run's lines regenerate the pins after
// an intended output change.
func checkPins(e *env, workload string, got map[int]string) {
	for i, h := range got {
		if i < pinJobs {
			e.rep.hash(i, h)
		}
	}
	if e.seed != defaultSeed {
		e.rep.check("pinned-hashes", nil, fmt.Sprintf("skipped: pins exist for seed %d only", defaultSeed))
		return
	}
	want, err := loadPins(workload)
	if err != nil {
		e.rep.check("pinned-hashes", err, "")
		return
	}
	checkHashes("pinned-hashes", e, want, got)
}

// profiled runs fn under the CPU profiler and returns each layer's share
// of the samples. The profile is also written to the output directory.
func profiled(e *env, name string, fn func()) (map[string]float64, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, err
	}
	fn()
	pprof.StopCPUProfile()
	if err := os.WriteFile(filepath.Join(e.out, name+".cpu.pprof"), buf.Bytes(), 0o644); err != nil {
		return nil, err
	}
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		return nil, err
	}
	return attribute(p)
}

// cpuModules are the layers the CPU profile is split into.
var cpuModules = []string{"sim", "radio", "aodv", "core", "pki", "wire", "mobility", "cluster",
	"scenario", "serve", "dist", "exp", "attack", "metrics", "runtime", "other"}

func reportCPU(e *env, shares map[string]float64) {
	rest := 1.0
	for _, m := range cpuModules {
		e.rep.set("cpu_share."+m, shares[m], "ratio", "")
		rest -= shares[m]
	}
	if rest > 1e-9 {
		e.rep.set("cpu_share.unlisted", rest, "ratio", "")
	}
}

// reportGC records allocation and GC cycles per replication between two
// gcCounters readings.
func reportGC(e *env, a0, c0, a1, c1 uint64, reps int) {
	if reps == 0 {
		return
	}
	e.rep.set("gc.alloc_mb_per_rep", float64(a1-a0)/(1<<20)/float64(reps), "MB", "untraced phase")
	e.rep.set("gc.cycles_per_rep", float64(c1-c0)/float64(reps), "count", "untraced phase")
}

// reportWorlds records the per-replication layer counters and the span
// timings shared by the simulation workloads. cs are the counters of the
// first replications, a fixed set every traced run of the seed completes,
// so the counts repeat exactly; allEvents is the event total over every
// traced replication, the base of the time per event.
func reportWorlds(e *env, ix spanIndex, cs []worldCounters, allEvents uint64) {
	build, runT := ix.durations("scenario.build"), ix.durations("sim.run")
	var buildSum, runSum time.Duration
	for _, d := range build {
		buildSum += d
	}
	for _, d := range runT {
		runSum += d
	}
	n := fmt.Sprintf("n=%d", len(build))
	e.rep.set("scenario.build_ms_p50", median(millis(build)), "ms", n)
	e.rep.set("scenario.build_share", buildSum.Seconds()/(buildSum+runSum).Seconds(), "ratio", "build ÷ (build + run)")
	e.rep.set("sim.run_ms_p50", median(millis(runT)), "ms", n)

	var sum worldCounters
	for _, c := range cs {
		sum.Events += c.Events
		sum.FramesSent += c.FramesSent
		sum.CopiesOffered += c.CopiesOffered
		sum.CopiesDelivered += c.CopiesDelivered
		sum.BackboneMsgs += c.BackboneMsgs
		sum.Beacons += c.Beacons
		sum.RREQ += c.RREQ
		sum.RREP += c.RREP
		sum.Examinations += c.Examinations
		sum.Probes += c.Probes
		sum.Renewals += c.Renewals
		sum.DetectionPackets += c.DetectionPackets
		sum.FalseAccusations += c.FalseAccusations
	}
	reps := float64(len(cs))
	note := fmt.Sprintf("exact, first %d replications", len(cs))
	per := func(name string, v uint64) { e.rep.set(name, float64(v)/reps, "count", note) }
	per("sim.events_per_rep", sum.Events)
	e.rep.set("sim.ns_per_event", float64(runSum.Nanoseconds())/float64(allEvents), "ns", "sim.run time ÷ events, all traced replications")
	per("radio.frames_sent_per_rep", sum.FramesSent)
	per("radio.copies_offered_per_rep", sum.CopiesOffered)
	per("radio.copies_delivered_per_rep", sum.CopiesDelivered)
	e.rep.set("radio.delivered_ratio", float64(sum.CopiesDelivered)/float64(sum.CopiesOffered), "ratio", note)
	per("radio.backbone_msgs_per_rep", sum.BackboneMsgs)
	per("aodv.beacons_per_rep", sum.Beacons)
	per("aodv.rreq_per_rep", sum.RREQ)
	per("aodv.rrep_per_rep", sum.RREP)
	per("core.examinations_per_rep", sum.Examinations)
	per("core.probes_per_rep", sum.Probes)
	e.rep.set("core.detection_packets_mean", float64(sum.DetectionPackets)/reps, "count", note)
	e.rep.set("core.false_accusations", float64(sum.FalseAccusations), "count", note)
	per("pki.renewals_per_rep", sum.Renewals)
}
