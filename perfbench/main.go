// Command perfbench is the repository's benchmark. It drives BlackDP's
// public entry points from outside — blackdp.Fig4 and blackdp.Run for the
// simulation workloads, and an in-process blackdp-serve with a two-worker
// dist fleet for the service workload — measures them for a fixed window,
// checks that every output is correct, and prints every metric by name
// with its unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 118, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics BENCHMARK.json
// declares; with -trace 1 the run is the traced run, and the metrics are
// the per-layer ones (spans around every call into a layer, exact layer
// counters, and a CPU profile split by package). Run it from the root of
// the repository:
//
//	bash perfbench/run.sh --workload fig4-ecdsa --seed 1 --seconds 30 --trace 0
//
// See perfbench/README.md for the workloads and the metrics.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"
)

// processStart is taken as the program starts; the first set-up is timed
// from here.
var processStart = time.Now()

// maxProcs caps compute concurrency: every workload is sized for two cores,
// so results from larger hosts stay comparable.
const maxProcs = 2

// setupReps is how many times a run sets its workload up from scratch;
// setup_s is the median.
const setupReps = 5

// warmupSeed is the workload seed of the set-ups' warm-up jobs, whatever
// the run's seed, so that every run's set-up does the same work. Their
// negative job indexes are never timed.
const warmupSeed = 0

// defaultSeed is the workload seed whose outputs are pinned in pins.json.
const defaultSeed = 1

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// benchSpec is the part of BENCHMARK.json the benchmark reads: the declared
// metrics, so the program and the declaration cannot drift apart.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	for _, m := range append(slices.Clone(s.EndToEnd), s.PerLayer...) {
		if err := checkName(m.Name); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if err := checkUnit(m.Unit); err != nil {
			return nil, fmt.Errorf("%s: metric %s: %w", path, m.Name, err)
		}
	}
	return &s, nil
}

// env is what a workload run receives.
type env struct {
	seed   int64
	window time.Duration // the timed window (split in two by a traced run)
	traced bool
	out    string // directory for span files and profiles
	rep    *report
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(context.Context, *env) error{
	"fig4-ecdsa":  runFig4,
	"metro-grid":  runMetro,
	"serve-fleet": runFleet,
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: fig4-ecdsa, metro-grid or serve-fleet")
	seed := fs.Int64("seed", defaultSeed, "workload seed; every job's inputs derive from it and the job index")
	seconds := fs.Int("seconds", 30, "length of the timed window in seconds")
	traceMode := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run reporting per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "results"), "directory for result, span and profile files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	drive, ok := workloads[*workload]
	switch {
	case !ok:
		return fail(fmt.Errorf("unknown workload %q", *workload))
	case *seconds < 1:
		return fail(fmt.Errorf("-seconds %d: want at least 1", *seconds))
	case *traceMode != 0 && *traceMode != 1:
		return fail(fmt.Errorf("-trace %d: want 0 or 1", *traceMode))
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return fail(fmt.Errorf("run from the repository root: %w", err))
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return fail(err)
	}
	runtime.GOMAXPROCS(min(maxProcs, runtime.NumCPU()))

	e := &env{
		seed:   *seed,
		window: time.Duration(*seconds) * time.Second,
		traced: *traceMode == 1,
		out:    *out,
		rep:    newReport(),
	}
	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d seconds=%d trace=%d\n", *workload, *seed, *seconds, *traceMode)
	h := stampHost()
	fmt.Fprintf(stdout, "host nproc=%d gomaxprocs=%d cpu=%q go=%s commit=%s source=%s\n",
		h.NumCPU, h.GOMAXPROCS, h.CPUModel, h.GoVersion, h.Commit, h.Source)

	if err := drive(context.Background(), e); err != nil {
		return fail(fmt.Errorf("%s: %w", *workload, err))
	}
	declared := spec.EndToEnd
	if e.traced {
		declared = spec.PerLayer
	}
	res, err := e.rep.finish(declared, e.traced)
	if err != nil {
		return fail(err)
	}
	e.rep.print(stdout)
	name := fmt.Sprintf("%s-seed%d-trace%d.json", *workload, *seed, *traceMode)
	if err := writeRecord(filepath.Join(*out, name), *workload, *seed, *seconds, *traceMode, h, e.rep, res); err != nil {
		return fail(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// report collects a run's measurements and checks.
type report struct {
	mu        sync.Mutex
	attempted int
	failed    int
	values    map[string]measured // metrics the run measured, by name
	checks    []checkLine
	hashes    map[int]string // outcome hashes of the pinned job indexes
	samples   map[string][]float64
	correct   bool
}

type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Note  string  `json:"note,omitempty"`
	order int
}

type checkLine struct {
	Name string `json:"name"`
	OK   bool   `json:"ok"`
	Info string `json:"info"`
}

func newReport() *report {
	return &report{values: map[string]measured{}, hashes: map[int]string{}, samples: map[string][]float64{}, correct: true}
}

// hash records the outcome hash of job i.
func (r *report) hash(i int, h string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.hashes[i] = h
}

// set records a metric. Declared metrics go into the result line; the
// others are printed with it and kept in the result file.
func (r *report) set(name string, value float64, unit, note string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.values[name] = measured{Value: value, Unit: unit, Note: note, order: len(r.values)}
}

// ops counts operations attempted and failed (errored, refused or wrong
// output).
func (r *report) ops(attempted, failed int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted += attempted
	r.failed += failed
}

// check records an output check. A failed check marks the run incorrect
// and counts one failed operation: the job whose output was wrong.
func (r *report) check(name string, err error, info string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := checkLine{Name: name, OK: err == nil, Info: info}
	if err != nil {
		c.Info = err.Error()
		r.correct = false
		r.failed++
	}
	r.checks = append(r.checks, c)
}

// result is the final line of standard output.
type result struct {
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]resValue `json:"metrics"`
}

type resValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// finish builds the result line from the declared metrics. An end-to-end
// metric the run did not measure is an error. A per-layer metric of a layer
// the workload does not exercise reads 0 and is marked so.
func (r *report) finish(declared []specMetric, perLayer bool) (result, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	// A wrong job can fail more than one check; it is still one failed job.
	res := result{Correct: r.correct && r.failed == 0, Attempted: r.attempted, Failed: min(r.failed, r.attempted),
		Metrics: map[string]resValue{}}
	if r.attempted < 1 {
		return res, errors.New("no operation was attempted")
	}
	r.values["fail_ratio"] = measured{Value: float64(res.Failed) / float64(r.attempted), Unit: "ratio",
		Note: fmt.Sprintf("%d of %d", res.Failed, r.attempted), order: len(r.values)}
	for _, m := range declared {
		v, ok := r.values[m.Name]
		if !ok {
			if !perLayer {
				return res, fmt.Errorf("end-to-end metric %s was not measured", m.Name)
			}
			v = measured{Unit: m.Unit, Note: "layer not exercised or not observable on this workload", order: len(r.values)}
			r.values[m.Name] = v
		}
		if v.Unit != m.Unit {
			return res, fmt.Errorf("metric %s measured in %s, declared in %s", m.Name, v.Unit, m.Unit)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return res, fmt.Errorf("metric %s is %v", m.Name, v.Value)
		}
		res.Metrics[m.Name] = resValue{Value: v.Value, Unit: v.Unit}
	}
	return res, nil
}

// print writes one line per metric and per check.
func (r *report) print(w io.Writer) {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.values))
	for n := range r.values {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return r.values[names[i]].order < r.values[names[j]].order })
	for _, n := range names {
		v := r.values[n]
		note := ""
		if v.Note != "" {
			note = "  (" + v.Note + ")"
		}
		fmt.Fprintf(w, "metric %s = %.6g %s%s\n", n, v.Value, v.Unit, note)
	}
	jobs := make([]int, 0, len(r.hashes))
	for i := range r.hashes {
		jobs = append(jobs, i)
	}
	slices.Sort(jobs)
	for _, i := range jobs {
		fmt.Fprintf(w, "hash job %d = %s\n", i, r.hashes[i])
	}
	for _, c := range r.checks {
		status := "ok"
		if !c.OK {
			status = "FAILED"
		}
		fmt.Fprintf(w, "check %s: %s  %s\n", c.Name, status, c.Info)
	}
}

// writeRecord stores the full result — host stamp, every metric and every
// check — next to the span and profile files.
func writeRecord(path, workload string, seed int64, seconds, traceMode int, h host, r *report, res result) error {
	r.mu.Lock()
	rec := struct {
		Workload string               `json:"workload"`
		Seed     int64                `json:"seed"`
		Seconds  int                  `json:"seconds"`
		Trace    int                  `json:"trace"`
		Host     host                 `json:"host"`
		Time     string               `json:"time"`
		Result   result               `json:"result"`
		All      map[string]measured  `json:"all_metrics"`
		Checks   []checkLine          `json:"checks"`
		Samples  map[string][]float64 `json:"samples_ms"`
	}{workload, seed, seconds, traceMode, h, time.Now().UTC().Format(time.RFC3339), res, r.values, r.checks, r.samples}
	b, err := json.MarshalIndent(rec, "", "  ")
	r.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// jobSeed derives job i's simulation seed from the workload seed with a
// splitmix64 step. Seeds stay positive and below 2^40, so a sweep's
// per-replication offsets cannot overflow. Negative i (set-up and
// pre-warm jobs) gives seeds no timed job uses.
func jobSeed(workloadSeed int64, i int) int64 {
	z := uint64(workloadSeed)*0x9E3779B97F4A7C15 + uint64(int64(i)+1)*0xD1B54A32D192ED03
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z>>24) + 1
}

// hashJSON is the outcome hash of a job: the hex SHA-256 of its result's
// JSON encoding.
func hashJSON(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	return hashBytes(b), nil
}

func hashBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// measureSetup sets the workload up setupReps times (setupReps = 1 in a
// traced run) and keeps the last instance; the earlier ones are torn down.
// It records setup_s as the median set-up time and the first set-up's time
// from process start.
func measureSetup[T any](e *env, setup func(rep int) (T, error), teardown func(T)) (T, error) {
	reps := setupReps
	if e.traced {
		reps = 1
	}
	var (
		inst  T
		times []float64
	)
	for i := 0; i < reps; i++ {
		start := time.Now()
		if i == 0 {
			start = processStart
		}
		var err error
		if inst, err = setup(i); err != nil {
			return inst, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
		if i < reps-1 {
			teardown(inst)
		}
	}
	e.rep.set("setup_s", median(times), "s", fmt.Sprintf("median of %d set-ups, first from process start %.3fs", reps, times[0]))
	return inst, nil
}

// windowStats reports a run's job latencies: the median, plus the highest
// tail percentile that has at least ten samples beyond it.
func windowStats(e *env, prefix string, lat []time.Duration) {
	ms := millis(lat)
	n := fmt.Sprintf("n=%d", len(ms))
	if len(ms) == 0 {
		return
	}
	e.rep.mu.Lock()
	e.rep.samples[prefix] = ms
	e.rep.mu.Unlock()
	e.rep.set(prefix+"_p50", median(ms), "ms", n)
	if p, ok := tailPercentile(len(ms)); ok {
		e.rep.set(fmt.Sprintf("%s_p%s", prefix, strings.ReplaceAll(fmt.Sprint(p), ".", "")), percentile(ms, p), "ms", n)
	}
}

// phases splits a traced run's window: the first half runs untraced, the
// second traced, on the same job seeds.
func (e *env) phases() (untraced, traced time.Duration) {
	if !e.traced {
		return e.window, 0
	}
	return e.window / 2, e.window - e.window/2
}

func secondsOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// spanPath is where a traced run writes its spans (JSON lines).
func spanPath(e *env, workload string) string {
	return filepath.Join(e.out, fmt.Sprintf("%s-seed%d.spans.jsonl", workload, e.seed))
}
