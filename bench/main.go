// Command bench is the repository's benchmark: four named workloads, ten
// end-to-end metrics measured with tracing off, and a traced pass that
// reports every layer's own numbers. It measures from outside, by timing
// calls into the library's exported functions and by driving the real
// swserver and swrank binaries. bench/README.md holds the tables.
//
// Run it through bench/run.sh, which builds the three binaries first:
//
//	bash bench/run.sh -workload solve_l6 -seed 3 -seconds 24 -trace 0
//	bash bench/run.sh -seed 1 -runs 10 -out bench/out/a.jsonl   # every workload
//	bash bench/run.sh -compare bench/out/a.jsonl bench/out/b.jsonl
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// record is one run of one workload as written to an -out file.
type record struct {
	Provenance provenance `json:"provenance"`
	Workload   string     `json:"workload"`
	Seed       int64      `json:"seed"`
	Seconds    float64    `json:"seconds"`
	Trace      bool       `json:"trace"`
	Correct    bool       `json:"correct"`
	Attempted  int        `json:"attempted"`
	Failed     int        `json:"failed"`
	Failures   []string   `json:"failures,omitempty"`
	// Dilation is the run's memory dilation (calibrate.go): what the timed
	// end-to-end values were divided by.
	Dilation float64           `json:"dilation"`
	Metrics  map[string]metric `json:"metrics"`
}

// env is the state of one run.
type env struct {
	ctx     context.Context
	rec     *recorder
	sched   schedule
	cal     *calibrator
	seed    int64
	ncpu    int
	binDir  string // holds swserver and swrank
	workDir string // scratch: spools, checkpoints, bench-out files
	logf    func(format string, args ...any)
	// probeTime is the budget of one repeated layer probe.
	probeTime time.Duration
	sizes

	mu        sync.Mutex // guards the counts below: the serve clients share them
	attempted int
	failed    int
	failures  []string
}

// did counts n attempted operations.
func (e *env) did(n int) {
	e.mu.Lock()
	e.attempted += n
	e.mu.Unlock()
}

// fail counts n operations as failed and keeps the reason.
func (e *env) fail(n int, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	e.mu.Lock()
	e.failed += n
	e.failures = append(e.failures, msg)
	e.mu.Unlock()
	e.logf("FAILED CHECK: %s", msg)
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	runs     int
	out      string
	binDir   string
	workDir  string
	traceDir string
	sizes
}

// sizes are the fixed problem sizes of a run; only the tests lower them.
type sizes struct {
	serveLevel int   // the mesh of every served job
	bigLevel   int   // the mesh of the traced pass's Table III probe
	probeMax   int64 // the cap on a roofline array, in bytes
}

// schedule is everything a run draws from its seed, drawn up front so that
// timing cannot change what a seed means.
type schedule struct {
	// modeOrder is, per round, the order in which the solve section runs
	// the modes' blocks (indices into solveModes).
	modeOrder [][]int
	// variantOrder is the order of the traced pass's three swrank variants.
	variantOrder []int
}

func newSchedule(seed int64) schedule {
	rng := rand.New(rand.NewSource(seed))
	var s schedule
	for r := 0; r < rounds; r++ {
		s.modeOrder = append(s.modeOrder, rng.Perm(len(solveModes)))
	}
	s.variantOrder = rng.Perm(distVariants)
	return s
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run this workload only and end with the one-line JSON result (default: all four)")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: shuffles mode and launch order and names the jobs")
	flag.Float64Var(&o.seconds, "seconds", 24, "measuring time of one run, split over its three sections")
	flag.IntVar(&o.trace, "trace", 0, "1 = traced pass: record spans and report the per-layer metrics")
	flag.IntVar(&o.runs, "runs", 1, "repeat with seeds seed, seed+1, ...")
	flag.StringVar(&o.out, "out", "", "append one JSON record per run to this file")
	flag.StringVar(&o.binDir, "bin", "", "directory holding swserver and swrank (default: beside this binary)")
	flag.StringVar(&o.workDir, "work", "", "scratch directory (default: a temporary one under -bin)")
	flag.StringVar(&o.traceDir, "trace-dir", "bench/out", "where the traced pass writes its Chrome traces")
	compare := flag.Bool("compare", false, "compare two -out files: bench -compare A.jsonl B.jsonl")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(errors.New("-compare wants two result files"))
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if o.trace != 0 && o.trace != 1 {
		fatal(fmt.Errorf("-trace wants 0 or 1, not %d", o.trace))
	}
	if o.seconds <= 0 {
		fatal(fmt.Errorf("-seconds must be positive, not %v", o.seconds))
	}
	o.sizes = sizes{serveLevel: serveLevel, bigLevel: bigLevel, probeMax: probeMaxBytes}
	if err := run(o); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

func run(o options) error {
	if o.binDir == "" {
		exe, err := os.Executable()
		if err != nil {
			return err
		}
		o.binDir = filepath.Dir(exe)
	}
	for _, b := range []string{"swserver", "swrank"} {
		if _, err := os.Stat(filepath.Join(o.binDir, b)); err != nil {
			return fmt.Errorf("%s not found in %s (run through bench/run.sh, which builds it): %w", b, o.binDir, err)
		}
	}
	if o.workDir == "" {
		o.workDir = filepath.Join(o.binDir, "work")
	}
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		return err
	}
	// Children are stopped through this context when the run is interrupted.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	todo := workloads
	if o.workload != "" {
		w, err := workloadByName(o.workload)
		if err != nil {
			return err
		}
		todo = []workload{w}
	}
	prov := readProvenance()
	allCorrect := true
	var last *record
	for r := 0; r < o.runs; r++ {
		for _, w := range todo {
			rec, err := runWorkload(ctx, o, w, o.seed+int64(r))
			if err != nil {
				return fmt.Errorf("%s: %w", w.Name, err)
			}
			rec.Provenance = prov
			printRecord(rec)
			if o.out != "" {
				if err := appendRecord(o.out, rec); err != nil {
					return err
				}
			}
			allCorrect = allCorrect && rec.Correct
			last = rec
		}
	}
	if o.workload != "" {
		// The driver contract: the last line of stdout is this object.
		line, err := json.Marshal(contractLine(last))
		if err != nil {
			return err
		}
		fmt.Println(string(line))
	}
	if !allCorrect {
		return errors.New("an output check failed")
	}
	return nil
}

// rounds is how many times a run visits each section: every timing is taken
// in this many pieces spread over the whole run, so that a disturbance of a
// few seconds touches a part of every metric's sample, not all of one's.
const rounds = 4

// runWorkload makes one run: set up the three front ends (solve first, so
// mem_live_mb sees a heap nothing else has touched), visit them round-robin,
// then - in the traced pass - run the layer probes.
func runWorkload(ctx context.Context, o options, w workload, seed int64) (*record, error) {
	work, err := os.MkdirTemp(o.workDir, w.Name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	e := &env{
		ctx:       ctx,
		rec:       newRecorder(o.trace == 1),
		sched:     newSchedule(seed),
		seed:      seed,
		ncpu:      runtime.NumCPU(),
		binDir:    o.binDir,
		workDir:   work,
		probeTime: time.Duration(o.seconds * layerProbeShare * float64(time.Second)),
		sizes:     o.sizes,
		logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "[%s seed %d] %s\n", w.Name, seed, fmt.Sprintf(format, args...))
		},
	}
	// The traced pass gives two thirds of its measuring time to the layer
	// probes.
	seconds := o.seconds
	if o.trace == 1 {
		seconds /= 3
	}
	slice := func(section string) time.Duration {
		return time.Duration(seconds * w.share(section) / rounds * float64(time.Second))
	}

	root := e.rec.root(w.Name)
	setup := root.child("setup")
	solve, err := e.newSolve(setup, w.SolveLevel)
	if err != nil {
		return nil, err
	}
	defer solve.close()
	e.cal = newCalibrator(e.ncpu) // after mem_live_mb was read: its arrays are the bench's, not the model's
	srv, err := e.newServe(setup, e.serveLevel)
	if err != nil {
		return nil, err
	}
	defer srv.close()
	dst, err := e.newDist(setup, w.DistLevel, w.DistSteps)
	if err != nil {
		return nil, err
	}
	setup.end()
	for r := 0; r < rounds; r++ {
		h := root.child("round")
		solve.round(h, r, slice("solve"))
		srv.round(h, r, slice("serve"))
		dst.round(h, slice("dist"))
		h.end()
	}
	solve.finish()
	sr, err := srv.finish()
	if err != nil {
		return nil, err
	}
	ds, err := dst.finish()
	if err != nil {
		return nil, err
	}

	rec := &record{Workload: w.Name, Seed: seed, Seconds: o.seconds, Trace: o.trace == 1,
		Dilation: median(e.cal.seen)}
	e.logf("memory dilation %.3f, quartiles %.3f..%.3f of %d samples (1 = the quiet reference box)",
		rec.Dilation, percentile(e.cal.seen, 25), percentile(e.cal.seen, 75), len(e.cal.seen))
	if o.trace == 0 {
		root.end()
		rec.Metrics = endToEndMetrics(solve, sr, ds, rec.Dilation)
	} else {
		ly, err := e.layers(root, w, solve, sr, ds)
		if err != nil {
			return nil, err
		}
		root.end()
		rec.Metrics = ly
		if err := e.writeTrace(o.traceDir, w.Name); err != nil {
			return nil, err
		}
	}
	rec.Attempted, rec.Failed, rec.Failures = e.attempted, e.failed, e.failures
	rec.Correct = e.failed == 0
	return rec, nil
}

// endToEndMetrics assembles the ten metrics of the untraced pass: the median
// or the 90th percentile of every sample the run took, the timed ones but
// setup_s at reference memory latency (calibrate.go).
func endToEndMetrics(sv *solveSection, sr *serveOut, ds *distOut, dilation float64) map[string]metric {
	m := map[string]metric{
		// One run sets up all three front ends; each contributes the median
		// of its own set-up samples.
		"setup_s": withN(scalar(median(sv.setupS)+median(sr.setupS)+median(ds.setupS), "s"),
			len(sv.setupS)+len(sr.setupS)+len(ds.setupS)),
		"mem_live_mb": scalar(sv.memLiveMB, "MB"),
		"job_ms_p50":  atReference(fromSamples(sr.jobMS, "ms"), dilation),
		// Quoted whatever the sample; n says whether ten jobs lie beyond it.
		"job_ms_p90": atReference(withN(scalar(percentile(sr.jobMS, 90), "ms"), len(sr.jobMS)), dilation),
		// The median burst, so that one stall of the box does not set the
		// rate; throughput falls as latency rises: the inverse correction.
		"jobs_per_s":   atReference(fromSamples(sr.perS, "1/s"), 1/dilation),
		"dist_step_ms": atReference(fromSamples(ds.stepMS, "ms"), dilation),
		"solve_s":      atReference(fromSamples(ds.wallS, "s"), dilation),
	}
	for _, sm := range solveModes {
		m[sm.name+"_step_ms"] = atReference(fromSamples(sv.stepMS[sm.name], "ms"), dilation)
	}
	return m
}

func withN(m metric, n int) metric {
	m.N = n
	return m
}

// contractLine is the result object the driver reads: exactly these keys, and
// per metric exactly value and unit.
func contractLine(r *record) map[string]any {
	ms := map[string]any{}
	for name, m := range r.Metrics {
		ms[name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	return map[string]any{"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": ms}
}

// printRecord prints every metric by name with unit, median, the highest
// percentile the sample supports, and the sample count.
func printRecord(r *record) {
	pass := "end-to-end"
	if r.Trace {
		pass = "per-layer (traced)"
	}
	fmt.Printf("== %s  seed %d  %s  ops %d  failed %d\n", r.Workload, r.Seed, pass, r.Attempted, r.Failed)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		hi, raw := "", ""
		if m.N > 1 && m.HiPct > 50 {
			hi = fmt.Sprintf("p%-4g %12.6g", m.HiPct, m.Hi)
		}
		if m.Raw != 0 {
			raw = fmt.Sprintf("  raw %.6g", m.Raw)
		}
		fmt.Printf("  %-40s %14.6g %-6s %18s  n=%d%s\n", n, m.Value, m.Unit, hi, m.N, raw)
	}
	for _, f := range r.Failures {
		fmt.Printf("  FAILED: %s\n", f)
	}
}

// printSelfTimes lists where the traced run's time went: self seconds per
// span name, largest first, as a share of the root span.
func printSelfTimes(spans []span) {
	by := selfByName(spans)
	names := make([]string, 0, len(by))
	for n := range by {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return by[names[i]] > by[names[j]] })
	rootS := (spans[0].End - spans[0].Start).Seconds()
	fmt.Printf("  self time by span (root %.2f s; client lanes run beside it):\n", rootS)
	for _, n := range names[:min(len(names), 15)] {
		fmt.Printf("    %-32s %9.3f s %5.1f%%\n", n, by[n], by[n]/rootS*100)
	}
}

func appendRecord(path string, r *record) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeTrace checks the span accounting and writes the workload's Chrome
// trace.
func (e *env) writeTrace(dir, name string) error {
	if gap, err := checkSelfTimes(e.rec.spans, 0.02); err != nil {
		e.fail(1, "trace: %v", err)
	} else {
		e.logf("trace: %d spans, self times sum to their lane roots within %.3f%%", len(e.rec.spans), gap*100)
	}
	printSelfTimes(e.rec.spans)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "trace-"+name+".json"))
	if err != nil {
		return err
	}
	if err := e.rec.writeChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
