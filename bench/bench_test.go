package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q3 = quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles of [1 2] = %v, %v; Python gives 0.75, 2.25", q1, q3)
	}
	// statistics.quantiles([3, 1, 4, 1, 5, 9, 2], n=4) == [1.0, 3.0, 5.0]
	if q1, q3 = quartiles([]float64{3, 1, 4, 1, 5, 9, 2}); q1 != 1 || q3 != 5 {
		t.Errorf("quartiles = %v, %v; Python gives 1, 5", q1, q3)
	}
	if s := spread([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}); s != 1 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", s)
	}
}

func TestPercentileSelection(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := percentile(xs, 90); math.Abs(got-4.6) > 1e-12 {
		t.Errorf("p90 = %v, want 4.6", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
	// The highest percentile quoted must leave ten samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
	}{{1, 50}, {19, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95}, {1000, 99}, {10000, 99.9}} {
		if got := highPercentile(c.n); got != c.want {
			t.Errorf("highPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	m := fromSamples(make([]float64, 160), "ms")
	if m.N != 160 || m.HiPct != 90 {
		t.Errorf("160 samples summarise as %+v, want n=160 and p90", m)
	}
}

func TestSpanSelfTime(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Name: "root", Lane: 0, Parent: -1, Start: 0, End: 100 * ms},
		{Name: "a", Lane: 0, Parent: 0, Start: 10 * ms, End: 40 * ms},
		{Name: "a.inner", Lane: 0, Parent: 1, Start: 15 * ms, End: 25 * ms},
		{Name: "b", Lane: 0, Parent: 0, Start: 50 * ms, End: 90 * ms},
		// A client goroutine: its own lane, so it takes nothing off "b".
		{Name: "job", Lane: 1, Parent: 3, Start: 55 * ms, End: 85 * ms},
		{Name: "job.run", Lane: 1, Parent: 4, Start: 60 * ms, End: 80 * ms},
	}
	want := []time.Duration{30 * ms, 20 * ms, 10 * ms, 40 * ms, 10 * ms, 20 * ms}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
	if gap, err := checkSelfTimes(spans, 0.02); err != nil || gap != 0 {
		t.Errorf("a properly nested tree must check out: gap %v, %v", gap, err)
	}
	if by := selfByName(spans); by["root"] != 0.030 || by["job.run"] != 0.020 {
		t.Errorf("self by name: %v", by)
	}

	// Overlapping children are covered once.
	overlap := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100 * ms},
		{Name: "x", Parent: 0, Start: 10 * ms, End: 60 * ms},
		{Name: "y", Parent: 0, Start: 40 * ms, End: 80 * ms},
	}
	if got := selfTimes(overlap)[0]; got != 30*ms {
		t.Errorf("root self with overlapping children = %v, want 30ms", got)
	}
	// ...which the accounting check then refuses: 30+50+40 is not 100.
	if _, err := checkSelfTimes(overlap, 0.02); err == nil {
		t.Error("overlapping siblings must fail the self-time check")
	}
	open := []span{{Name: "root", Parent: -1, Start: 0, End: -1}}
	if _, err := checkSelfTimes(open, 0.02); err == nil {
		t.Error("an unclosed span must fail the self-time check")
	}
}

func TestRecorderOffIsAStopwatch(t *testing.T) {
	r := newRecorder(false)
	h := r.root("run").child("x")
	time.Sleep(time.Millisecond)
	if d := h.end(); d < time.Millisecond {
		t.Errorf("a handle times its interval even with tracing off, got %v", d)
	}
	if len(r.spans) != 0 {
		t.Errorf("tracing off recorded %d spans", len(r.spans))
	}
	r = newRecorder(true)
	root := r.root("run")
	root.childOn("job", r.lane("client-0"), "j1").end()
	root.end()
	var buf bytes.Buffer
	if err := r.writeChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	if !strings.Contains(buf.String(), "job j1") || !strings.Contains(buf.String(), "client-0") {
		t.Errorf("trace lacks the job span or its lane: %s", buf.String())
	}
}

func TestSeedDeterminesSchedule(t *testing.T) {
	if a, b := newSchedule(7), newSchedule(7); !reflect.DeepEqual(a, b) {
		t.Errorf("seed 7 gave %v then %v", a, b)
	}
	differs := false
	for seed := int64(1); seed <= 8; seed++ {
		s := newSchedule(seed)
		if len(s.modeOrder) != rounds || len(s.variantOrder) != distVariants {
			t.Fatalf("seed %d: schedule %v has the wrong shape", seed, s)
		}
		for _, order := range s.modeOrder {
			sorted := append([]int(nil), order...)
			sort.Ints(sorted)
			if !reflect.DeepEqual(sorted, []int{0, 1, 2}) {
				t.Errorf("seed %d: %v is not a permutation of the modes", seed, order)
			}
		}
		differs = differs || !reflect.DeepEqual(s, newSchedule(1))
	}
	if !differs {
		t.Error("eight seeds all gave the same schedule")
	}
}

func TestOversubscriptionIsRefused(t *testing.T) {
	if err := guardCPUs(2, 1, 2); err != nil {
		t.Errorf("2 ranks x 1 worker on 2 cores: %v", err)
	}
	err := guardCPUs(2, 2, 2)
	if !errors.Is(err, errOversubscribed) {
		t.Errorf("2 ranks x 2 workers on 2 cores: got %v, want errOversubscribed", err)
	}
	// On a one-core box no section may record a number.
	e := &env{ncpu: 1, rec: newRecorder(false), sched: newSchedule(1), logf: t.Logf}
	if _, err := e.newDist(e.rec.root("t"), 2, 2); !errors.Is(err, errOversubscribed) {
		t.Errorf("dist on one core: got %v, want errOversubscribed", err)
	}
}

func TestHostSizing(t *testing.T) {
	root := t.TempDir()
	put := func(path, body string) {
		t.Helper()
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// Two sockets of two CPUs: each pair shares one 8 MiB L3 over private L2s.
	for cpu, shared := range []string{"0-1", "0-1", "2-3", "2-3"} {
		dir := filepath.Join(root, "cpu"+string(rune('0'+cpu)), "cache")
		put(filepath.Join(dir, "index2", "level"), "2")
		put(filepath.Join(dir, "index2", "size"), "1024K")
		put(filepath.Join(dir, "index2", "shared_cpu_list"), string(rune('0'+cpu)))
		put(filepath.Join(dir, "index3", "level"), "3")
		put(filepath.Join(dir, "index3", "size"), "8M")
		put(filepath.Join(dir, "index3", "shared_cpu_list"), shared)
	}
	if got := llcBytes(root); got != 16<<20 {
		t.Errorf("summed LLC = %d, want two 8 MiB caches", got)
	}
	if got := llcBytes(t.TempDir()); got != 0 {
		t.Errorf("an empty sysfs gave %d", got)
	}
	if got := probeArrayBytes(16<<20, 0, probeMaxBytes); got != 64<<20 {
		t.Errorf("arrays for a 16 MiB LLC = %d, want 4x", got)
	}
	if got := probeArrayBytes(512<<20, 0, probeMaxBytes); got != 1<<30 {
		t.Errorf("arrays are capped at 1 GiB, got %d", got)
	}
	if got := probeArrayBytes(512<<20, 2<<30, probeMaxBytes); got != 256<<20 {
		t.Errorf("arrays stay within an eighth of free memory, got %d", got)
	}
	p := readProvenance()
	if p.NumCPU < 1 || p.GOMAXPROCS < 1 || p.GoVersion == "" || p.CPUModel == "" || p.Commit == "" {
		t.Errorf("provenance has holes: %+v", p)
	}
}

// benchmarkJSON mirrors the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSONAgrees holds BENCHMARK.json and the program to the same
// names: every declared workload and metric is one the program emits, with
// the same unit, direction and bound, and the other way round.
func TestBenchmarkJSONAgrees(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.Paths, []string{"bench"}) || !reflect.DeepEqual(b.Command, []string{"bash", "bench/run.sh"}) {
		t.Errorf("command %v over paths %v", b.Command, b.Paths)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d", b.RunSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, the program has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := b.Workloads[i]; got.Name != w.Name || got.Why != w.Why {
			t.Errorf("workload %d: declared %+v, program has %q: %q", i, got, w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, the program has %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		if got := b.EndToEnd[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end-to-end %d: declared %+v, program has %+v", i, got, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v", d.Name, d.Bound)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics declared, the program has %d", len(b.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for i, d := range perLayer {
		if got := b.PerLayer[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per-layer %d: declared %+v, program has %+v", i, got, d)
		}
		if seen[d.Name] || len(d.Name) > 64 || len(d.Unit) > 16 {
			t.Errorf("per-layer %q: duplicate or over-long name or unit", d.Name)
		}
		seen[d.Name] = true
	}
}

func names(ds []decl) []string {
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = d.Name
	}
	sort.Strings(out)
	return out
}

func emitted(r *record) []string {
	out := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// TestSmoke drives all three sections and the layer probes at toy size
// through the real swserver and swrank binaries, and holds the emitted metric
// names to the declared ones in both passes.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and drives the swserver and swrank processes")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "repro/cmd/swserver", "repro/cmd/swrank")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building the binaries: %v\n%s", err, out)
	}
	toy := workload{Name: "toy", Main: "serve", SolveLevel: 2, DistLevel: 3, DistSteps: 5}
	for _, trace := range []int{0, 1} {
		o := options{seconds: 1.5, trace: trace, binDir: bin, workDir: t.TempDir(), traceDir: t.TempDir(),
			sizes: sizes{serveLevel: 2, bigLevel: 3, probeMax: 4 << 20}}
		rec, err := runWorkload(context.Background(), o, toy, 3)
		if err != nil {
			t.Fatalf("trace %d: %v", trace, err)
		}
		if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
			t.Errorf("trace %d: %d of %d operations failed: %v", trace, rec.Failed, rec.Attempted, rec.Failures)
		}
		want := names(endToEnd)
		if trace == 1 {
			want = names(perLayer)
		}
		if got := emitted(rec); !reflect.DeepEqual(got, want) {
			t.Errorf("trace %d: emitted %v\nwant %v", trace, got, want)
		}
		for n, m := range rec.Metrics {
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("trace %d: %s = %v", trace, n, m.Value)
			}
			if trace == 0 && m.Value <= 0 {
				t.Errorf("end-to-end %s = %v, must never be 0", n, m.Value)
			}
		}
		line, err := json.Marshal(contractLine(rec))
		if err != nil || !strings.Contains(string(line), `"correct":true`) {
			t.Errorf("contract line %s: %v", line, err)
		}
		if trace == 1 {
			if _, err := os.Stat(filepath.Join(o.traceDir, "trace-toy.json")); err != nil {
				t.Errorf("the traced pass wrote no trace: %v", err)
			}
		}
	}
}

// TestSolveSection runs the in-process section alone, which needs no child
// process, so it also runs under -short.
func TestSolveSection(t *testing.T) {
	e := &env{ncpu: 1, rec: newRecorder(true), sched: newSchedule(1), cal: newCalibrator(1), logf: t.Logf}
	root := e.rec.root("t")
	s, err := e.newSolve(root, 2)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < rounds; r++ {
		s.round(root, r, 30*time.Millisecond)
	}
	s.finish()
	root.end()
	if e.failed != 0 {
		t.Errorf("checks failed: %v", e.failures)
	}
	for _, sm := range solveModes {
		if m := fromSamples(s.stepMS[sm.name], "ms"); !(m.Value > 0) || m.N < rounds*blockSteps {
			t.Errorf("%s: summarised as %+v", sm.name, m)
		}
	}
	if len(s.setupS) != len(solveModes) || s.memLiveMB <= 0 {
		t.Errorf("setup samples %v, live heap %v MB", s.setupS, s.memLiveMB)
	}
	if _, err := checkSelfTimes(e.rec.spans, 0.02); err != nil {
		t.Error(err)
	}
}

// TestReferenceLatency: a run wholly inside a slow state, whose gather kernel
// ran a quarter slower too, reads what the quiet box would have shown, with
// the raw figure kept beside it.
func TestReferenceLatency(t *testing.T) {
	slow := fromSamples([]float64{100, 101.25, 98.75, 125}, "ms")
	if m := atReference(slow, 1.25); m.Value != 80.5 || m.Raw != 100.625 || m.N != 4 {
		t.Errorf("summarised as %+v, want 80.5 (raw 100.625) over 4 samples", m)
	}
	if m := atReference(scalar(10, "1/s"), 1/1.25); m.Value != 12.5 || m.Raw != 10 {
		t.Errorf("throughput %+v, want 12.5 (raw 10)", m)
	}
	// The kernel itself: deterministic arrays, a positive dilation.
	c := newCalibrator(2)
	c.sample(newRecorder(false).root(""))
	if len(c.seen) != 1 || !(c.seen[0] > 0) {
		t.Errorf("dilation samples %v", c.seen)
	}
	if c2 := newCalibrator(2); !reflect.DeepEqual(c.idx[:64], c2.idx[:64]) {
		t.Error("two calibrators drew different index arrays")
	}
}

// TestSharesFillTheRun holds the time split to the whole of -seconds, with
// the main section the longest.
func TestSharesFillTheRun(t *testing.T) {
	for _, w := range workloads {
		sum := 0.0
		for section := range probeShare {
			sum += w.share(section)
			if section != w.Main && w.share(section) >= w.share(w.Main) {
				t.Errorf("%s: probe %s gets %v, the main section %v", w.Name, section, w.share(section), w.share(w.Main))
			}
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Errorf("%s: shares sum to %v", w.Name, sum)
		}
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, planMS []float64) string {
		path := filepath.Join(dir, name)
		for i, v := range planMS {
			for _, w := range workloads {
				r := &record{Workload: w.Name, Seed: int64(i), Correct: true, Metrics: map[string]metric{}}
				for _, d := range endToEnd {
					r.Metrics[d.Name] = scalar(100+0.1*float64(i%3), d.Unit)
				}
				if w.Name == "solve_l6" {
					r.Metrics["plan_step_ms"] = scalar(v, "ms")
				}
				if err := appendRecord(path, r); err != nil {
					t.Fatal(err)
				}
			}
		}
		return path
	}
	steady := []float64{80, 80.2, 79.9, 80.1, 80, 80.3, 79.8, 80, 80.1, 79.9}
	a := write("a.jsonl", steady)
	var out bytes.Buffer
	if ok, err := compareFiles(&out, a, a); err != nil || !ok {
		t.Errorf("a set against itself: ok=%v err=%v\n%s", ok, err, out.String())
	}
	slower := make([]float64, len(steady))
	for i, v := range steady {
		slower[i] = v * 1.13 // plan_step_ms is bound to 10 %
	}
	out.Reset()
	ok, err := compareFiles(&out, a, write("b.jsonl", slower))
	if err != nil || ok || !strings.Contains(out.String(), "WORSE") {
		t.Errorf("a 13%% slower step must be reported: ok=%v err=%v\n%s", ok, err, out.String())
	}
	noisy := []float64{50, 110, 60, 100, 80, 55, 105, 70, 90, 120}
	out.Reset()
	ok, err = compareFiles(&out, a, write("c.jsonl", noisy))
	if err != nil || ok || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("a spread wider than the bound must be unresolved: ok=%v err=%v\n%s", ok, err, out.String())
	}
	// Higher-is-better metrics worsen downwards.
	d := decl{Name: "jobs_per_s", Better: "higher", Bound: 0.10}
	if worse, _, word := verdict(d, []float64{10, 10, 10}, []float64{8, 8, 8}); word != "WORSE" || math.Abs(worse-0.2) > 1e-12 {
		t.Errorf("throughput 10 -> 8: worse=%v %s", worse, word)
	}
}
