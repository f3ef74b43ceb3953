// Package ladder is the Table-III big-mesh scaling harness: it climbs the
// icosahedral refinement ladder (level n has 10*4^n+2 cells; the paper's
// Table III runs 163842 → 2621442 cells, levels 7–9), measures real
// seconds/step for the serial, compiled-plan, and float32 fast-mode
// executions on each rung, and attaches the per-kernel wall-time split and
// the modeled streaming traffic (perfmodel.WorkTable bytes) so measured
// times can be read against the bandwidth ceiling.
//
// The harness exists to pin the scaling CLAIM, not a specific speed: step
// time must grow no worse than ~linearly in cell count (CheckLinear), which
// is what the SoA/CSR layout and bounds-check-free kernels buy once the
// working set falls out of cache. cmd/bigmesh is the CLI; scripts/bench.sh
// merges the report into the benchmark JSON under the "ladder" key.
package ladder

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	mpas "repro"
	"repro/internal/mesh"
	"repro/internal/perfmodel"
	"repro/internal/telemetry"
)

// Config selects the rungs and the measurement effort per rung.
type Config struct {
	// MinLevel..MaxLevel are the icosahedral subdivision levels to climb
	// (inclusive). Defaults 6..7 — the cheap rungs; Table III proper is 7..9.
	MinLevel, MaxLevel int
	// Steps is the number of timed steps per execution mode per rung
	// (after one untimed warm-up step). Default 2.
	Steps int
	// Workers is the pool size for the plan and fast32 runs (0 = GOMAXPROCS).
	Workers int
	// Lloyd is the number of Lloyd relaxation sweeps in mesh construction.
	// Default 0: relaxation cost grows superlinearly and does not change
	// the scaling exponent being measured.
	Lloyd int
	// Reorder additionally measures the plan and fast32 rungs on the SFC
	// locality-renumbered mesh (mpas.Options.Reorder) and records the mean
	// neighbor-index distance before/after — the pair of columns that shows
	// where renumbering starts paying (the rungs whose working set has
	// fallen out of cache).
	Reorder bool
}

func (c Config) withDefaults() Config {
	if c.MinLevel == 0 {
		c.MinLevel = 6
	}
	if c.MaxLevel == 0 {
		c.MaxLevel = 7
	}
	if c.Steps <= 0 {
		c.Steps = 2
	}
	return c
}

// Level is one rung's measurements.
type Level struct {
	Level    int `json:"level"`
	Cells    int `json:"cells"`
	Edges    int `json:"edges"`
	Vertices int `json:"vertices"`

	BuildSeconds float64 `json:"build_seconds"`

	// Measured seconds per RK-4 step (mean over Config.Steps timed steps).
	SerialStep float64 `json:"serial_step_seconds"`
	PlanStep   float64 `json:"plan_step_seconds"`
	Fast32Step float64 `json:"fast32_step_seconds"`

	// Task-graph columns: the same compiled plan executed as a
	// dependency-counted task graph (mpas.TaskPlan, no level barriers), with
	// the scheduler's per-step steal count and summed per-worker idle time
	// from the par_taskplan_* telemetry. Steals/idle are recorded even when
	// zero — "measured zero" (a one-worker pool never steals or parks) must
	// stay distinguishable from "not measured".
	TaskStep        float64 `json:"taskplan_step_seconds"`
	TaskSteals      float64 `json:"taskplan_steals_per_step"`
	TaskIdleSeconds float64 `json:"taskplan_idle_seconds_per_step"`

	// Reorder columns (Config.Reorder): the same plan/fast32 measurements
	// on the SFC-renumbered mesh, and the mean neighbor-index distance (in
	// cell units) before and after renumbering — the locality the columns
	// are buying.
	PlanStepReorder    float64 `json:"plan_step_reorder_seconds,omitempty"`
	Fast32StepReorder  float64 `json:"fast32_step_reorder_seconds,omitempty"`
	NeighborDistBefore float64 `json:"neighbor_dist_before,omitempty"`
	NeighborDistAfter  float64 `json:"neighbor_dist_after,omitempty"`

	// PerKernel is the serial run's wall-time split by Algorithm-1 kernel
	// (seconds per step, from the sw_kernel_*_seconds telemetry timers).
	PerKernel map[string]float64 `json:"per_kernel_seconds"`

	// ModeledBytes is the Table-I streaming traffic of one step
	// (perfmodel.WorkTable bytes summed over the four RK stages plus the
	// driver's state copies) — the denominator for a bandwidth reading.
	ModeledBytes float64 `json:"modeled_bytes_per_step"`
	// PlanBandwidth is the achieved streaming rate implied by the plan
	// measurement (ModeledBytes / PlanStep): modeled traffic over measured
	// time, directly comparable to the device bandwidth ceiling. The
	// reorder variant reads the renumbered measurement against the SAME
	// modeled traffic — renumbering changes none of the arithmetic or the
	// bytes, only how far apart they sit.
	PlanBandwidth        float64 `json:"plan_achieved_bytes_per_second,omitempty"`
	PlanBandwidthReorder float64 `json:"plan_reorder_achieved_bytes_per_second,omitempty"`
	// CSRBytes is the measured footprint of the packed adjacency.
	CSRBytes int64 `json:"csr_bytes"`
	// HeapBytes is the live heap after the rung's solvers were built.
	HeapBytes uint64 `json:"heap_bytes"`
}

// Report is the whole ladder, merged into the benchmark JSON by MergeJSON.
type Report struct {
	Config Config  `json:"config"`
	Levels []Level `json:"levels"`
}

// Run climbs the ladder. logf (may be nil) receives one progress line per
// measurement so long rungs are visibly alive.
func Run(cfg Config, logf func(format string, args ...any)) (*Report, error) {
	cfg = cfg.withDefaults()
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if cfg.MinLevel > cfg.MaxLevel {
		return nil, fmt.Errorf("ladder: min level %d > max level %d", cfg.MinLevel, cfg.MaxLevel)
	}
	rep := &Report{Config: cfg}
	for level := cfg.MinLevel; level <= cfg.MaxLevel; level++ {
		lv, err := runLevel(cfg, level, logf)
		if err != nil {
			return nil, err
		}
		rep.Levels = append(rep.Levels, *lv)
	}
	return rep, nil
}

func runLevel(cfg Config, level int, logf func(string, ...any)) (*Level, error) {
	t0 := time.Now()
	m, err := mesh.Build(level, mesh.Options{LloydIterations: cfg.Lloyd})
	if err != nil {
		return nil, fmt.Errorf("ladder: level %d: %w", level, err)
	}
	lv := &Level{
		Level:        level,
		Cells:        m.NCells,
		Edges:        m.NEdges,
		Vertices:     m.NVertices,
		BuildSeconds: time.Since(t0).Seconds(),
	}
	logf("level %d: %d cells built in %.1fs", level, m.NCells, lv.BuildSeconds)

	csr, err := m.PackCSR()
	if err != nil {
		return nil, fmt.Errorf("ladder: level %d: %w", level, err)
	}
	lv.CSRBytes = csr.Bytes()
	mc := perfmodel.MeshCounts{Cells: m.NCells, Edges: m.NEdges, Vertices: m.NVertices}
	lv.ModeledBytes = ModeledBytesPerStep(mc)

	// Serial rung, with the per-kernel wall-time split.
	reg := telemetry.NewRegistry()
	sec, err := timeMode(m, mpas.Serial, "", cfg, false, func(mod *mpas.Model) {
		mod.EnableTelemetry(nil, reg)
	})
	if err != nil {
		return nil, err
	}
	lv.SerialStep = sec
	lv.PerKernel = map[string]float64{}
	// One warm-up step was also timed by the registry: divide by Steps+1.
	for _, name := range kernelNames(m) {
		if t := reg.Timer("sw_kernel_" + name + "_seconds"); t.Count() > 0 {
			lv.PerKernel[name] = t.Total().Seconds() / float64(cfg.Steps+1)
		}
	}
	logf("level %d: serial %.3fs/step", level, lv.SerialStep)

	if lv.PlanStep, err = timeMode(m, mpas.Plan, "", cfg, false, nil); err != nil {
		return nil, err
	}
	lv.PlanBandwidth = lv.ModeledBytes / lv.PlanStep
	logf("level %d: plan   %.3fs/step (%.1f GB/s achieved)", level, lv.PlanStep, lv.PlanBandwidth/1e9)

	if lv.Fast32Step, err = timeMode(m, mpas.Plan, "float32", cfg, false, nil); err != nil {
		return nil, err
	}
	logf("level %d: fast32 %.3fs/step", level, lv.Fast32Step)

	// Task-graph rung, with the scheduler telemetry. The registry covers the
	// warm-up step too, hence the Steps+1 divisor.
	treg := telemetry.NewRegistry()
	if lv.TaskStep, err = timeMode(m, mpas.TaskPlan, "", cfg, false, func(mod *mpas.Model) {
		mod.EnableTelemetry(nil, treg)
	}); err != nil {
		return nil, err
	}
	perRun := float64(cfg.Steps + 1)
	lv.TaskSteals = float64(treg.Counter("par_taskplan_steals_total").Value()) / perRun
	nw := cfg.Workers
	if nw <= 0 {
		nw = runtime.GOMAXPROCS(0)
	}
	for w := 0; w < nw; w++ {
		if t := treg.Timer(fmt.Sprintf("par_taskplan_w%d_idle_seconds", w)); t != nil {
			lv.TaskIdleSeconds += t.Total().Seconds() / perRun
		}
	}
	logf("level %d: taskplan %.3fs/step (%.0f steals/step, %.3fs idle/step)",
		level, lv.TaskStep, lv.TaskSteals, lv.TaskIdleSeconds)

	if cfg.Reorder {
		if err := measureReorder(cfg, m, lv, logf); err != nil {
			return nil, err
		}
	}

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	lv.HeapBytes = ms.HeapAlloc
	return lv, nil
}

// measureReorder adds the renumbered plan/fast32 columns and the
// locality-before/after pair to an already measured rung.
func measureReorder(cfg Config, m *mesh.Mesh, lv *Level, logf func(string, ...any)) error {
	lv.NeighborDistBefore = m.NeighborLocality().Mean
	rm, err := mesh.ComputeReorder(m).Apply(m)
	if err != nil {
		return fmt.Errorf("ladder: level %d: %w", lv.Level, err)
	}
	lv.NeighborDistAfter = rm.NeighborLocality().Mean

	if lv.PlanStepReorder, err = timeMode(m, mpas.Plan, "", cfg, true, nil); err != nil {
		return err
	}
	lv.PlanBandwidthReorder = lv.ModeledBytes / lv.PlanStepReorder
	logf("level %d: plan+reorder   %.3fs/step (%.2fx, neighbor dist %.0f -> %.0f)",
		lv.Level, lv.PlanStepReorder, lv.PlanStep/lv.PlanStepReorder,
		lv.NeighborDistBefore, lv.NeighborDistAfter)

	if lv.Fast32StepReorder, err = timeMode(m, mpas.Plan, "float32", cfg, true, nil); err != nil {
		return err
	}
	logf("level %d: fast32+reorder %.3fs/step (%.2fx)",
		lv.Level, lv.Fast32StepReorder, lv.Fast32Step/lv.Fast32StepReorder)
	return nil
}

// timeMode builds a TC5 model on msh under the given mode/precision, runs
// one warm-up step, then returns the mean of cfg.Steps timed steps.
func timeMode(msh *mesh.Mesh, mode mpas.Mode, precision string, cfg Config,
	reorder bool, prep func(*mpas.Model)) (float64, error) {
	mod, err := mpas.New(mpas.Options{
		Mesh: msh, TestCase: mpas.TC5, Mode: mode,
		Workers: cfg.Workers, Precision: precision, Reorder: reorder,
	})
	if err != nil {
		return 0, err
	}
	defer mod.Close()
	if prep != nil {
		prep(mod)
	}
	mod.Step() // warm-up: page in the working set, compile-on-first-use paths
	t0 := time.Now()
	for i := 0; i < cfg.Steps; i++ {
		mod.Step()
	}
	return time.Since(t0).Seconds() / float64(cfg.Steps), nil
}

// kernelNames returns the Algorithm-1 kernel names (for timer lookup)
// without keeping the probe solver alive.
func kernelNames(m *mesh.Mesh) []string {
	mod, err := mpas.New(mpas.Options{Mesh: m, TestCase: mpas.TC5})
	if err != nil {
		return nil
	}
	defer mod.Close()
	var names []string
	for _, k := range mod.Solver.Kernels() {
		names = append(names, k.Name)
	}
	return names
}

// ModeledBytesPerStep sums the Table-I per-pattern streaming traffic over
// the four RK substages plus the driver's two state copies — the same
// accounting perfmodel.StepTime divides by device bandwidth.
func ModeledBytesPerStep(mc perfmodel.MeshCounts) float64 {
	byKernel := map[string][]perfmodel.PatternWork{}
	for _, pw := range perfmodel.Workload(mc, false) {
		byKernel[pw.Inst.Kernel] = append(byKernel[pw.Inst.Kernel], pw)
	}
	total := 0.0
	for stage := 0; stage < 4; stage++ {
		for _, k := range perfmodel.StageKernels(stage) {
			for _, pw := range byKernel[k] {
				total += float64(pw.N) * pw.Bytes
			}
		}
	}
	total += float64(mc.Cells+mc.Edges) * 8 * 2 * 2
	return total
}

// CheckLinear asserts step time grows no worse than ~linearly in cell
// count: between consecutive rungs, seconds-per-cell may grow by at most
// slack (e.g. 1.8 tolerates falling out of last-level cache plus timer
// noise, but fails any superlinear blow-up). Checked for every measured
// mode column that is present on both rungs.
func CheckLinear(levels []Level, slack float64) error {
	if slack <= 0 {
		slack = 1.8
	}
	cols := []struct {
		name string
		get  func(Level) float64
	}{
		{mpas.Serial.String(), func(l Level) float64 { return l.SerialStep }},
		{mpas.Plan.String(), func(l Level) float64 { return l.PlanStep }},
		{"fast32", func(l Level) float64 { return l.Fast32Step }},
		{mpas.TaskPlan.String(), func(l Level) float64 { return l.TaskStep }},
		{"plan+reorder", func(l Level) float64 { return l.PlanStepReorder }},
		{"fast32+reorder", func(l Level) float64 { return l.Fast32StepReorder }},
	}
	for i := 1; i < len(levels); i++ {
		a, b := levels[i-1], levels[i]
		if a.Cells <= 0 || b.Cells <= 0 {
			return fmt.Errorf("ladder: level %d/%d: missing cell counts", a.Level, b.Level)
		}
		for _, col := range cols {
			ta, tb := col.get(a), col.get(b)
			if ta <= 0 || tb <= 0 {
				continue // column not measured on this rung
			}
			perA, perB := ta/float64(a.Cells), tb/float64(b.Cells)
			if perB > slack*perA {
				return fmt.Errorf(
					"ladder: %s step superlinear from level %d to %d: %.2f ns/cell -> %.2f ns/cell (slack %.2fx)",
					col.name, a.Level, b.Level, perA*1e9, perB*1e9, slack)
			}
		}
	}
	return nil
}

// MergeJSON inserts the report under the given key of the JSON object at
// path (creating the file if absent), preserving existing entries — the
// benchmark summaries from scripts/bench.sh and the ladder share one file.
func MergeJSON(path, key string, rep *Report) error {
	doc := map[string]json.RawMessage{}
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, &doc); err != nil {
			return fmt.Errorf("ladder: %s exists but is not a JSON object: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	enc, err := json.MarshalIndent(rep, "  ", "  ")
	if err != nil {
		return err
	}
	doc[key] = enc
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
