// Package mpas is the public facade of the MPAS shallow-water
// pattern-driven hybrid acceleration reproduction (Zhang et al., ICPP 2015).
//
// It wires together the substrates under internal/ — the SCVT mesh builder,
// the TRiSK shallow-water core organized as Table-I pattern instances, the
// data-flow graph, the thread runtime, the simulated CPU+Xeon-Phi platform,
// and the hybrid executors — behind a small Model API:
//
//	model, err := mpas.New(mpas.Options{Level: 4, TestCase: mpas.TC5,
//	    Mode: mpas.PatternDriven})
//	model.RunDays(1)
//	fmt.Println(model.Invariants())
//
// The experiment harness entry points (Figure5 ... Figure9, Table1, Table3)
// regenerate every table and figure of the paper's evaluation; see
// EXPERIMENTS.md for the recorded paper-vs-reproduction comparison.
package mpas

import (
	"fmt"
	"math"

	"repro/internal/hybrid"
	"repro/internal/mesh"
	"repro/internal/par"
	"repro/internal/sw"
	"repro/internal/telemetry"
	"repro/internal/testcases"
)

// TestCase selects a Williamson et al. (1992) initial condition.
type TestCase int

// The implemented test cases.
const (
	// TC1 is cosine-bell advection with the wind tilted 45 degrees from
	// zonal (prescribed velocity; the solver runs advection-only).
	TC1 TestCase = 1
	// TC2 is the steady zonal geostrophic flow (exact solution known).
	TC2 TestCase = 2
	// TC5 is the zonal flow over an isolated mountain (the paper's
	// correctness case, Figure 5).
	TC5 TestCase = 5
	// TC6 is the wavenumber-4 Rossby-Haurwitz wave.
	TC6 TestCase = 6
	// Galewsky is the Galewsky et al. (2004) barotropic instability:
	// a balanced jet with a height perturbation that rolls up by day ~5.
	Galewsky TestCase = 8
)

// Mode selects the execution design.
type Mode int

// Execution designs, in increasing order of sophistication.
const (
	// Serial runs every pattern on one goroutine — the original code.
	Serial Mode = iota
	// Threaded runs each kernel as one parallel region on a worker pool
	// (the OpenMP analogue, §4.B).
	Threaded
	// KernelLevel is the Figure 2 hybrid: whole kernels placed on host or
	// device.
	KernelLevel
	// PatternDriven is the Figure 4(b) hybrid: pattern instances split
	// across host and device along the data-flow graph.
	PatternDriven
	// Plan compiles the whole RK-4 step into one flat schedule executed
	// inside a single parallel region, with barriers only at true
	// dependency frontiers and dead diagnostics elided (bitwise-identical
	// prognostics; purely derived fields with no consumer — divergence,
	// cell vorticity, the velocity reconstruction — go stale between
	// explicit Init calls).
	Plan
	// TaskPlan executes the same compiled schedule as Plan but lowered once
	// more, into a dependency-counted task graph: each (op, tile) pair is a
	// task released point-to-point by its true predecessors and run on
	// work-stealing deques, so the per-level barriers disappear entirely.
	// Bitwise-identical to Plan (and hence to Serial on prognostics).
	TaskPlan
)

// modeTable is the execution-mode registry, indexed by Mode: each mode's
// wire name (the -mode flag, serve's JSON and spooled status files) and
// whether the float32 fast path can run under it.
var modeTable = [...]struct {
	name    string
	float32 bool
}{
	Serial:        {"serial", true},
	Threaded:      {"threaded", true},
	KernelLevel:   {"kernel", false},
	PatternDriven: {"pattern", false},
	Plan:          {"plan", true},
	TaskPlan:      {"taskplan", true},
}

// String returns the mode's wire name.
func (m Mode) String() string {
	if m < 0 || int(m) >= len(modeTable) {
		return fmt.Sprintf("Mode(%d)", int(m))
	}
	return modeTable[m].name
}

// Modes returns every execution mode in registry order.
func Modes() []Mode {
	ms := make([]Mode, len(modeTable))
	for i := range ms {
		ms[i] = Mode(i)
	}
	return ms
}

// ParseMode maps a wire name onto its Mode.
func ParseMode(name string) (Mode, error) {
	for i, row := range modeTable {
		if row.name == name {
			return Mode(i), nil
		}
	}
	return 0, fmt.Errorf("mpas: unknown mode %q (want one of %v)", name, Modes())
}

// CheckPrecision reports whether mode m can step at precision: "" or
// "float64" under every mode, "float32" under the host-only ones.
func CheckPrecision(m Mode, precision string) error {
	switch {
	case precision == "float32" && (m < 0 || int(m) >= len(modeTable) || !modeTable[m].float32):
		return fmt.Errorf("mpas: precision float32 requires a host-only mode, not %v", m)
	case precision != "" && precision != "float64" && precision != "float32":
		return fmt.Errorf("mpas: unknown precision %q (want float64 or float32)", precision)
	}
	return nil
}

// Options configures a Model.
type Options struct {
	// Level is the icosahedral subdivision level (cells = 10*4^level + 2).
	// Paper meshes: 6 (120 km) through 9 (15 km). Default 4.
	Level int
	// LloydIterations relaxes the mesh toward centroidal; default 2.
	LloydIterations int
	// TestCase selects the initial condition; default TC5.
	TestCase TestCase
	// Mode selects the execution design; default Serial.
	Mode Mode
	// Workers sets the worker-pool size for Threaded mode (<=0 means
	// GOMAXPROCS) and the host pool size for hybrid modes.
	Workers int
	// DeviceWorkers sets the device pool size for hybrid modes (<=0 means
	// GOMAXPROCS).
	DeviceWorkers int
	// AdjustableFraction overrides the pattern-driven adjustable host
	// fraction; negative means auto-tune on the platform model.
	AdjustableFraction float64
	// PlanHost installs a compiled execution plan (sw.PlanRunner) as the
	// hybrid executor's host-side delegate: kernels the schedule places
	// entirely on the host run through its compiled per-kernel schedules
	// instead of the executor's level-by-level dispatch. Hybrid modes only;
	// results are bitwise-unchanged.
	PlanHost bool
	// HighOrderThickness enables the C1+D2 high-order edge interpolation.
	HighOrderThickness bool
	// Dt overrides the time step (seconds); 0 means a stable default.
	Dt float64
	// Precision selects the step arithmetic: "" or "float64" for the
	// reference double-precision path, "float32" for the fast mode — the
	// compiled plan at single precision (sw.PlanOptions.Float32): the same
	// step program over a private float32 working set, streaming half the
	// bytes per step. The float64 State remains the source of truth
	// (loaded/stored around each step), so checkpointing and diagnostics
	// keep working; trajectories track the float64 run within the relative
	// band documented in internal/conform (Strategy.RelBand). Valid only
	// under the registry's float32-capable modes (CheckPrecision): Plan and
	// TaskPlan choose barrier or task execution as for float64; Serial and
	// Threaded run the barrier plan on one worker or on Workers.
	Precision string
	// Mesh reuses an existing mesh instead of building one (Level and
	// LloydIterations are then ignored).
	Mesh *mesh.Mesh
	// Reorder applies the locality renumbering (mesh.ComputeReorder): cells
	// relabeled along a spherical space-filling curve, edges/vertices by
	// first touch, so the kernels' indirect gathers land in cache-resident
	// lines on large meshes. The trajectory is exactly a permutation of the
	// canonical run (0 ULP; proven by internal/conform) and checkpoints
	// stay in canonical numbering, so resume works across the setting. When
	// Mesh is supplied it is not modified — the model runs on a renumbered
	// copy.
	Reorder bool
}

// Model is a runnable shallow-water model instance.
type Model struct {
	Mesh   *mesh.Mesh
	Solver *sw.Solver
	Config sw.Config
	Mode   Mode
	// Reorder is the locality renumbering in effect (nil when the model
	// runs in canonical numbering). Mesh and all solver state are in the
	// renumbered order; use the maps to convert fields to canonical.
	Reorder *mesh.Reorder

	pool *par.Pool
	exec *hybrid.Executor
}

// New builds a model.
func New(opts Options) (*Model, error) {
	if opts.Level == 0 {
		opts.Level = 4
	}
	if opts.TestCase == 0 {
		opts.TestCase = TC5
	}
	if err := CheckPrecision(opts.Mode, opts.Precision); err != nil {
		return nil, err
	}
	float32Step := opts.Precision == "float32"
	m := opts.Mesh
	if m == nil {
		lloyd := opts.LloydIterations
		if lloyd == 0 {
			lloyd = 2
		}
		var err error
		m, err = mesh.Build(opts.Level, mesh.Options{LloydIterations: lloyd})
		if err != nil {
			return nil, err
		}
	}
	// The configuration (notably the stable Dt) is derived from the
	// canonical mesh BEFORE any renumbering, so reordered and canonical
	// runs share bit-identical parameters.
	cfg := sw.DefaultConfig(m)
	cfg.HighOrderThickness = opts.HighOrderThickness
	if opts.Dt > 0 {
		cfg.Dt = opts.Dt
	}
	var ren *mesh.Reorder
	if opts.Reorder {
		ren = mesh.ComputeReorder(m)
		rm, err := ren.Apply(m)
		if err != nil {
			return nil, fmt.Errorf("mpas: reorder: %w", err)
		}
		m = rm
	}
	s, err := sw.NewSolver(m, cfg)
	if err != nil {
		return nil, err
	}
	s.Renumber = ren
	mod := &Model{Mesh: m, Solver: s, Config: cfg, Mode: opts.Mode, Reorder: ren}

	switch opts.Mode {
	case Serial:
		s.Runner = sw.SerialRunner{}
	case Threaded:
		mod.pool = par.NewPool(opts.Workers)
		s.Runner = sw.PoolRunner{Pool: mod.pool}
	case KernelLevel:
		mod.exec = hybrid.NewHybridSolver(s, hybrid.KernelLevelSchedule(),
			opts.Workers, opts.DeviceWorkers)
	case PatternDriven:
		frac := opts.AdjustableFraction
		if frac < 0 {
			frac, _ = hybrid.TunePatternDriven(meshCounts(m))
		}
		mod.exec = hybrid.NewHybridSolver(s, hybrid.PatternDrivenSchedule(frac),
			opts.Workers, opts.DeviceWorkers)
	case Plan, TaskPlan:
		// The runner is compiled after the test-case setup below.
		mod.pool = par.NewPool(opts.Workers)
	default:
		return nil, fmt.Errorf("mpas: unknown mode %v", opts.Mode)
	}

	switch opts.TestCase {
	case TC1:
		testcases.SetupTC1(s, math.Pi/4)
	case TC2:
		testcases.SetupTC2(s)
	case TC5:
		testcases.SetupTC5(s)
	case TC6:
		testcases.SetupTC6(s)
	case Galewsky:
		testcases.SetupGalewsky(s, true)
	default:
		return nil, fmt.Errorf("mpas: unknown test case %d", opts.TestCase)
	}
	if float32Step || opts.Mode == Plan || opts.Mode == TaskPlan {
		// Compiled here, after the test-case setup: the plan specializes on
		// the configuration, and e.g. TC1 flips AdvectionOnly during setup.
		// float32 is the plan at single precision whatever host mode was
		// asked for; Serial and Threaded only choose its worker count.
		if mod.pool == nil {
			w := opts.Workers
			if opts.Mode == Serial {
				w = 1
			}
			mod.pool = par.NewPool(w)
		}
		r, err := sw.Compile(s, mod.pool, sw.PlanOptions{Float32: float32Step, Tasks: opts.Mode == TaskPlan})
		if err != nil {
			mod.pool.Close()
			return nil, fmt.Errorf("mpas: %w", err)
		}
		s.Runner = r
	}
	if opts.PlanHost && mod.exec != nil {
		r, err := sw.Compile(s, mod.exec.HostPool, sw.PlanOptions{})
		if err != nil {
			mod.exec.Close()
			return nil, fmt.Errorf("mpas: plan host delegate: %w", err)
		}
		mod.exec.SetHostRunner(r)
	}
	return mod, nil
}

// Close releases worker pools. Safe to call multiple times.
func (m *Model) Close() {
	if m.pool != nil {
		m.pool.Close()
		m.pool = nil
	}
	if m.exec != nil {
		m.exec.Close()
		m.exec = nil
	}
}

// EnableTelemetry wires a tracer and/or metrics registry through every layer
// of the model: the solver (RK-stage and kernel spans, kernel timers), the
// thread pool (dispatch/grain counters), and — in hybrid modes — the
// executor (data-flow level spans, host/device split counters, imbalance
// histogram) and the simulated platform clock (gauges). Either argument may
// be nil; both nil-safe defaults cost nothing.
func (m *Model) EnableTelemetry(tr *telemetry.Tracer, reg *telemetry.Registry) {
	m.Solver.EnableTelemetry(tr, reg)
	if m.pool != nil {
		m.pool.Instrument(reg, "team")
	}
	if pr, ok := m.Solver.Runner.(*sw.PlanRunner); ok {
		pr.InstrumentTasks(reg)
	}
	if m.exec != nil {
		m.exec.EnableTelemetry(tr, reg)
	}
}

// Step advances one RK-4 time step.
func (m *Model) Step() { m.Solver.Step() }

// Run advances n steps.
func (m *Model) Run(n int) { m.Solver.Run(n) }

// StepsPerDay returns the number of steps covering one simulated day.
func (m *Model) StepsPerDay() int {
	return int(testcases.Day/m.Config.Dt + 0.5)
}

// RunDays advances the model by the given number of simulated days.
func (m *Model) RunDays(days float64) {
	m.Run(int(days*testcases.Day/m.Config.Dt + 0.5))
}

// Time returns the simulated physical time in seconds.
func (m *Model) Time() float64 { return m.Solver.Time }

// Invariants returns the conserved-quantity diagnostics.
func (m *Model) Invariants() sw.Invariants { return m.Solver.ComputeInvariants() }

// TotalHeight returns h+b per cell (Figure 5's plotted field).
func (m *Model) TotalHeight() []float64 { return testcases.TotalHeight(m.Solver) }

// HeightError returns the Williamson error norms of h against ref.
func (m *Model) HeightError(ref []float64) testcases.Norms {
	return testcases.HeightNorms(m.Mesh, m.Solver.State.H, ref)
}

// SimulatedPlatformTime returns the modeled platform seconds accumulated by
// a hybrid run (zero for Serial/Threaded modes, which are timed for real).
func (m *Model) SimulatedPlatformTime() float64 {
	if m.exec == nil {
		return 0
	}
	return m.exec.SimTime()
}
