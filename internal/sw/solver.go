package sw

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/mesh"
	"repro/internal/pattern"
	"repro/internal/perfmodel"
	"repro/internal/telemetry"
)

// Pattern is an executable pattern instance: Table I metadata plus the
// gather-form range kernel that computes outputs [lo,hi) and a workload
// model used by the platform performance model.
type Pattern struct {
	Info pattern.Instance
	N    int // number of output elements
	Run  func(lo, hi int)
	// Workload per output element, used by internal/perfmodel.
	FlopsPerElem float64
	BytesPerElem float64
}

// Kernel is a named group of pattern instances in a valid sequential order —
// one of the six kernels of Algorithm 1.
type Kernel struct {
	Name     string
	Patterns []*Pattern
}

// Runner abstracts how a kernel's pattern list is executed: serially, with a
// thread team (package par), or split across heterogeneous devices (package
// hybrid).
type Runner interface {
	RunKernel(k *Kernel)
}

// SerialRunner executes every pattern over its full range, in order.
type SerialRunner struct{}

// RunKernel implements Runner.
func (SerialRunner) RunKernel(k *Kernel) {
	for _, p := range k.Patterns {
		p.Run(0, p.N)
	}
}

// Solver advances the shallow-water model on an SCVT mesh.
type Solver struct {
	M   *mesh.Mesh
	Cfg Config

	// Bottom topography at cells (set by the test case; zero by default).
	B []float64

	// Renumber, when non-nil, records the locality renumbering
	// (mesh.Reorder) that produced M from the canonical mesh. In-memory
	// state is then in renumbered order; externally visible state —
	// checkpoints — crosses through the maps at the boundary, so the
	// on-disk bytes are identical with and without renumbering and a
	// checkpoint can be resumed under either.
	Renumber *mesh.Reorder

	State  *State // accepted state at s.Time
	Provis *State // RK provisional state
	next   *State // RK accumulator
	Diag   *Diagnostics
	Tend   *Tendencies
	Recon  *Reconstructed

	Runner Runner

	// PostSubstep, when non-nil, is invoked after each provisional state
	// update (stages 0..2 with the provisional state, stage 3 with the new
	// accepted state) and before the following compute_solve_diagnostics —
	// exactly where the distributed runs place their MPI halo exchanges
	// (the "Exchange halo" arrows of the paper's Figures 2 and 4).
	PostSubstep func(stage int, st *State)

	// Tracers registered with AddTracer, advected conservatively by the
	// RK driver (single-process runs; the distributed halo exchange covers
	// h and u only).
	Tracers []*Tracer

	Time      float64
	StepCount int

	// Trace and Metrics are the optional telemetry sinks wired in by
	// EnableTelemetry. Both nil by default: every instrumentation point
	// below is a nil-safe no-op that costs neither allocations nor clock
	// reads on unconfigured runs.
	Trace   *telemetry.Tracer
	Metrics *telemetry.Registry

	// kernelTimers holds one wall-time timer per kernel (nil map when
	// Metrics is nil; lookups on a nil map are free).
	kernelTimers map[string]*telemetry.Timer
	stepsCounter *telemetry.Counter
	// fallbackCounter counts steps that had a PlanRunner attached but ran
	// the kernel-by-kernel loop (see Step).
	fallbackCounter *telemetry.Counter
	// stageSpan is the live RK-stage (or init) span kernels nest under.
	stageSpan *telemetry.Span

	// cur points at the state whose tendencies/diagnostics the kernels
	// read; the RK driver retargets it between substeps.
	cur *State
	// stage is the RK substage index (0..3) during a step.
	stage int

	// Precomputed label matrices (paper Algorithm 4) and gather weights.
	signCell     []float64 // stride mesh.MaxEdges; = float(EdgeSignOnCell)
	signVertex   []float64 // stride mesh.VertexDegree
	kiteOnCell   []float64 // stride mesh.MaxEdges; kite(v_j,c)/AreaCell[c]
	eastCell     []geom.Vec3
	northCell    []geom.Vec3
	kernels      map[string]*Kernel
	kernelOrder  []*Kernel
	rkA, rkB     [4]float64
	patternIndex map[string]*Pattern
}

// NewSolver builds a solver on mesh m. The mesh's Coriolis arrays are
// (re)filled from cfg.Omega.
func NewSolver(m *mesh.Mesh, cfg Config) (*Solver, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m.SetRotation(cfg.Omega)
	s := &Solver{
		M:      m,
		Cfg:    cfg,
		B:      make([]float64, m.NCells),
		State:  NewState(m),
		Provis: NewState(m),
		next:   NewState(m),
		Diag:   NewDiagnostics(m),
		Tend:   NewTendencies(m),
		Recon:  NewReconstructed(m),
		Runner: SerialRunner{},
	}
	s.cur = s.State
	dt := cfg.Dt
	s.rkA = [4]float64{dt / 2, dt / 2, dt, 0}
	s.rkB = [4]float64{dt / 6, dt / 3, dt / 3, dt / 6}
	s.precompute()
	s.buildKernels()
	return s, nil
}

// MustNewSolver is NewSolver panicking on error.
func MustNewSolver(m *mesh.Mesh, cfg Config) *Solver {
	s, err := NewSolver(m, cfg)
	if err != nil {
		panic(err)
	}
	return s
}

func (s *Solver) precompute() {
	m := s.M
	s.signCell = make([]float64, len(m.EdgeSignOnCell))
	for i, v := range m.EdgeSignOnCell {
		s.signCell[i] = float64(v)
	}
	s.signVertex = make([]float64, len(m.EdgeSignOnVertex))
	for i, v := range m.EdgeSignOnVertex {
		s.signVertex[i] = float64(v)
	}
	// kiteOnCell[c][j] = kiteArea(vertex VerticesOnCell[c][j], cell c) / AreaCell[c].
	s.kiteOnCell = make([]float64, m.NCells*mesh.MaxEdges)
	for c := int32(0); c < int32(m.NCells); c++ {
		base := int(c) * mesh.MaxEdges
		for j, v := range m.CellVertices(c) {
			vb := int(v) * mesh.VertexDegree
			for k := 0; k < mesh.VertexDegree; k++ {
				if m.CellsOnVertex[vb+k] == c {
					s.kiteOnCell[base+j] = m.KiteAreasOnVertex[vb+k] / m.AreaCell[c]
					break
				}
			}
		}
	}
	s.eastCell = make([]geom.Vec3, m.NCells)
	s.northCell = make([]geom.Vec3, m.NCells)
	for c := 0; c < m.NCells; c++ {
		s.eastCell[c] = geom.East(m.XCell[c])
		s.northCell[c] = geom.North(m.XCell[c])
	}
}

// EnableTelemetry attaches a tracer (spans per RK stage and per kernel) and
// a metrics registry (per-kernel wall-time timers, step counter) to the
// solver. Either argument may be nil to enable only the other; calling with
// both nil disables telemetry again.
func (s *Solver) EnableTelemetry(tr *telemetry.Tracer, reg *telemetry.Registry) {
	s.Trace = tr
	s.Metrics = reg
	s.kernelTimers = nil
	s.stepsCounter = nil
	s.fallbackCounter = nil
	if reg == nil {
		return
	}
	s.stepsCounter = reg.Counter("sw_steps_total")
	s.fallbackCounter = reg.Counter("sw_step_fallback_total")
	s.kernelTimers = make(map[string]*telemetry.Timer, len(s.kernelOrder))
	for _, k := range s.kernelOrder {
		s.kernelTimers[k.Name] = reg.Timer("sw_kernel_" + k.Name + "_seconds")
	}
}

// Kernels returns the kernels in Algorithm 1 execution order.
func (s *Solver) Kernels() []*Kernel { return s.kernelOrder }

// KernelByName returns one kernel, or nil.
func (s *Solver) KernelByName(name string) *Kernel { return s.kernels[name] }

// PatternByID returns an executable pattern instance by Table I label.
func (s *Solver) PatternByID(id string) *Pattern { return s.patternIndex[id] }

// buildKernels wires Table I metadata to the gather-form range kernels.
func (s *Solver) buildKernels() {
	m := s.M
	mk := func(id string, n int, run func(lo, hi int)) *Pattern {
		info := pattern.ByID(id)
		if info == nil {
			panic(fmt.Sprintf("sw: pattern %q not in Table 1", id))
		}
		spec, ok := perfmodel.WorkTable[id]
		if !ok {
			panic(fmt.Sprintf("sw: pattern %q not in perfmodel.WorkTable", id))
		}
		return &Pattern{Info: *info, N: n, Run: run,
			FlopsPerElem: spec.Flops, BytesPerElem: spec.Bytes}
	}

	solveDiag := &Kernel{Name: pattern.KernelSolveDiagnostics}
	if s.Cfg.HighOrderThickness {
		solveDiag.Patterns = append(solveDiag.Patterns,
			mk("C1", m.NCells, s.patC1),
			mk("D2", m.NEdges, s.patD2))
	} else {
		solveDiag.Patterns = append(solveDiag.Patterns,
			mk("D1", m.NEdges, s.patD1))
	}
	solveDiag.Patterns = append(solveDiag.Patterns,
		mk("E", m.NVertices, s.patE),
		mk("A2", m.NCells, s.patA2),
		mk("A3", m.NCells, s.patA3),
		mk("F", m.NEdges, s.patF),
		mk("G", m.NVertices, s.patG),
		mk("C2", m.NCells, s.patC2),
		mk("H2", m.NCells, s.patH2),
		mk("H1", m.NEdges, s.patH1),
		mk("B2", m.NEdges, s.patB2),
	)

	tend := &Kernel{Name: pattern.KernelComputeTend, Patterns: []*Pattern{
		mk("A1", m.NCells, s.patA1),
		mk("B1", m.NEdges, s.patB1),
	}}

	enforce := &Kernel{Name: pattern.KernelEnforceBoundaryEdge, Patterns: []*Pattern{
		mk("X1", m.NEdges, s.patX1),
	}}

	substep := &Kernel{Name: pattern.KernelNextSubstepState, Patterns: []*Pattern{
		mk("X2", m.NCells, s.patX2),
		mk("X3", m.NEdges, s.patX3),
	}}

	accum := &Kernel{Name: pattern.KernelAccumulativeUpdate, Patterns: []*Pattern{
		mk("X4", m.NCells, s.patX4),
		mk("X5", m.NEdges, s.patX5),
	}}

	recon := &Kernel{Name: pattern.KernelReconstruct, Patterns: []*Pattern{
		mk("A4", m.NCells, s.patA4),
		mk("X6", m.NCells, s.patX6),
	}}

	s.kernelOrder = []*Kernel{tend, enforce, substep, solveDiag, accum, recon}
	s.kernels = make(map[string]*Kernel, len(s.kernelOrder))
	s.patternIndex = make(map[string]*Pattern)
	for _, k := range s.kernelOrder {
		s.kernels[k.Name] = k
		for _, p := range k.Patterns {
			s.patternIndex[p.Info.ID] = p
		}
	}
}
