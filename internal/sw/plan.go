package sw

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"

	"repro/internal/dataflow"
	"repro/internal/mesh"
	"repro/internal/par"
	"repro/internal/pattern"
)

// This file implements data-flow-compiled step execution: at construction,
// the RK-4 step's kernel/pattern sequence is lowered through the data-flow
// graph (package dataflow) into a flat schedule of (op, range, barrier?)
// entries, executed inside ONE long-lived parallel region per step. The
// compiler goes beyond the per-kernel region fusion of PoolRunner in four
// ways:
//
//  1. Fusion: the RK substep/accumulate updates (X2..X5) are folded into the
//     tendency loops wherever the data flow proves the combined loop is
//     race-free, and the step-entry Provis/next copies are absorbed into
//     stage 0's initialization forms (hn = h0 + b*t instead of copy-then-add).
//  2. Liveness: a backward pass over the whole four-stage program elides ops
//     whose outputs are never consumed before being overwritten (divergence
//     and cell-averaged vorticity under default config, the velocity
//     reconstruction, and most of solve_diagnostics under AdvectionOnly).
//  3. Barrier minimization: dataflow.LevelsBy with a locality predicate
//     places a barrier only at true dependency frontiers — an edge whose
//     consumer reads only the element its own worker produced (pointwise
//     consumer, same index space, stable static chunking) needs no barrier.
//  4. Allocation-free dispatch: op closures, worker ranges and the region
//     callback are all precompiled, so a step performs zero allocations and
//     zero closure churn.
//
// Every schedule is verified at compile time: the flattened order must pass
// Graph.ValidateOrder, and every non-local dependency edge must be separated
// by at least one barrier (checked both with and without the optional
// PostSubstep hook in the schedule).

// stepRoots are the variables that must be correct after a plan step: the
// accepted prognostic state plus the diagnostics ComputeInvariants reads.
// Everything else either feeds the next step (kept live by the program's
// own upward-exposed reads) or is recomputed before use.
var stepRoots = []string{"h0", "u0", "ke", "pv_vertex", "h_vertex"}

// opSpec is a schedulable operation before compilation: def/use metadata for
// the data-flow graph plus the compiled range closure.
type opSpec struct {
	id     string
	stage  int
	n      int
	shape  pattern.Shape
	out    pattern.PointType
	reads  []string
	writes []string
	run    func(lo, hi int)
	// hook marks the serial PostSubstep slot: executed by worker 0 only,
	// guarded at runtime on s.PostSubstep != nil, and never local to any
	// dependency edge.
	hook bool
}

func (sp opSpec) instance() pattern.Instance {
	return pattern.Instance{
		ID:     sp.id,
		Kernel: fmt.Sprintf("stage%d", sp.stage),
		Shape:  sp.shape,
		Out:    sp.out,
		Reads:  sp.reads,
		Writes: sp.writes,
	}
}

// planOp is one compiled schedule entry. post and wait mark the overlay's
// exchange ops (see overlap.go): post initiates the halo exchange on worker
// 0 with NO barrier (interior compute proceeds immediately), wait completes
// it on worker 0 with an unconditional barrier after.
type planOp struct {
	id      string
	stage   int
	run     func(lo, hi int)
	hook    bool
	post    bool
	wait    bool
	ranges  [][2]int32
	barrier bool
}

// plan is a compiled schedule executed inside one parallel region.
type plan struct {
	s   *Solver
	ops []planOp
	// ov is set on overlaid schedules only (see overlap.go); post/wait ops
	// call into it.
	ov *Overlap
	// exec is the bound method value handed to Pool.Region, created once so
	// launching the region allocates nothing.
	exec func(t *par.Team)
	// Compilation artifacts kept for structural tests: the kept specs in
	// program order, the execution order (positions into specs), and the
	// effective barrier flag per execution position.
	specs        []opSpec
	order        []int
	barrierAfter []bool
	barriers     int
}

// run executes the schedule as one worker of the region. Every worker
// executes the same op sequence over its own precomputed ranges; barriers
// synchronize exactly at the compiled frontiers. Hook slots run on worker 0
// with a barrier after — both are skipped when no hook is installed, which
// is safe because the preceding frontier's barrier already ordered the
// hook's inputs.
func (p *plan) run(t *par.Team) {
	s := p.s
	ops := p.ops
	for i := range ops {
		op := &ops[i]
		if op.hook {
			if hook := s.PostSubstep; hook != nil {
				if t.ID == 0 {
					st := s.Provis
					if op.stage == 3 {
						st = s.State
					}
					hook(op.stage, st)
				}
				t.Barrier()
			}
			continue
		}
		if op.post || op.wait {
			st := s.Provis
			if op.stage == 3 {
				st = s.State
			}
			if op.post {
				// No barrier: the previous frontier already ordered the
				// exchanged fields' writes, and interior ops never touch
				// them, so every worker proceeds while worker 0 packs.
				if t.ID == 0 {
					p.ov.Post(op.stage, st)
				}
				continue
			}
			if t.ID == 0 {
				p.ov.Wait(op.stage, st)
			}
			t.Barrier()
			continue
		}
		r := op.ranges[t.ID]
		if r[0] < r[1] {
			op.run(int(r[0]), int(r[1]))
		}
		if op.barrier {
			t.Barrier()
		}
	}
}

// PlanRunner is a Runner that advances whole RK-4 steps through a compiled
// execution plan (Step() takes the plan path when a PlanRunner is attached
// and no tracers are registered). For anything else — Init, tracer runs,
// direct kernel invocations — RunKernel executes the kernel's original
// float64 patterns through a per-kernel compiled schedule with no elision,
// so all diagnostics (including ones the step plan elides) are computed there.
//
// A plan step maintains the prognostic state, the invariant diagnostics
// (ke, h_vertex, pv_vertex) and everything the next step consumes; purely
// derived fields with no consumer (divergence and vorticity_cell under the
// default configuration, the velocity reconstruction) go stale. Checkpoint,
// conformance and invariant monitoring never read them; call Init to refresh
// them if needed.
type PlanRunner struct {
	s    *Solver
	pool *par.Pool
	// cfg snapshots the configuration the plan was specialized on; Step
	// refuses the plan path if the solver's Cfg has since been mutated
	// (e.g. a test-case setup flipping AdvectionOnly after construction).
	cfg Config

	// hooks reports whether the step plan carries PostSubstep slots. An
	// overlaid plan turned them into post/wait exchange ops and a float32
	// plan has none (a hook could not see its float32 intermediates), so
	// Step takes those plans only while s.PostSubstep stays nil.
	hooks bool
	// spanName is the step's trace span.
	spanName string

	stepPlan    *plan
	kernelPlans map[*Kernel]*plan
	// align is the worker-range granularity in elements: one cache line of
	// the plan's element type.
	align      int
	rangeCache map[int][][2]int32
	elided     []string

	// tasks is non-nil when compiled with PlanOptions.Tasks: the step plan
	// lowered once more, from a level-barrier schedule to a
	// dependency-counted task graph (taskplan.go), which step() then runs
	// instead of the barrier region.
	tasks *par.TaskGraph
}

// PlanOptions are the three independent choices in compiling a step: the
// arithmetic precision, barrier or task execution, and whether the halo
// exchange is overlapped with interior compute.
type PlanOptions struct {
	// Float32 computes the whole step in single precision over a private
	// float32 working set (see kernelSet), streaming half the bytes; the
	// trajectory tracks the float64 one within conform.Fast32Band per step.
	Float32 bool
	// Tasks lowers the schedule into a dependency-counted task graph run on
	// work-stealing deques instead of a level-barrier region (taskplan.go).
	// Bitwise-identical to barrier execution.
	Tasks bool
	// Overlap, when non-nil, overlays every stage's hook slot with the
	// Post / interior / Wait / boundary split of overlap.go; the exchange
	// rides on it instead of s.PostSubstep. Init and tracer paths still run
	// the full-range kernel plans — callers must only invoke them when
	// halos are consistent, exactly as with a blocking rank solver.
	Overlap *Overlap
}

// cacheLine is the coherence granularity worker ranges are aligned to, bytes.
const cacheLine = 64

// ErrFloat32Overlap rejects PlanOptions{Float32, Overlap}: the halo exchange
// packs the solver's float64 state, and a float32 plan's intermediate states
// never reach it.
var ErrFloat32Overlap = errors.New("sw: a float32 plan cannot overlap the halo exchange (its intermediate states are float32-private)")

// planCompiles counts Compile calls process-wide. Ensemble serving rides on
// the guarantee that K members share ONE compiled plan; tests pin that by
// asserting this counter's delta.
var planCompiles atomic.Int64

// PlanCompileCount returns the number of plan compilations performed by
// this process so far (monotone; read before/after an operation to count
// the compilations it triggered).
func PlanCompileCount() int64 { return planCompiles.Load() }

// Compile compiles the execution plan for s. The pool provides the worker
// team (nil means serial); the caller keeps ownership of it. The returned
// runner is specific to s, to its configuration at this moment, and to the
// pool's worker count.
func Compile(s *Solver, pool *par.Pool, opts PlanOptions) (*PlanRunner, error) {
	ov := opts.Overlap
	if ov != nil {
		if opts.Float32 {
			return nil, ErrFloat32Overlap
		}
		if ov.Post == nil || ov.Wait == nil ||
			ov.InteriorCells == nil || ov.InteriorEdges == nil || ov.InteriorVertices == nil {
			return nil, fmt.Errorf("sw: overlap plan needs all Overlap callbacks")
		}
	}
	planCompiles.Add(1)
	if pool == nil {
		pool = par.NewPool(1)
	}
	csr, err := s.M.PackCSR()
	if err != nil {
		return nil, fmt.Errorf("sw: packing mesh adjacency: %w", err)
	}
	if err := checkSolverShapes(s, csr); err != nil {
		return nil, fmt.Errorf("sw: plan shapes: %w", err)
	}
	r := &PlanRunner{s: s, pool: pool, cfg: s.Cfg, rangeCache: map[int][][2]int32{},
		spanName: "rk4_step_plan"}
	if opts.Tasks {
		r.spanName = "rk4_step_taskplan"
	}
	var scopes [][]opSpec
	if opts.Float32 {
		r.spanName = "rk4_step_fast32"
		r.align = cacheLine / 4
		scopes, r.elided = stepProgram(kernels32(s, csr))
	} else {
		r.align = cacheLine / 8
		r.hooks = ov == nil
		scopes, r.elided = stepProgram(kernels64(s, csr))
	}
	if r.stepPlan, err = r.compile(scopes); err != nil {
		return nil, fmt.Errorf("sw: step plan: %w", err)
	}
	if ov != nil {
		op, err := r.overlayPlan(r.stepPlan, ov)
		if err != nil {
			return nil, err
		}
		if err := verifyOverlay(r.stepPlan, op); err != nil {
			return nil, err
		}
		r.stepPlan = op
	}
	if opts.Tasks {
		if err := r.taskify(); err != nil {
			return nil, err
		}
	}

	r.kernelPlans = make(map[*Kernel]*plan, len(s.kernelOrder))
	for _, k := range s.kernelOrder {
		kp, err := r.compile([][]opSpec{kernelSpecs(k)})
		if err != nil {
			return nil, fmt.Errorf("sw: kernel plan %s: %w", k.Name, err)
		}
		r.kernelPlans[k] = kp
	}
	return r, nil
}

// MustCompile is Compile panicking on error.
func MustCompile(s *Solver, pool *par.Pool, opts PlanOptions) *PlanRunner {
	r, err := Compile(s, pool, opts)
	if err != nil {
		panic(err)
	}
	return r
}

// NewPlanRunner, NewTaskPlanRunner and NewFast32Runner are presets of
// Compile kept for the benchmark module (bench/), which is frozen against
// these names; everything else calls Compile.
func NewPlanRunner(s *Solver, pool *par.Pool) (*PlanRunner, error) {
	return Compile(s, pool, PlanOptions{})
}

func NewTaskPlanRunner(s *Solver, pool *par.Pool) (*PlanRunner, error) {
	return Compile(s, pool, PlanOptions{Tasks: true})
}

func NewFast32Runner(s *Solver, pool *par.Pool) (*PlanRunner, error) {
	return Compile(s, pool, PlanOptions{Float32: true})
}

// stepProgram lowers the one step description (kernelSet.stepSpecs) into the
// synchronization scopes compile schedules: liveness elision over the
// four-stage body — identical for every precision — then one scope per stage,
// wrapped in the load/store program when the kernel set is private.
func stepProgram[T float](ks *kernelSet[T]) (scopes [][]opSpec, elided []string) {
	body, elided := elideDead(ks.stepSpecs(!ks.private), stepRoots)
	if ks.private {
		return privateProgram(ks, body), elided
	}
	return splitStages(body), elided
}

// Elided returns the Table I ops the liveness pass removed from the step
// plan, sorted.
func (r *PlanRunner) Elided() []string {
	out := append([]string(nil), r.elided...)
	sort.Strings(out)
	return out
}

// Barriers returns the number of unconditional barriers in one plan step.
func (r *PlanRunner) Barriers() int { return r.stepPlan.barriers }

// OpIDs returns the step schedule in execution order.
func (r *PlanRunner) OpIDs() []string {
	out := make([]string, len(r.stepPlan.ops))
	for i, op := range r.stepPlan.ops {
		out[i] = op.id
	}
	return out
}

// checkSolverShapes asserts, once at compile time, that every array the
// compiled kernels (csr_kernels.go) access through unchecked views covers its
// index space (a float32 kernel set copies these arrays at these lengths).
// Together with the CSR pack-time column validation this is the safety
// argument for the bounds-check-free hot loops.
func checkSolverShapes(s *Solver, csr *mesh.CSR) error {
	m := s.M
	nc, ne, nv := m.NCells, m.NEdges, m.NVertices
	check := func(name string, got, want int) error {
		if got < want {
			return fmt.Errorf("%s has %d elements, need %d", name, got, want)
		}
		return nil
	}
	for _, c := range []struct {
		name string
		got  int
		want int
	}{
		{"State.H", len(s.State.H), nc}, {"State.U", len(s.State.U), ne},
		{"Provis.H", len(s.Provis.H), nc}, {"Provis.U", len(s.Provis.U), ne},
		{"next.H", len(s.next.H), nc}, {"next.U", len(s.next.U), ne},
		{"Tend.H", len(s.Tend.H), nc}, {"Tend.U", len(s.Tend.U), ne},
		{"B", len(s.B), nc},
		{"Diag.HEdge", len(s.Diag.HEdge), ne}, {"Diag.KE", len(s.Diag.KE), nc},
		{"Diag.PVEdge", len(s.Diag.PVEdge), ne}, {"Diag.V", len(s.Diag.V), ne},
		{"Diag.Divergence", len(s.Diag.Divergence), nc},
		{"Diag.D2fdx2Cell", len(s.Diag.D2fdx2Cell), nc},
		{"Diag.Vorticity", len(s.Diag.Vorticity), nv},
		{"Diag.HVertex", len(s.Diag.HVertex), nv},
		{"Diag.PVVertex", len(s.Diag.PVVertex), nv},
		{"Diag.PVCell", len(s.Diag.PVCell), nc},
		{"AreaCell", len(m.AreaCell), nc}, {"AreaTriangle", len(m.AreaTriangle), nv},
		{"DcEdge", len(m.DcEdge), ne}, {"DvEdge", len(m.DvEdge), ne},
		{"FVertex", len(m.FVertex), nv},
		{"CellsOnEdge", len(m.CellsOnEdge), 2 * ne},
		{"VerticesOnEdge", len(m.VerticesOnEdge), 2 * ne},
		{"CellsOnVertex", len(m.CellsOnVertex), nv * mesh.VertexDegree},
		{"EdgesOnVertex", len(m.EdgesOnVertex), nv * mesh.VertexDegree},
		{"KiteAreasOnVertex", len(m.KiteAreasOnVertex), nv * mesh.VertexDegree},
		{"CSR.CellPtr", len(csr.CellPtr), nc + 1},
		{"CSR.EdgePtr", len(csr.EdgePtr), ne + 1},
	} {
		if err := check(c.name, c.got, c.want); err != nil {
			return err
		}
	}
	return nil
}

// step advances one RK-4 time step through the compiled plan (called from
// Solver.Step).
func (r *PlanRunner) step() {
	s := r.s
	span := s.Trace.StartSpan(r.spanName)
	s.cur = s.State
	if r.tasks != nil {
		r.tasks.Run()
	} else {
		r.pool.Region(r.stepPlan.exec)
	}
	s.StepCount++
	s.Time += s.Cfg.Dt
	s.stepsCounter.Inc()
	span.End()
}

// RunKernel implements Runner for the non-step paths (Init, tracer steps,
// direct kernel calls): the kernel's original patterns run through a cached
// leveled schedule inside one region. Unknown kernels fall back to the
// per-kernel region of PoolRunner.
func (r *PlanRunner) RunKernel(k *Kernel) {
	if kp, ok := r.kernelPlans[k]; ok {
		r.pool.Region(kp.exec)
		return
	}
	PoolRunner{Pool: r.pool}.RunKernel(k)
}

// kernelSpecs wraps a kernel's original patterns as opSpecs (no fusion, no
// elision — Table I metadata drives the leveling).
func kernelSpecs(k *Kernel) []opSpec {
	specs := make([]opSpec, len(k.Patterns))
	for i, pt := range k.Patterns {
		specs[i] = opSpec{
			id:     pt.Info.ID,
			n:      pt.N,
			shape:  pt.Info.Shape,
			out:    pt.Info.Out,
			reads:  pt.Info.Reads,
			writes: pt.Info.Writes,
			run:    pt.Run,
		}
	}
	return specs
}

func splitStages(specs []opSpec) [][]opSpec {
	out := make([][]opSpec, 4)
	for _, sp := range specs {
		out[sp.stage] = append(out[sp.stage], sp)
	}
	return out
}

// liveInVars returns the variables with an upward-exposed read: read by some
// op before any op writes them. Since one step's program runs in a loop,
// these are exactly the values the next step still needs.
func liveInVars(specs []opSpec) map[string]bool {
	written := map[string]bool{}
	liveIn := map[string]bool{}
	for _, sp := range specs {
		for _, v := range sp.reads {
			if !written[v] {
				liveIn[v] = true
			}
		}
		for _, v := range sp.writes {
			written[v] = true
		}
	}
	return liveIn
}

// elideDead removes ops none of whose outputs are consumed: a single
// backward liveness pass with the roots plus the program's own upward-exposed
// reads live at the end. Every op writes its full output range, so a write
// kills the variable. Hook slots are never elided.
func elideDead(specs []opSpec, roots []string) (kept []opSpec, elided []string) {
	live := map[string]bool{}
	for _, v := range roots {
		live[v] = true
	}
	for v := range liveInVars(specs) {
		live[v] = true
	}
	keep := make([]bool, len(specs))
	for i := len(specs) - 1; i >= 0; i-- {
		sp := specs[i]
		alive := sp.hook
		for _, v := range sp.writes {
			if live[v] {
				alive = true
			}
		}
		if !alive {
			continue
		}
		keep[i] = true
		for _, v := range sp.writes {
			delete(live, v)
		}
		for _, v := range sp.reads {
			live[v] = true
		}
	}
	for i, sp := range specs {
		if keep[i] {
			kept = append(kept, sp)
		} else {
			elided = append(elided, sp.id)
		}
	}
	return kept, elided
}

// localEdge reports whether a dependency edge needs no barrier under stable
// static chunking over a shared index space: both endpoints partition the
// same range identically (same n, same output point type), and the endpoint
// that touches foreign elements — the reader of a RAW edge, the earlier
// reader of a WAR edge — is pointwise, so each worker only revisits elements
// of its own chunk. Output dependencies (WAW) are local whenever the
// partitions coincide, since each element is rewritten by the same worker.
func localEdge(a, b opSpec, kind dataflow.DepKind) bool {
	if a.hook || b.hook {
		return false
	}
	if a.n != b.n || a.out != b.out {
		return false
	}
	switch kind {
	case dataflow.RAW:
		return b.shape == pattern.ShapeX
	case dataflow.WAR:
		return a.shape == pattern.ShapeX
	case dataflow.WAW:
		return true
	}
	return false
}

// compile lowers the program (a list of synchronization scopes, each in
// program order) into a verified flat schedule. Within a scope, ops are
// leveled by LevelsBy with the locality predicate and a barrier is placed
// after each level; scope boundaries always get a barrier; the final
// schedule entry drops its barrier because the region join provides it.
func (r *PlanRunner) compile(scopes [][]opSpec) (*plan, error) {
	p := &plan{s: r.s}
	for _, scope := range scopes {
		if len(scope) == 0 {
			continue
		}
		insts := make([]pattern.Instance, len(scope))
		for i, sp := range scope {
			insts[i] = sp.instance()
		}
		g := dataflow.Build(insts)
		levels := g.LevelsBy(func(e dataflow.Edge) bool {
			return localEdge(scope[e.From], scope[e.To], e.Kind)
		})
		var order []int
		for _, lv := range levels {
			order = append(order, lv...)
		}
		if err := g.ValidateOrder(order); err != nil {
			return nil, err
		}
		base := len(p.specs)
		p.specs = append(p.specs, scope...)
		for _, lv := range levels {
			for k, j := range lv {
				sp := scope[j]
				if sp.run == nil && !sp.hook {
					return nil, fmt.Errorf("sw: plan keeps op %s, which has no kernel at this precision", sp.id)
				}
				op := planOp{id: sp.id, stage: sp.stage, run: sp.run, hook: sp.hook,
					barrier: k == len(lv)-1}
				if !sp.hook {
					op.ranges = r.ranges(sp.n)
				}
				p.ops = append(p.ops, op)
				p.order = append(p.order, base+j)
			}
		}
	}
	if n := len(p.ops); n > 0 && !p.ops[n-1].hook {
		p.ops[n-1].barrier = false
	}
	p.barrierAfter = make([]bool, len(p.ops))
	for i, op := range p.ops {
		p.barrierAfter[i] = op.barrier
		if op.barrier && !op.hook {
			p.barriers++
		}
	}
	if err := p.verify(); err != nil {
		return nil, err
	}
	p.exec = p.run
	return p, nil
}

// verify checks barrier sufficiency over the whole program: every non-local
// dependency edge must cross at least one barrier, both with the hook slots
// scheduled (their conditional barriers count) and with them stripped (the
// schedule actually executed when no PostSubstep hook is installed).
func (p *plan) verify() error {
	if err := coverageErr(p.specs, p.order, p.barrierAfter); err != nil {
		return err
	}
	specs, order, barriers := stripHooks(p.specs, p.order, p.barrierAfter)
	return coverageErr(specs, order, barriers)
}

// stripHooks removes hook entries from a (specs, order, barrierAfter)
// schedule — the runtime shape when s.PostSubstep is nil.
func stripHooks(specs []opSpec, order []int, barrierAfter []bool) ([]opSpec, []int, []bool) {
	keepSpec := make([]int, len(specs)) // old spec index -> new, -1 dropped
	var outSpecs []opSpec
	for i, sp := range specs {
		if sp.hook {
			keepSpec[i] = -1
			continue
		}
		keepSpec[i] = len(outSpecs)
		outSpecs = append(outSpecs, sp)
	}
	var outOrder []int
	var outBarriers []bool
	for pos, si := range order {
		if keepSpec[si] < 0 {
			continue
		}
		outOrder = append(outOrder, keepSpec[si])
		outBarriers = append(outBarriers, barrierAfter[pos])
	}
	return outSpecs, outOrder, outBarriers
}

// coverageErr builds the dependency graph over the program-order spec list
// and checks that the execution order respects every edge and that every
// non-local edge has a barrier strictly between its endpoints.
func coverageErr(specs []opSpec, order []int, barrierAfter []bool) error {
	insts := make([]pattern.Instance, len(specs))
	for i, sp := range specs {
		insts[i] = sp.instance()
	}
	g := dataflow.Build(insts)
	if err := g.ValidateOrder(order); err != nil {
		return err
	}
	pos := make([]int, len(specs))
	for pp, si := range order {
		pos[si] = pp
	}
	for _, e := range g.Edges {
		if localEdge(specs[e.From], specs[e.To], e.Kind) {
			continue
		}
		covered := false
		for k := pos[e.From]; k < pos[e.To]; k++ {
			if barrierAfter[k] {
				covered = true
				break
			}
		}
		if !covered {
			return fmt.Errorf("sw: plan schedule leaves %s dependency %s (%s -> %s) without a barrier",
				e.Kind, e.Variable, specs[e.From].id, specs[e.To].id)
		}
	}
	return nil
}

// ranges returns the per-worker static partition of [0,n), cached per index
// space so every op over the same space uses the identical partition — the
// property the locality predicate relies on.
func (r *PlanRunner) ranges(n int) [][2]int32 {
	if rs, ok := r.rangeCache[n]; ok {
		return rs
	}
	rs := alignedRanges(n, r.pool.Workers(), r.align)
	r.rangeCache[n] = rs
	return rs
}

// alignedRanges partitions [0,n) across nw workers with interior boundaries
// rounded up to multiples of align elements (a power of two: one cache line
// of the plan's element type), so adjacent workers never write the same line.
func alignedRanges(n, nw, align int) [][2]int32 {
	rs := make([][2]int32, nw)
	q := n / nw
	lo := 0
	for w := 0; w < nw; w++ {
		hi := n
		if w < nw-1 {
			hi = (lo + q + align - 1) &^ (align - 1)
			if hi > n {
				hi = n
			}
		}
		if hi < lo {
			hi = lo
		}
		rs[w] = [2]int32{int32(lo), int32(hi)}
		lo = hi
	}
	return rs
}
