package sw

import (
	"fmt"

	"repro/internal/mesh"
	"repro/internal/pattern"
)

// float is the element type of a kernel set: the plan's precision.
type float interface{ ~float32 | ~float64 }

// kernelSet is everything the CSR kernel closures (csr_kernels.go) work on,
// at one precision T and fixed at plan compile time: the working arrays, the
// mesh constants, the hoisted gather weights and the scalar coefficients. Precision is a
// parameter of the compiled plan, so there is one kernel set type and one set
// of closures:
//
//   - the float64 instance ALIASES the solver's and the mesh's slices (bind
//     is the identity; the solver never reassigns them, so binding once is
//     safe) and costs no memory beyond the weight tables;
//   - the float32 instance owns rounded copies — the "fast mode" of paper
//     Figure 6, streaming half the bytes — and is private: the step loads
//     h/u/b from the float64 State, recomputes the diagnostics, runs the same
//     four stages, and stores h/u and the invariant diagnostics back (see
//     privateProgram). The float32 -> float64 store is exact and the load
//     rounds once, so the float64 State stays the single source of truth
//     (checkpoints, ensemble activation and external edits keep working).
//
// This file may use ordinary checked indexing: it is compile-time setup plus
// the linear load/store loops. csr_kernels.go must not (bce_test.go).
type kernelSet[T float] struct {
	s   *Solver
	csr *mesh.CSR
	// private marks a set whose arrays are copies the solver cannot see.
	private bool

	// Scalars, each the solver's float64 value rounded once.
	rkA, rkB                     [4]T
	gravity, viscosity, rayleigh T
	apvmDt                       T // APVM * Dt, the B2 coefficient

	// Working set (cells / edges / vertices). Table I names: h0/u0 accepted
	// state, hP/uP provisional, hN/uN the RK accumulator.
	h0, hP, hN, tendH, b    []T
	ke, div, d2fdx2, pvCell []T
	u0, uP, uN, tendU       []T
	hEdge, v, pvEdge        []T
	vort, hVert, pvVert     []T

	// Mesh constants.
	areaCell, dcEdge, dvEdge []T
	areaTri, fVertex, kite   []T
	wEdge                    []T // csr.EdgeWeights

	// Hoisted gather weights, packed by csr.CellPtr (wA1, wA3, wKite) and by
	// vertex degree (wE), so the hot loops stream them stride-1. wA1 is the
	// signed edge length signCell*DvEdge shared by A1 and A2; wA3 is A3's
	// quadrature weight (0.25*Dc)*Dv; wKite is C2's kite fraction; wE is E's
	// signed dual-edge length. Each product is formed in float64 — reproducing
	// the original left-associated prefix — and rounded once.
	wA1, wA3, wKite, wE []T
}

// newKernelSet binds the kernel set of s at precision T. alloc makes a zeroed
// cache-line-aligned array; bind turns one of the solver's float64 arrays
// into the set's: the identity for float64, a rounded copy for float32.
func newKernelSet[T float](s *Solver, csr *mesh.CSR, alloc func(n int) []T, bind func([]float64) []T) *kernelSet[T] {
	m := s.M
	cfg := s.Cfg
	ks := &kernelSet[T]{s: s, csr: csr,
		gravity: T(cfg.Gravity), viscosity: T(cfg.Viscosity), rayleigh: T(cfg.RayleighFriction),
		apvmDt: T(cfg.APVM * cfg.Dt),

		h0: bind(s.State.H), hP: bind(s.Provis.H), hN: bind(s.next.H), tendH: bind(s.Tend.H), b: bind(s.B),
		ke: bind(s.Diag.KE), div: bind(s.Diag.Divergence), d2fdx2: bind(s.Diag.D2fdx2Cell), pvCell: bind(s.Diag.PVCell),
		u0: bind(s.State.U), uP: bind(s.Provis.U), uN: bind(s.next.U), tendU: bind(s.Tend.U),
		hEdge: bind(s.Diag.HEdge), v: bind(s.Diag.V), pvEdge: bind(s.Diag.PVEdge),
		vort: bind(s.Diag.Vorticity), hVert: bind(s.Diag.HVertex), pvVert: bind(s.Diag.PVVertex),

		areaCell: bind(m.AreaCell), dcEdge: bind(m.DcEdge), dvEdge: bind(m.DvEdge),
		areaTri: bind(m.AreaTriangle), fVertex: bind(m.FVertex), kite: bind(m.KiteAreasOnVertex),
		wEdge: bind(csr.EdgeWeights),
	}
	for i := range ks.rkA {
		ks.rkA[i] = T(s.rkA[i])
		ks.rkB[i] = T(s.rkB[i])
	}

	nnz := len(csr.CellEdges)
	ks.wA1, ks.wA3, ks.wKite = alloc(nnz), alloc(nnz), alloc(nnz)
	for cell := 0; cell < m.NCells; cell++ {
		lo, hi := csr.CellRow(cell)
		base := cell * mesh.MaxEdges
		for j := 0; j < hi-lo; j++ {
			e := m.EdgesOnCell[base+j]
			ks.wA1[lo+j] = T(s.signCell[base+j] * m.DvEdge[e])
			ks.wA3[lo+j] = T(0.25 * m.DcEdge[e] * m.DvEdge[e])
			ks.wKite[lo+j] = T(s.kiteOnCell[base+j])
		}
	}
	ks.wE = alloc(m.NVertices * mesh.VertexDegree)
	for v := 0; v < m.NVertices; v++ {
		base := v * mesh.VertexDegree
		for j := 0; j < mesh.VertexDegree; j++ {
			e := m.EdgesOnVertex[base+j]
			ks.wE[base+j] = T(s.signVertex[base+j] * m.DcEdge[e])
		}
	}
	return ks
}

// kernels64 is the float64 kernel set: every array aliases the solver's.
func kernels64(s *Solver, csr *mesh.CSR) *kernelSet[float64] {
	return newKernelSet(s, csr, mesh.AlignedFloat64, func(a []float64) []float64 { return a })
}

// kernels32 is the private float32 kernel set.
func kernels32(s *Solver, csr *mesh.CSR) *kernelSet[float32] {
	ks := newKernelSet(s, csr, mesh.AlignedFloat32, func(a []float64) []float32 {
		r := mesh.AlignedFloat32(len(a))
		for i, x := range a {
			r[i] = float32(x)
		}
		return r
	})
	ks.private = true
	return ks
}

// privateProgram wraps the elided four-stage body of a private kernel set
// into the program a step executes: a prologue that loads the float64 state
// and solves the diagnostics the body reads before writing them (its
// upward-exposed reads, which an aliasing plan inherits from the previous
// step), then the body, then the stores of stepRoots into the solver's
// float64 arrays. The prologue is pruned by the same liveness pass as the
// body, against what the body needs. Prologue ids end in "@in", store ids in
// "@out".
func privateProgram[T float](ks *kernelSet[T], body []opSpec) [][]opSpec {
	m := ks.s.M
	nc, ne, nv := m.NCells, m.NEdges, m.NVertices
	x := func(id string, n int, out pattern.PointType, reads, writes []string, run func(lo, hi int)) opSpec {
		return opSpec{id: id, n: n, shape: pattern.ShapeX, out: out, reads: reads, writes: writes, run: run}
	}
	prologue := []opSpec{
		x("ldH@in", nc, pattern.Mass, []string{"state.h", "state.b"}, []string{"h0", "b"}, ks.loadCells),
		x("ldU@in", ne, pattern.Velocity, []string{"state.u"}, []string{"u0"}, ks.loadEdges),
	}
	prologue = append(prologue, ks.diagSpecs(0, "@in", "h0", "u0", ks.h0, ks.u0)...)
	var need []string
	for v := range liveInVars(body) {
		need = append(need, v)
	}
	prologue, _ = elideDead(prologue, need)

	scopes := append([][]opSpec{prologue}, splitStages(body)...)
	return append(scopes, []opSpec{
		x("stH@out", nc, pattern.Mass, []string{"h0", "ke"}, []string{"state.h", "diag.ke"}, ks.storeCells),
		x("stU@out", ne, pattern.Velocity, []string{"u0"}, []string{"state.u"}, ks.storeEdges),
		x("stV@out", nv, pattern.Vorticity, []string{"h_vertex", "pv_vertex"},
			[]string{"diag.h_vertex", "diag.pv_vertex"}, ks.storeVerts),
	})
}

func (ks *kernelSet[T]) loadCells(lo, hi int) {
	h, b := ks.s.State.H, ks.s.B
	for c := lo; c < hi; c++ {
		ks.h0[c] = T(h[c])
		ks.b[c] = T(b[c])
	}
}

func (ks *kernelSet[T]) loadEdges(lo, hi int) {
	u := ks.s.State.U
	for e := lo; e < hi; e++ {
		ks.u0[e] = T(u[e])
	}
}

func (ks *kernelSet[T]) storeCells(lo, hi int) {
	h, ke := ks.s.State.H, ks.s.Diag.KE
	for c := lo; c < hi; c++ {
		h[c] = float64(ks.h0[c])
		ke[c] = float64(ks.ke[c])
	}
}

func (ks *kernelSet[T]) storeEdges(lo, hi int) {
	u := ks.s.State.U
	for e := lo; e < hi; e++ {
		u[e] = float64(ks.u0[e])
	}
}

func (ks *kernelSet[T]) storeVerts(lo, hi int) {
	hv, pv := ks.s.Diag.HVertex, ks.s.Diag.PVVertex
	for v := lo; v < hi; v++ {
		hv[v] = float64(ks.hVert[v])
		pv[v] = float64(ks.pvVert[v])
	}
}

// stepSpecs builds the four-stage program (before elision) in program order —
// the ONE description of an RK-4 step, for every precision and executor.
// Variable naming follows Table I: h0/u0 is the accepted state, h/u the
// provisional state, h_new/u_new the RK accumulator. Stage 0's tendency ops
// read the accepted state directly (the Provis copy it replaces was bitwise
// identical), stage 3's solve_diagnostics reads the committed state. hooks
// adds the serial PostSubstep slot after each stage's state update.
func (ks *kernelSet[T]) stepSpecs(hooks bool) []opSpec {
	s := ks.s
	m := s.M
	cfg := s.Cfg
	nc, ne := m.NCells, m.NEdges
	var specs []opSpec
	add := func(sp opSpec) { specs = append(specs, sp) }

	for stage := 0; stage < 4; stage++ {
		suf := fmt.Sprintf("@%d", stage)
		// State names seen by the tendency ops (stage 0 reads the accepted
		// state) and by solve_diagnostics (stage 3 reads the committed state).
		tendH, tendU := "h", "u"
		if stage == 0 {
			tendH, tendU = "h0", "u0"
		}
		diagH, diagU := "h", "u"
		hs, us := ks.hP, ks.uP
		if stage == 3 {
			diagH, diagU = "h0", "u0"
			hs, us = ks.h0, ks.u0
		}

		// --- fused tendency + accumulate (+ provisional or commit) -------
		thID, tuID := "A1+X4"+suf, "B1+X1+X5"+suf
		thReads := []string{tendU, "h_edge"}
		thWrites := []string{"tend_h"}
		tuReads := []string{tendU}
		tuWrites := []string{"tend_u"}
		if !cfg.AdvectionOnly {
			tuReads = append(tuReads, "pv_edge", "h_edge", "ke", tendH, "b")
			if cfg.Viscosity != 0 {
				tuReads = append(tuReads, "divergence", "vorticity")
			}
		}
		switch stage {
		case 0:
			thID, tuID = "A1+X4+X2@0", "B1+X1+X5+X3@0"
			thReads = append(thReads, "h0")
			thWrites = append(thWrites, "h_new", "h")
			tuWrites = append(tuWrites, "u_new", "u")
		case 3:
			thID, tuID = "A1+X4+commit@3", "B1+X1+X5+commit@3"
			thReads = append(thReads, "h_new")
			thWrites = append(thWrites, "h0")
			tuReads = append(tuReads, "u_new")
			tuWrites = append(tuWrites, "u0")
		default:
			thReads = append(thReads, "h_new")
			thWrites = append(thWrites, "h_new")
			tuReads = append(tuReads, "u_new")
			tuWrites = append(tuWrites, "u_new")
		}
		add(opSpec{id: thID, stage: stage, n: nc, shape: pattern.ShapeA, out: pattern.Mass,
			reads: thReads, writes: thWrites, run: ks.mkTendH(stage)})
		add(opSpec{id: tuID, stage: stage, n: ne, shape: pattern.ShapeB, out: pattern.Velocity,
			reads: tuReads, writes: tuWrites, run: ks.mkTendU(stage)})

		// --- provisional state (stages 1, 2 only; fused elsewhere) -------
		if stage == 1 || stage == 2 {
			add(opSpec{id: "X2" + suf, stage: stage, n: nc, shape: pattern.ShapeX, out: pattern.Mass,
				reads: []string{"h0", "tend_h"}, writes: []string{"h"}, run: ks.mkX2(stage)})
			add(opSpec{id: "X3" + suf, stage: stage, n: ne, shape: pattern.ShapeX, out: pattern.Velocity,
				reads: []string{"u0", "tend_u"}, writes: []string{"u"}, run: ks.mkX3(stage)})
		}

		// --- PostSubstep hook slot ---------------------------------------
		if hooks {
			add(opSpec{id: "hook" + suf, stage: stage, hook: true,
				reads: []string{diagH, diagU}, writes: []string{diagH, diagU}})
		}

		// --- compute_solve_diagnostics -----------------------------------
		specs = append(specs, ks.diagSpecs(stage, suf, diagH, diagU, hs, us)...)

		// --- mpas_reconstruct (stage 3 only; cur == State there) ---------
		if stage == 3 {
			add(opSpec{id: "A4@3", stage: 3, n: nc, shape: pattern.ShapeA, out: pattern.Mass,
				reads:  []string{"u0"},
				writes: []string{"uReconstructX", "uReconstructY", "uReconstructZ"}, run: ks.derived(s.patA4)})
			add(opSpec{id: "X6@3", stage: 3, n: nc, shape: pattern.ShapeX, out: pattern.Mass,
				reads:  []string{"uReconstructX", "uReconstructY", "uReconstructZ"},
				writes: []string{"uReconstructZonal", "uReconstructMeridional"}, run: ks.derived(s.patX6)})
		}
	}
	return specs
}

// derived passes run through on an aliasing set and drops it on a private
// one. H2, A4 and X6 produce derived fields no step op consumes and have no
// CSR form: liveness always elides them, so a private set has nothing to run
// (compile rejects a plan that keeps a run-less op).
func (ks *kernelSet[T]) derived(run func(lo, hi int)) func(lo, hi int) {
	if ks.private {
		return nil
	}
	return run
}

// diagSpecs is compute_solve_diagnostics over the state (hs, us), known to
// the data flow as (diagH, diagU), in the original pattern order.
func (ks *kernelSet[T]) diagSpecs(stage int, suf, diagH, diagU string, hs, us []T) []opSpec {
	m := ks.s.M
	cfg := ks.s.Cfg
	nc, ne, nv := m.NCells, m.NEdges, m.NVertices
	var specs []opSpec
	add := func(id string, n int, shape pattern.Shape, out pattern.PointType, reads, writes []string, run func(lo, hi int)) {
		specs = append(specs, opSpec{id: id + suf, stage: stage, n: n, shape: shape, out: out,
			reads: reads, writes: writes, run: run})
	}
	if cfg.HighOrderThickness {
		add("C1", nc, pattern.ShapeC, pattern.Mass, []string{diagH}, []string{"d2fdx2_cell"}, ks.cC1(hs))
		add("D2", ne, pattern.ShapeD, pattern.Velocity, []string{diagH, "d2fdx2_cell"}, []string{"h_edge"}, ks.cD2(hs))
	} else {
		add("D1", ne, pattern.ShapeD, pattern.Velocity, []string{diagH}, []string{"h_edge"}, ks.cD1(hs))
	}
	add("E", nv, pattern.ShapeE, pattern.Vorticity, []string{diagU}, []string{"vorticity"}, ks.cE(us))
	add("A2", nc, pattern.ShapeA, pattern.Mass, []string{diagU}, []string{"divergence"}, ks.cA2(us))
	add("A3", nc, pattern.ShapeA, pattern.Mass, []string{diagU}, []string{"ke"}, ks.cA3(us))
	add("F", ne, pattern.ShapeF, pattern.Velocity, []string{diagU}, []string{"v"}, ks.cF(us))
	add("G", nv, pattern.ShapeG, pattern.Vorticity, []string{diagH, "vorticity"}, []string{"h_vertex", "pv_vertex"}, ks.cG(hs))
	add("C2", nc, pattern.ShapeC, pattern.Mass, []string{"pv_vertex"}, []string{"pv_cell"}, ks.cC2())
	add("H2", nc, pattern.ShapeH, pattern.Mass, []string{"vorticity"}, []string{"vorticity_cell"}, ks.derived(ks.s.patH2))
	add("H1", ne, pattern.ShapeH, pattern.Velocity, []string{"pv_vertex"}, []string{"pv_edge"}, ks.cH1())
	if cfg.APVM != 0 {
		add("B2", ne, pattern.ShapeB, pattern.Velocity,
			[]string{"pv_vertex", "pv_cell", diagU, "v", "pv_edge"}, []string{"pv_edge"}, ks.cB2(us))
	}
	return specs
}
