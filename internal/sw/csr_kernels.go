package sw

// This file holds the ONE set of compiled kernel closures the execution plan
// (plan.go) dispatches instead of the range kernels in kernels.go, generic
// over the plan's precision T (float64, or float32 for the fast mode). Each
// is bitwise-identical to its original at float64 — and at float32 the same
// expression tree with the element type narrowed: same literals, same
// left-to-right association; only the surrounding scaffolding differs —
//
//   - gathers run over the mesh's CSR image (mesh.PackCSR): row-pointer
//     spans into stride-1 int32 column arrays, in the identical j-order as
//     the strided originals, so reductions reassociate nothing;
//   - all loads and stores go through the unchecked views of unchecked.go —
//     the compiler cannot eliminate bounds checks on data-dependent gather
//     subscripts, so they are removed by construction instead, with safety
//     established by CSR pack-time index validation plus the array-shape
//     assertions at plan compile time (plan.go checkSolverShapes);
//   - products of per-slot mesh constants (edge sign x edge length) are
//     hoisted into weight tables packed by the same row pointers, and every
//     array, constant and coefficient comes from the kernelSet (kernelset.go,
//     which may use ordinary checked indexing) the closure was built on: the
//     solver never reassigns its slices and the plan never retargets
//     mid-step, so nothing is read through s.cur;
//   - the RK substep/accumulate updates (X2..X5) are fused into the tendency
//     loops where the data flow proves the combined loop races with nothing.
//
// THIS FILE MUST STAY FREE OF SLICE INDEXING: bce_test.go recompiles the
// package with -d=ssa/check_bce and fails on any bounds check attributed
// here (scripts/ci.sh runs the same gate). Setup code that wants ordinary
// indexing belongs in kernelset.go.
//
// Two compiler traps shape every constructor below (both measured; see
// DESIGN.md §12):
//
//   - Each is marked //go:noinline. When the inliner copies a
//     closure-returning function into its caller (stepSpecs), the copied
//     closure body is generated after the inlining pass and the view
//     accessors inside it stay as real calls — turning every load in the hot
//     loops into a function call (~4x per-kernel slowdown). Out of line, the
//     closures compile through the normal path, where at/set inline to
//     single load/store instructions.
//   - Each closure makes its views FIRST, before any loop. A generic call
//     (view, at, set) fetches its callee's dictionary from the closure's own,
//     which nil-checks that pointer; the fetch is dead after inlining but the
//     check stays, and the compiler does not hoist it out of a loop. Views
//     made in the entry block put one check there, which dominates — and so
//     eliminates — every check in the loops (1 TESTB per closure instead of
//     one per at/set site per iteration; ~4 % of a float64 step).
//
// Equivalence is pinned by TestPlanBitwise across the configuration space,
// and float32 against float64 by the Fast32Band tests of internal/conform.

// mkTendH compiles the fused thickness-tendency op for one RK stage:
// A1 (flux divergence), X4 (accumulate), and at stage 0 additionally X2 (the
// provisional update, legal there because stage 0 reads the accepted state)
// or at stage 3 the commit into h0. The stage-0 form also absorbs the
// next.CopyFrom(State) initialization: hn = h0 + b*t instead of copy-then-add.
//
//go:noinline
func (ks *kernelSet[T]) mkTendH(stage int) func(lo, hi int) {
	a, b := ks.rkA[stage&3], ks.rkB[stage&3]
	us := ks.uP
	if stage == 0 {
		us = ks.u0
	}
	return func(lo, hi int) {
		cp := vi32(ks.csr.CellPtr)
		ce := vi32(ks.csr.CellEdges)
		w := view(ks.wA1)
		area := view(ks.areaCell)
		u := view(us)
		he := view(ks.hEdge)
		th := view(ks.tendH)
		hn := view(ks.hN)
		h0 := view(ks.h0)
		hp := view(ks.hP)
		for c := lo; c < hi; c++ {
			ps, pe := int(cp.at(c)), int(cp.at(c+1))
			var acc T
			for j := ps; j < pe; j++ {
				e := int(ce.at(j))
				acc += w.at(j) * he.at(e) * u.at(e)
			}
			t := -acc / area.at(c)
			th.set(c, t)
			switch stage {
			case 0:
				hn.set(c, h0.at(c)+b*t)
				hp.set(c, h0.at(c)+a*t)
			case 3:
				h0.set(c, hn.at(c)+b*t)
			default:
				hn.set(c, hn.at(c)+b*t)
			}
		}
	}
}

// mkTendU compiles the fused momentum-tendency op for one RK stage: B1 (or
// its advection-only zeroing), the optional viscosity and Rayleigh-friction
// passes (X1), X5 (accumulate), and at stage 0 additionally X3 or at stage 3
// the commit into u0. Sub-passes run in the original pattern order over the
// worker's own range, so fusion changes no result.
//
//go:noinline
func (ks *kernelSet[T]) mkTendU(stage int) func(lo, hi int) {
	g, nu, rf := ks.gravity, ks.viscosity, ks.rayleigh
	a, bw := ks.rkA[stage&3], ks.rkB[stage&3]
	us, hs := ks.uP, ks.hP
	if stage == 0 {
		us, hs = ks.u0, ks.h0
	}
	advOnly := ks.s.Cfg.AdvectionOnly
	return func(lo, hi int) {
		ep := vi32(ks.csr.EdgePtr)
		eoe := vi32(ks.csr.EdgeEdges)
		wts := view(ks.wEdge)
		coe := vi32(ks.s.M.CellsOnEdge)
		voe := vi32(ks.s.M.VerticesOnEdge)
		dc := view(ks.dcEdge)
		dv := view(ks.dvEdge)
		u := view(us)
		h := view(hs)
		tu := view(ks.tendU)
		he := view(ks.hEdge)
		ke := view(ks.ke)
		pve := view(ks.pvEdge)
		b := view(ks.b)
		div := view(ks.div)
		vort := view(ks.vort)
		un := view(ks.uN)
		u0 := view(ks.u0)
		up := view(ks.uP)
		if advOnly {
			for e := lo; e < hi; e++ {
				tu.set(e, 0)
			}
		} else {
			for e := lo; e < hi; e++ {
				ps, pend := int(ep.at(e)), int(ep.at(e+1))
				pe := pve.at(e)
				var q T
				for j := ps; j < pend; j++ {
					k := int(eoe.at(j))
					workPV := 0.5 * (pe + pve.at(k))
					q += wts.at(j) * u.at(k) * he.at(k) * workPV
				}
				c1 := int(coe.at(2 * e))
				c2 := int(coe.at(2*e + 1))
				grad := (ke.at(c2) - ke.at(c1) + g*(h.at(c2)+b.at(c2)-h.at(c1)-b.at(c1))) / dc.at(e)
				tu.set(e, q-grad)
			}
			if nu != 0 {
				for e := lo; e < hi; e++ {
					c1 := int(coe.at(2 * e))
					c2 := int(coe.at(2*e + 1))
					v1 := int(voe.at(2 * e))
					v2 := int(voe.at(2*e + 1))
					tu.set(e, tu.at(e)+nu*((div.at(c2)-div.at(c1))/dc.at(e)-(vort.at(v2)-vort.at(v1))/dv.at(e)))
				}
			}
		}
		if rf != 0 {
			for e := lo; e < hi; e++ {
				tu.set(e, tu.at(e)-rf*u.at(e))
			}
		}
		switch stage {
		case 0:
			for e := lo; e < hi; e++ {
				t := tu.at(e)
				un.set(e, u0.at(e)+bw*t)
				up.set(e, u0.at(e)+a*t)
			}
		case 3:
			for e := lo; e < hi; e++ {
				u0.set(e, un.at(e)+bw*tu.at(e))
			}
		default:
			for e := lo; e < hi; e++ {
				un.set(e, un.at(e)+bw*tu.at(e))
			}
		}
	}
}

// mkX2 / mkX3 compile the provisional-state updates for stages 1 and 2 (at
// stages 0 and 3 they are fused into the tendency ops). Unlike patX2/patX3
// they bind the RK coefficient at compile time instead of reading s.stage.
//
//go:noinline
func (ks *kernelSet[T]) mkX2(stage int) func(lo, hi int) {
	a := ks.rkA[stage&3]
	return func(lo, hi int) {
		h0 := view(ks.h0)
		th := view(ks.tendH)
		hp := view(ks.hP)
		for c := lo; c < hi; c++ {
			hp.set(c, h0.at(c)+a*th.at(c))
		}
	}
}

//go:noinline
func (ks *kernelSet[T]) mkX3(stage int) func(lo, hi int) {
	a := ks.rkA[stage&3]
	return func(lo, hi int) {
		u0 := view(ks.u0)
		tu := view(ks.tendU)
		up := view(ks.uP)
		for e := lo; e < hi; e++ {
			up.set(e, u0.at(e)+a*tu.at(e))
		}
	}
}

// --- compiled compute_solve_diagnostics variants -----------------------------
// Each takes the state arrays the stage reads (hP/uP for stages 0..2, h0/u0
// for stage 3 and for a private plan's entry solve).

//go:noinline
func (ks *kernelSet[T]) cC1(hs []T) func(lo, hi int) {
	return func(lo, hi int) {
		cp := vi32(ks.csr.CellPtr)
		ce := vi32(ks.csr.CellEdges)
		cc := vi32(ks.csr.CellCells)
		dc := view(ks.dcEdge)
		h := view(hs)
		d2 := view(ks.d2fdx2)
		for c := lo; c < hi; c++ {
			ps, pe := int(cp.at(c)), int(cp.at(c+1))
			var acc T
			for j := ps; j < pe; j++ {
				nb := int(cc.at(j))
				d := dc.at(int(ce.at(j)))
				acc += 2 * (h.at(nb) - h.at(c)) / (d * d)
			}
			d2.set(c, acc/T(pe-ps))
		}
	}
}

//go:noinline
func (ks *kernelSet[T]) cD1(hs []T) func(lo, hi int) {
	return func(lo, hi int) {
		coe := vi32(ks.s.M.CellsOnEdge)
		h := view(hs)
		he := view(ks.hEdge)
		for e := lo; e < hi; e++ {
			c1 := int(coe.at(2 * e))
			c2 := int(coe.at(2*e + 1))
			he.set(e, 0.5*(h.at(c1)+h.at(c2)))
		}
	}
}

//go:noinline
func (ks *kernelSet[T]) cD2(hs []T) func(lo, hi int) {
	return func(lo, hi int) {
		coe := vi32(ks.s.M.CellsOnEdge)
		dcv := view(ks.dcEdge)
		h := view(hs)
		d2 := view(ks.d2fdx2)
		he := view(ks.hEdge)
		for e := lo; e < hi; e++ {
			c1 := int(coe.at(2 * e))
			c2 := int(coe.at(2*e + 1))
			dc := dcv.at(e)
			he.set(e, 0.5*(h.at(c1)+h.at(c2))-dc*dc/12*0.5*(d2.at(c1)+d2.at(c2)))
		}
	}
}

//go:noinline
func (ks *kernelSet[T]) cE(us []T) func(lo, hi int) {
	return func(lo, hi int) {
		w := view(ks.wE)
		eov := vi32(ks.s.M.EdgesOnVertex)
		at := view(ks.areaTri)
		u := view(us)
		vort := view(ks.vort)
		for v := lo; v < hi; v++ {
			base := v * 3 // mesh.VertexDegree
			var circ T
			for j := base; j < base+3; j++ {
				circ += w.at(j) * u.at(int(eov.at(j)))
			}
			vort.set(v, circ/at.at(v))
		}
	}
}

//go:noinline
func (ks *kernelSet[T]) cA2(us []T) func(lo, hi int) {
	return func(lo, hi int) {
		cp := vi32(ks.csr.CellPtr)
		ce := vi32(ks.csr.CellEdges)
		w := view(ks.wA1)
		area := view(ks.areaCell)
		u := view(us)
		div := view(ks.div)
		for c := lo; c < hi; c++ {
			ps, pe := int(cp.at(c)), int(cp.at(c+1))
			var acc T
			for j := ps; j < pe; j++ {
				acc += w.at(j) * u.at(int(ce.at(j)))
			}
			div.set(c, acc/area.at(c))
		}
	}
}

//go:noinline
func (ks *kernelSet[T]) cA3(us []T) func(lo, hi int) {
	return func(lo, hi int) {
		cp := vi32(ks.csr.CellPtr)
		ce := vi32(ks.csr.CellEdges)
		w := view(ks.wA3)
		area := view(ks.areaCell)
		u := view(us)
		ke := view(ks.ke)
		for c := lo; c < hi; c++ {
			ps, pe := int(cp.at(c)), int(cp.at(c+1))
			var acc T
			for j := ps; j < pe; j++ {
				ue := u.at(int(ce.at(j)))
				acc += w.at(j) * ue * ue
			}
			ke.set(c, acc/area.at(c))
		}
	}
}

//go:noinline
func (ks *kernelSet[T]) cF(us []T) func(lo, hi int) {
	return func(lo, hi int) {
		ep := vi32(ks.csr.EdgePtr)
		eoe := vi32(ks.csr.EdgeEdges)
		wts := view(ks.wEdge)
		u := view(us)
		v := view(ks.v)
		for e := lo; e < hi; e++ {
			ps, pe := int(ep.at(e)), int(ep.at(e+1))
			var acc T
			for j := ps; j < pe; j++ {
				acc += wts.at(j) * u.at(int(eoe.at(j)))
			}
			v.set(e, acc)
		}
	}
}

//go:noinline
func (ks *kernelSet[T]) cG(hs []T) func(lo, hi int) {
	return func(lo, hi int) {
		kv := view(ks.kite)
		cv := vi32(ks.s.M.CellsOnVertex)
		at := view(ks.areaTri)
		fv := view(ks.fVertex)
		h := view(hs)
		hvd := view(ks.hVert)
		pv := view(ks.pvVert)
		vort := view(ks.vort)
		for v := lo; v < hi; v++ {
			base := v * 3 // mesh.VertexDegree
			var acc T
			for j := base; j < base+3; j++ {
				acc += kv.at(j) * h.at(int(cv.at(j)))
			}
			hv := acc / at.at(v)
			hvd.set(v, hv)
			pv.set(v, (fv.at(v)+vort.at(v))/hv)
		}
	}
}

//go:noinline
func (ks *kernelSet[T]) cC2() func(lo, hi int) {
	return func(lo, hi int) {
		cp := vi32(ks.csr.CellPtr)
		cvt := vi32(ks.csr.CellVerts)
		w := view(ks.wKite)
		pvc := view(ks.pvCell)
		pvv := view(ks.pvVert)
		for c := lo; c < hi; c++ {
			ps, pe := int(cp.at(c)), int(cp.at(c+1))
			var acc T
			for j := ps; j < pe; j++ {
				acc += w.at(j) * pvv.at(int(cvt.at(j)))
			}
			pvc.set(c, acc)
		}
	}
}

// cH1 compiles pattern H1 (edge <- 2 vertices): potential vorticity at
// edges. It reads only diagnostics, so it takes no state.
//
//go:noinline
func (ks *kernelSet[T]) cH1() func(lo, hi int) {
	return func(lo, hi int) {
		voe := vi32(ks.s.M.VerticesOnEdge)
		pve := view(ks.pvEdge)
		pvv := view(ks.pvVert)
		for e := lo; e < hi; e++ {
			v1 := int(voe.at(2 * e))
			v2 := int(voe.at(2*e + 1))
			pve.set(e, 0.5*(pvv.at(v1)+pvv.at(v2)))
		}
	}
}

//go:noinline
func (ks *kernelSet[T]) cB2(us []T) func(lo, hi int) {
	coef := ks.apvmDt
	return func(lo, hi int) {
		voe := vi32(ks.s.M.VerticesOnEdge)
		coe := vi32(ks.s.M.CellsOnEdge)
		dc := view(ks.dcEdge)
		dv := view(ks.dvEdge)
		pve := view(ks.pvEdge)
		pvv := view(ks.pvVert)
		pvc := view(ks.pvCell)
		u := view(us)
		v := view(ks.v)
		for e := lo; e < hi; e++ {
			v1 := int(voe.at(2 * e))
			v2 := int(voe.at(2*e + 1))
			c1 := int(coe.at(2 * e))
			c2 := int(coe.at(2*e + 1))
			gradPVt := (pvv.at(v2) - pvv.at(v1)) / dv.at(e)
			gradPVn := (pvc.at(c2) - pvc.at(c1)) / dc.at(e)
			pve.set(e, pve.at(e)-coef*(v.at(e)*gradPVt+u.at(e)*gradPVn))
		}
	}
}
