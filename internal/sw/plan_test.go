package sw

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/mesh"
	"repro/internal/par"
)

// planConfigs is the configuration matrix the compiled plan must reproduce
// bitwise: every branch the compiler specializes on (thickness order, APVM,
// viscosity, friction, advection-only) appears at least once.
func planConfigs(m *mesh.Mesh) map[string]Config {
	cfgs := map[string]Config{}
	base := DefaultConfig(m)
	cfgs["default"] = base

	c := base
	c.APVM = 0
	cfgs["no_apvm"] = c

	c = base
	c.Viscosity = 1e5
	cfgs["viscous"] = c

	c = base
	c.RayleighFriction = 1e-5
	cfgs["rayleigh"] = c

	c = base
	c.AdvectionOnly = true
	cfgs["advection_only"] = c

	c = base
	c.HighOrderThickness = true
	cfgs["high_order"] = c

	c = base
	c.HighOrderThickness = true
	c.Viscosity = 1e5
	c.RayleighFriction = 1e-5
	cfgs["kitchen_sink"] = c
	return cfgs
}

func planTestSolver(tb testing.TB, m *mesh.Mesh, cfg Config, seed int64) *Solver {
	tb.Helper()
	s := MustNewSolver(m, cfg)
	rng := rand.New(rand.NewSource(seed))
	for c := range s.State.H {
		s.State.H[c] = 1000 + 100*rng.Float64()
	}
	for e := range s.State.U {
		s.State.U[e] = 20 * (rng.Float64() - 0.5)
	}
	s.Init()
	return s
}

func planTestMesh(tb testing.TB, level int) *mesh.Mesh {
	tb.Helper()
	m, err := mesh.Build(level, mesh.Options{LloydIterations: 1})
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

func requireSame(tb testing.TB, name string, got, want []float64) {
	tb.Helper()
	for i := range want {
		if got[i] != want[i] {
			tb.Fatalf("%s: element %d differs bitwise: %v vs %v", name, i, got[i], want[i])
		}
	}
}

// TestPlanBitwise checks that the compiled plan reproduces the serial RK-4
// trajectory bitwise — prognostic state every step, and the diagnostics the
// plan keeps live at the end — across the configuration matrix, for both a
// serial and a multi-worker team, with and without a PostSubstep hook.
func TestPlanBitwise(t *testing.T) {
	m := planTestMesh(t, 3)
	const steps = 5
	for name, cfg := range planConfigs(m) {
		for _, nw := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/w%d", name, nw), func(t *testing.T) {
				ref := planTestSolver(t, m, cfg, 11)
				var refHooks []string
				ref.PostSubstep = func(stage int, st *State) {
					refHooks = append(refHooks, fmt.Sprintf("%d:%x:%x", stage, st.H[1], st.U[1]))
				}

				pool := par.NewPool(nw)
				defer pool.Close()
				ps := planTestSolver(t, m, cfg, 11)
				ps.Runner = MustCompile(ps, pool, PlanOptions{})
				var planHooks []string
				ps.PostSubstep = func(stage int, st *State) {
					planHooks = append(planHooks, fmt.Sprintf("%d:%x:%x", stage, st.H[1], st.U[1]))
				}

				for i := 0; i < steps; i++ {
					ref.Step()
					ps.Step()
					requireSame(t, fmt.Sprintf("step %d h", i), ps.State.H, ref.State.H)
					requireSame(t, fmt.Sprintf("step %d u", i), ps.State.U, ref.State.U)
				}
				requireSame(t, "ke", ps.Diag.KE, ref.Diag.KE)
				requireSame(t, "h_vertex", ps.Diag.HVertex, ref.Diag.HVertex)
				requireSame(t, "pv_vertex", ps.Diag.PVVertex, ref.Diag.PVVertex)
				requireSame(t, "h_edge", ps.Diag.HEdge, ref.Diag.HEdge)
				if len(refHooks) != 4*steps {
					t.Fatalf("reference hook fired %d times, want %d", len(refHooks), 4*steps)
				}
				for i := range refHooks {
					if planHooks[i] != refHooks[i] {
						t.Fatalf("hook observation %d differs: %s vs %s", i, planHooks[i], refHooks[i])
					}
				}
				ri := ref.ComputeInvariants()
				pi := ps.ComputeInvariants()
				if ri != pi {
					t.Fatalf("invariants differ: %+v vs %+v", pi, ri)
				}
			})
		}
	}
}

// TestPlanNoHookBitwise pins the hook-free schedule (the one with the hook
// slots and their conditional barriers skipped at runtime).
func TestPlanNoHookBitwise(t *testing.T) {
	m := planTestMesh(t, 3)
	cfg := DefaultConfig(m)
	ref := planTestSolver(t, m, cfg, 3)
	pool := par.NewPool(3)
	defer pool.Close()
	ps := planTestSolver(t, m, cfg, 3)
	ps.Runner = MustCompile(ps, pool, PlanOptions{})
	for i := 0; i < 3; i++ {
		ref.Step()
		ps.Step()
	}
	requireSame(t, "h", ps.State.H, ref.State.H)
	requireSame(t, "u", ps.State.U, ref.State.U)
}

// TestPlanElision checks the liveness pass finds exactly the expected dead
// ops: under the default configuration the divergence, the cell-averaged
// vorticity and the velocity reconstruction have no consumer; under
// AdvectionOnly the momentum tendency reads nothing, so all of
// solve_diagnostics except the invariant fields of the final stage dies too.
func TestPlanElision(t *testing.T) {
	m := planTestMesh(t, 3)

	s := planTestSolver(t, m, DefaultConfig(m), 1)
	r := MustCompile(s, nil, PlanOptions{})
	want := []string{"A2@0", "A2@1", "A2@2", "A2@3", "A4@3", "H2@0", "H2@1", "H2@2", "H2@3", "X6@3"}
	if got := fmt.Sprint(r.Elided()); got != fmt.Sprint(want) {
		t.Errorf("default elision = %v, want %v", r.Elided(), want)
	}

	cfg := DefaultConfig(m)
	cfg.AdvectionOnly = true
	sa := planTestSolver(t, m, cfg, 1)
	ra := MustCompile(sa, nil, PlanOptions{})
	elided := map[string]bool{}
	for _, id := range ra.Elided() {
		elided[id] = true
	}
	// The full diagnostic chain B2/C2/F/H1 dies at every stage; E, A3 and G
	// survive only at stage 3, where the invariants read their outputs.
	for _, id := range []string{"B2@0", "B2@3", "C2@0", "C2@3", "F@0", "F@3", "H1@0", "H1@3",
		"E@0", "E@2", "A3@0", "A3@2", "G@0", "G@2"} {
		if !elided[id] {
			t.Errorf("advection-only: expected %s elided; elided set = %v", id, ra.Elided())
		}
	}
	for _, id := range []string{"E@3", "A3@3", "G@3", "D1@0", "D1@3"} {
		if elided[id] {
			t.Errorf("advection-only: %s must stay live; elided set = %v", id, ra.Elided())
		}
	}

	// A viscous run needs the divergence: A2 must come back.
	cfg = DefaultConfig(m)
	cfg.Viscosity = 1e5
	sv := planTestSolver(t, m, cfg, 1)
	rv := MustCompile(sv, nil, PlanOptions{})
	for _, id := range rv.Elided() {
		if strings.HasPrefix(id, "A2@") {
			t.Errorf("viscous: A2 elided but the viscosity pass reads divergence")
		}
	}
}

// TestPlanScheduleVerified checks the compile-time schedule verification is
// effective: dropping any single barrier from the compiled step schedule
// must leave some dependency edge uncovered (either in the hook-carrying or
// the hook-free variant), across the configuration matrix and team sizes.
func TestPlanScheduleBarrierNecessity(t *testing.T) {
	m := planTestMesh(t, 3)
	for name, cfg := range planConfigs(m) {
		t.Run(name, func(t *testing.T) {
			s := planTestSolver(t, m, cfg, 1)
			pool := par.NewPool(4)
			defer pool.Close()
			r := MustCompile(s, pool, PlanOptions{})
			p := r.stepPlan
			if err := p.verify(); err != nil {
				t.Fatalf("compiled schedule fails its own verification: %v", err)
			}
			dropped := 0
			for pos := range p.barrierAfter {
				if !p.barrierAfter[pos] {
					continue
				}
				p.barrierAfter[pos] = false
				err := p.verify()
				p.barrierAfter[pos] = true
				if err == nil {
					t.Errorf("dropping the barrier after %s (position %d) goes undetected",
						p.ops[pos].id, pos)
				}
				dropped++
			}
			if dropped == 0 {
				t.Fatal("schedule has no barriers to drop")
			}
		})
	}
}

// TestPlanScheduleShape pins structural facts of the default compiled step:
// fused ops present, the barrier count far below the kernel-by-kernel
// runner's synchronization count, and stage coverage of the hook slots.
func TestPlanScheduleShape(t *testing.T) {
	m := planTestMesh(t, 3)
	s := planTestSolver(t, m, DefaultConfig(m), 1)
	r := MustCompile(s, nil, PlanOptions{})
	ids := r.OpIDs()
	joined := strings.Join(ids, " ")
	for _, want := range []string{"A1+X4+X2@0", "B1+X1+X5+X3@0", "A1+X4+commit@3", "X2@1", "hook@0", "hook@3", "B2@3"} {
		if !strings.Contains(joined, want) {
			t.Errorf("schedule %v missing op %s", ids, want)
		}
	}
	// 4 stages x (levels-1) barriers; the PoolRunner equivalent pays 6 region
	// forks + ~11 intra-kernel barriers per stage. Exact count pinned so
	// schedule regressions are visible.
	if got := r.Barriers(); got < 16 || got > 24 {
		t.Errorf("default plan has %d barriers, expected roughly 21", got)
	}
	hooks := 0
	for _, id := range ids {
		if strings.HasPrefix(id, "hook@") {
			hooks++
		}
	}
	if hooks != 4 {
		t.Errorf("schedule has %d hook slots, want 4", hooks)
	}
}

// TestPlanStepAllocFree pins the allocation-free dispatch guarantee for the
// whole compiled step.
func TestPlanStepAllocFree(t *testing.T) {
	m := planTestMesh(t, 3)
	for _, nw := range []int{1, 4} {
		pool := par.NewPool(nw)
		defer pool.Close()
		s := planTestSolver(t, m, DefaultConfig(m), 5)
		s.Runner = MustCompile(s, pool, PlanOptions{})
		if a := testing.AllocsPerRun(10, func() { s.Step() }); a != 0 {
			t.Errorf("nw=%d: plan step allocates %.1f objects, want 0", nw, a)
		}
	}
}

// TestPlanRace drives the multi-worker plan on a small mesh; meaningful
// under -race (scripts/ci.sh runs this package with the race detector).
func TestPlanRace(t *testing.T) {
	m := planTestMesh(t, 2)
	cfg := DefaultConfig(m)
	cfg.Viscosity = 1e5
	cfg.RayleighFriction = 1e-5
	pool := par.NewPool(4)
	defer pool.Close()
	s := planTestSolver(t, m, cfg, 9)
	s.Runner = MustCompile(s, pool, PlanOptions{})
	s.PostSubstep = func(stage int, st *State) { _ = st.H[0] }
	s.Run(10)
	if s.StepCount != 10 {
		t.Fatalf("StepCount = %d, want 10", s.StepCount)
	}
}

// TestPlanRunnerKernelFallback checks the non-step path: Init through a
// PlanRunner (leveled per-kernel schedules over the original patterns) must
// match Init through the serial runner bitwise, including the diagnostics
// the step plan would elide.
func TestPlanRunnerKernelFallback(t *testing.T) {
	m := planTestMesh(t, 3)
	ref := planTestSolver(t, m, DefaultConfig(m), 13)

	pool := par.NewPool(4)
	defer pool.Close()
	ps := planTestSolver(t, m, DefaultConfig(m), 13)
	ps.Runner = MustCompile(ps, pool, PlanOptions{})
	ps.Init()

	requireSame(t, "init h_edge", ps.Diag.HEdge, ref.Diag.HEdge)
	requireSame(t, "init divergence", ps.Diag.Divergence, ref.Diag.Divergence)
	requireSame(t, "init vorticity_cell", ps.Diag.VorticityCell, ref.Diag.VorticityCell)
	requireSame(t, "init pv_edge", ps.Diag.PVEdge, ref.Diag.PVEdge)
	requireSame(t, "init zonal", ps.Recon.Zonal, ref.Recon.Zonal)
}

// TestPlanTracersFallBack checks a solver with tracers keeps the original
// kernel-by-kernel step (tracer advection is outside the compiled program)
// and still matches the serial trajectory bitwise.
func TestPlanTracersFallBack(t *testing.T) {
	m := planTestMesh(t, 2)
	mkTracer := func(s *Solver) {
		q := make([]float64, m.NCells)
		for c := range q {
			q[c] = float64(c%7) * 0.1
		}
		s.AddTracer("q", q)
	}
	ref := planTestSolver(t, m, DefaultConfig(m), 17)
	mkTracer(ref)

	pool := par.NewPool(2)
	defer pool.Close()
	ps := planTestSolver(t, m, DefaultConfig(m), 17)
	mkTracer(ps)
	ps.Runner = MustCompile(ps, pool, PlanOptions{})

	for i := 0; i < 3; i++ {
		ref.Step()
		ps.Step()
	}
	requireSame(t, "tracer h", ps.State.H, ref.State.H)
	requireSame(t, "tracer u", ps.State.U, ref.State.U)
	requireSame(t, "tracer q", ps.Tracers[0].Q, ref.Tracers[0].Q)
}

// TestAlignedRanges checks the partition invariants the locality predicate
// relies on: cover [0,n) exactly, monotone, and all interior boundaries on
// cache-line alignment for the element size (8 float64s, 16 float32s).
func TestAlignedRanges(t *testing.T) {
	for _, align := range []int{8, 16} {
		for _, n := range []int{0, 1, 7, 8, 63, 642, 2562, 10242, 30720} {
			for _, nw := range []int{1, 2, 3, 4, 7, 16} {
				rs := alignedRanges(n, nw, align)
				if len(rs) != nw {
					t.Fatalf("n=%d nw=%d: %d ranges", n, nw, len(rs))
				}
				prev := int32(0)
				for w, r := range rs {
					if r[0] != prev {
						t.Fatalf("n=%d nw=%d: worker %d starts at %d, want %d", n, nw, w, r[0], prev)
					}
					if r[1] < r[0] {
						t.Fatalf("n=%d nw=%d: worker %d has negative range", n, nw, w)
					}
					if w < nw-1 && int(r[1])%align != 0 && int(r[1]) != n {
						t.Fatalf("n=%d nw=%d: interior boundary %d not %d-aligned", n, nw, r[1], align)
					}
					prev = r[1]
				}
				if int(prev) != n {
					t.Fatalf("n=%d nw=%d: ranges cover %d", n, nw, prev)
				}
			}
		}
	}
}
