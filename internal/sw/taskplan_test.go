package sw

import (
	"fmt"
	"testing"

	"repro/internal/par"
)

// TestTaskPlanBitwise checks that task-graph execution reproduces the serial
// RK-4 trajectory bitwise across the configuration matrix — the same
// guarantee TestPlanBitwise pins for the barrier schedule, now under
// work-stealing point-to-point scheduling, with and without a PostSubstep
// hook observing the substates.
func TestTaskPlanBitwise(t *testing.T) {
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
				ts := planTestSolver(t, m, cfg, 11)
				ts.Runner = MustCompile(ts, pool, PlanOptions{Tasks: true})
				var taskHooks []string
				ts.PostSubstep = func(stage int, st *State) {
					taskHooks = append(taskHooks, fmt.Sprintf("%d:%x:%x", stage, st.H[1], st.U[1]))
				}

				for i := 0; i < steps; i++ {
					ref.Step()
					ts.Step()
					requireSame(t, fmt.Sprintf("step %d h", i), ts.State.H, ref.State.H)
					requireSame(t, fmt.Sprintf("step %d u", i), ts.State.U, ref.State.U)
				}
				requireSame(t, "ke", ts.Diag.KE, ref.Diag.KE)
				requireSame(t, "h_vertex", ts.Diag.HVertex, ref.Diag.HVertex)
				requireSame(t, "pv_vertex", ts.Diag.PVVertex, ref.Diag.PVVertex)
				if len(refHooks) != 4*steps {
					t.Fatalf("reference hook fired %d times, want %d", len(refHooks), 4*steps)
				}
				for i := range refHooks {
					if taskHooks[i] != refHooks[i] {
						t.Fatalf("hook observation %d differs: %s vs %s", i, taskHooks[i], refHooks[i])
					}
				}
			})
		}
	}
}

// TestTaskPlanMatchesPlanBitwise is the tentpole's direct claim: the task
// graph and the level-barrier schedule execute the exact same tasks over the
// exact same ranges, so their trajectories are identical to the last bit —
// including at worker counts where stealing actually interleaves.
func TestTaskPlanMatchesPlanBitwise(t *testing.T) {
	m := planTestMesh(t, 3)
	cfg := planConfigs(m)["kitchen_sink"]
	for _, nw := range []int{1, 4, 8} {
		t.Run(fmt.Sprintf("w%d", nw), func(t *testing.T) {
			pool := par.NewPool(nw)
			defer pool.Close()
			ps := planTestSolver(t, m, cfg, 23)
			ps.Runner = MustCompile(ps, pool, PlanOptions{})

			tpool := par.NewPool(nw)
			defer tpool.Close()
			ts := planTestSolver(t, m, cfg, 23)
			ts.Runner = MustCompile(ts, tpool, PlanOptions{Tasks: true})

			for i := 0; i < 8; i++ {
				ps.Step()
				ts.Step()
				requireSame(t, fmt.Sprintf("step %d h", i), ts.State.H, ps.State.H)
				requireSame(t, fmt.Sprintf("step %d u", i), ts.State.U, ps.State.U)
			}
		})
	}
}

// TestTaskPlanGraphShape pins the compiled graph's structural accounting:
// one task per non-empty (op, worker-range) pair plus one per serial slot,
// root tasks only at true program entry points, and a complete execution
// (every task runs exactly once per step).
func TestTaskPlanGraphShape(t *testing.T) {
	m := planTestMesh(t, 2)
	cfg := planConfigs(m)["default"]
	for _, nw := range []int{1, 4} {
		pool := par.NewPool(nw)
		s := planTestSolver(t, m, cfg, 7)
		r := MustCompile(s, pool, PlanOptions{Tasks: true})
		if !r.TaskMode() {
			t.Fatalf("nw=%d: runner not in task mode", nw)
		}
		g := r.TaskGraph()
		want := 0
		for _, op := range r.stepPlan.ops {
			if op.hook || op.post || op.wait {
				want++
				continue
			}
			for _, rg := range op.ranges {
				if rg[0] < rg[1] {
					want++
				}
			}
		}
		if g.Tasks() != want {
			t.Errorf("nw=%d: graph has %d tasks, schedule implies %d", nw, g.Tasks(), want)
		}
		if g.Edges() == 0 || g.Seeds() == 0 || g.Seeds() >= g.Tasks() {
			t.Errorf("nw=%d: degenerate graph: %d edges, %d seeds of %d tasks",
				nw, g.Edges(), g.Seeds(), g.Tasks())
		}
		s.Runner = r
		s.Step()
		s.Step()
		if got := g.TasksExecuted(); got != int64(2*g.Tasks()) {
			t.Errorf("nw=%d: executed %d tasks over 2 steps, want %d", nw, got, 2*g.Tasks())
		}
		pool.Close()
	}
}

// TestTaskPlanVerifierCatchesMissingEdges feeds the independent verifier a
// graph with the right tasks but NO dependency edges: it must reject it.
// This is the analogue of TestPlanScheduleBarrierNecessity — evidence the
// compile-time check has teeth.
func TestTaskPlanVerifierCatchesMissingEdges(t *testing.T) {
	m := planTestMesh(t, 2)
	s := planTestSolver(t, m, planConfigs(m)["default"], 7)
	pool := par.NewPool(2)
	defer pool.Close()
	r := MustCompile(s, pool, PlanOptions{Tasks: true})
	_, nodes, err := r.buildTaskGraph(r.stepPlan)
	if err != nil {
		t.Fatal(err)
	}
	bare := par.NewTaskGraph(pool)
	for i := 0; i < r.tasks.Tasks(); i++ {
		bare.AddTask(0, func() {})
	}
	if err := bare.Freeze(); err != nil {
		t.Fatal(err)
	}
	if err := verifyTaskGraph(r.stepPlan, bare, nodes, pool.Workers()); err == nil {
		t.Fatal("verifier accepted an edgeless task graph")
	}
}

// TestTaskPlanStepAllocFree: the steady-state claim — a compiled step,
// replaying the frozen task graph or the barrier schedule at either
// precision, allocates nothing, at any worker count.
func TestTaskPlanStepAllocFree(t *testing.T) {
	m := planTestMesh(t, 2)
	cfg := planConfigs(m)["default"]
	for _, opts := range []PlanOptions{{}, {Tasks: true}, {Float32: true}, {Float32: true, Tasks: true}} {
		for _, nw := range []int{1, 4} {
			pool := par.NewPool(nw)
			s := planTestSolver(t, m, cfg, 3)
			s.Runner = MustCompile(s, pool, opts)
			s.Step() // warm-up
			if n := testing.AllocsPerRun(5, s.Step); n != 0 {
				t.Errorf("%+v nw=%d: compiled step allocates %v times, want 0", opts, nw, n)
			}
			pool.Close()
		}
	}
}

// TestTaskPlanRace drives the work-stealing runtime hard under -race: many
// workers on a small mesh (tiny tiles, so steals and parks are frequent),
// the full kitchen-sink configuration, and an installed hook.
func TestTaskPlanRace(t *testing.T) {
	m := planTestMesh(t, 2)
	cfg := planConfigs(m)["kitchen_sink"]
	pool := par.NewPool(4)
	defer pool.Close()
	s := planTestSolver(t, m, cfg, 5)
	s.Runner = MustCompile(s, pool, PlanOptions{Tasks: true})
	hooks := 0
	s.PostSubstep = func(stage int, st *State) { hooks++ }
	s.Run(10)
	if hooks != 40 {
		t.Fatalf("hook fired %d times, want 40", hooks)
	}
	ref := planTestSolver(t, m, cfg, 5)
	ref.Run(10)
	requireSame(t, "h", s.State.H, ref.State.H)
	requireSame(t, "u", s.State.U, ref.State.U)
}

// TestTaskPlanRunnerSharesPlanPaths: non-step paths (RunKernel via Init) and
// the compile counter behave exactly as the barrier runner's.
func TestTaskPlanRunnerSharesPlanPaths(t *testing.T) {
	m := planTestMesh(t, 2)
	s := planTestSolver(t, m, planConfigs(m)["default"], 9)
	before := PlanCompileCount()
	r := MustCompile(s, nil, PlanOptions{Tasks: true})
	if PlanCompileCount() != before+1 {
		t.Errorf("task-plan compile performed %d plan compilations, want 1", PlanCompileCount()-before)
	}
	s.Runner = r
	s.Init() // runs the kernel plans, not the task graph
	if got := r.TaskGraph().TasksExecuted(); got != 0 {
		t.Errorf("Init executed %d step tasks, want 0", got)
	}
	s.Step()
	if got := r.TaskGraph().TasksExecuted(); got == 0 {
		t.Error("Step did not run the task graph")
	}
}
