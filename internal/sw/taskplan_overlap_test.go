package sw_test

import (
	"testing"

	"repro/internal/par"
	"repro/internal/partition"
	"repro/internal/sw"
	"repro/internal/testcases"
)

// The overlay neutrality tests from overlap_test.go, replayed under task-graph
// execution: the same extremes and the same real-depth mid-split must stay
// bitwise-neutral when the wait no longer stalls the whole team but gates only
// the boundary-slice tasks of its stage.

func TestOverlapTaskPlanSplitExtremesBitwiseNeutral(t *testing.T) {
	for _, workers := range []int{1, 3} {
		for _, width := range []int{0, 1 << 20} {
			ref := newTC2Solver(t, 3)
			ref.Runner = sw.MustCompile(ref, nil, sw.PlanOptions{})
			ref.Run(3)

			s := newTC2Solver(t, 3)
			pool := par.NewPool(workers)
			defer pool.Close()
			m := s.M
			var posts, waits int
			r, err := sw.Compile(s, pool, sw.PlanOptions{Tasks: true, Overlap: noopOverlap(m.NCells, m.NEdges, m.NVertices, width, &posts, &waits)})
			if err != nil {
				t.Fatalf("workers=%d width=%d: %v", workers, width, err)
			}
			if !r.TaskMode() {
				t.Fatal("overlay runner not in task mode")
			}
			s.Runner = r
			s.Run(3)
			if posts != 12 || waits != 12 {
				t.Fatalf("workers=%d width=%d: %d posts, %d waits; want 12 each (4/step x 3 steps)",
					workers, width, posts, waits)
			}
			for i := range ref.State.H {
				if s.State.H[i] != ref.State.H[i] {
					t.Fatalf("workers=%d width=%d: H[%d] %v != %v",
						workers, width, i, s.State.H[i], ref.State.H[i])
				}
			}
			for i := range ref.State.U {
				if s.State.U[i] != ref.State.U[i] {
					t.Fatalf("workers=%d width=%d: U[%d] %v != %v",
						workers, width, i, s.State.U[i], ref.State.U[i])
				}
			}
		}
	}
}

func TestOverlapTaskPlanRealDepthSplitBitwiseNeutral(t *testing.T) {
	g := testMesh(t, 3)
	p, err := partition.Bisect(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	l := partition.Extract(g, p, 0, 3)
	cfg := sw.DefaultConfig(l.M)

	newLocal := func() *sw.Solver {
		s, err := sw.NewSolver(l.M, cfg)
		if err != nil {
			t.Fatal(err)
		}
		testcases.SetupTC2(s)
		return s
	}
	ref := newLocal()
	ref.Runner = sw.MustCompile(ref, nil, sw.PlanOptions{})
	ref.Run(3)

	for _, workers := range []int{1, 2, 4} {
		s := newLocal()
		pool := par.NewPool(workers)
		defer pool.Close()
		var posts, waits int
		ov := &sw.Overlap{
			Post:             func(stage int, st *sw.State) { posts++ },
			Wait:             func(stage int, st *sw.State) { waits++ },
			InteriorCells:    l.InteriorCells,
			InteriorEdges:    l.InteriorEdges,
			InteriorVertices: l.InteriorVertices,
		}
		r, err := sw.Compile(s, pool, sw.PlanOptions{Tasks: true, Overlap: ov})
		if err != nil {
			t.Fatal(err)
		}
		if ic := l.InteriorCells(1); ic <= 0 || ic >= l.M.NCells {
			t.Fatalf("degenerate interior split %d of %d cells", ic, l.M.NCells)
		}
		s.Runner = r
		s.Run(3)
		if posts != 12 || waits != 12 {
			t.Fatalf("workers=%d: %d posts, %d waits; want 12 each", workers, posts, waits)
		}
		for i := range ref.State.H {
			if s.State.H[i] != ref.State.H[i] {
				t.Fatalf("workers=%d: H[%d] %v != %v (depth %d)",
					workers, i, s.State.H[i], ref.State.H[i], l.CellDepth[i])
			}
		}
		for i := range ref.State.U {
			if s.State.U[i] != ref.State.U[i] {
				t.Fatalf("workers=%d: U[%d] %v != %v (depth %d)",
					workers, i, s.State.U[i], ref.State.U[i], l.EdgeDepth[i])
			}
		}
	}
}

// TestOverlapTaskPlanFallsBackUnderHook: a PostSubstep hook invalidates the
// overlay contract (it may rewrite halo values the exchange already shipped),
// so the solver must drop to the kernel loop exactly as it does in barrier
// mode — the task graph must not run.
func TestOverlapTaskPlanFallsBackUnderHook(t *testing.T) {
	s := newTC2Solver(t, 2)
	m := s.M
	var posts, waits int
	r, err := sw.Compile(s, nil, sw.PlanOptions{Tasks: true, Overlap: noopOverlap(m.NCells, m.NEdges, m.NVertices, 5, &posts, &waits)})
	if err != nil {
		t.Fatal(err)
	}
	s.Runner = r
	s.PostSubstep = func(stage int, st *sw.State) {}
	s.Step()
	if posts != 0 || waits != 0 {
		t.Fatalf("overlaid task runner ran under a hook: %d posts, %d waits", posts, waits)
	}
	if got := r.TaskGraph().TasksExecuted(); got != 0 {
		t.Fatalf("task graph executed %d tasks under a hook, want 0", got)
	}
}
