package conform

import (
	"bytes"
	"testing"

	"repro/internal/hybrid"
	"repro/internal/par"
	"repro/internal/sw"
)

// TestResumeEquivalence extends the conformance guarantee across a
// checkpoint boundary: a trajectory checkpointed mid-run under the serial
// baseline and resumed under any other exact execution strategy must land
// on the same final state, within the exact-strategy ULP band. This is the
// property internal/serve's resume-under-a-different-mode rides on.
func TestResumeEquivalence(t *testing.T) {
	const (
		steps = 10
		mid   = 4
	)
	c, err := NamedCase("tc5", testMesh, steps)
	if err != nil {
		t.Fatal(err)
	}

	// Uninterrupted serial reference.
	ref, err := sw.NewSolver(c.Mesh, c.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref.Runner = sw.SerialRunner{}
	c.Setup(ref)
	ref.Run(steps)

	// Checkpoint mid-trajectory under the baseline.
	first, err := sw.NewSolver(c.Mesh, c.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	first.Runner = sw.SerialRunner{}
	c.Setup(first)
	first.Run(mid)
	var ckpt bytes.Buffer
	if err := first.WriteCheckpoint(&ckpt); err != nil {
		t.Fatal(err)
	}

	// Resume the remainder under each exact strategy family.
	resumers := []struct {
		name   string
		attach func(s *sw.Solver) (cleanup func(), err error)
	}{
		{"serial", func(s *sw.Solver) (func(), error) {
			s.Runner = sw.SerialRunner{}
			return nil, nil
		}},
		{"threaded-w4", func(s *sw.Solver) (func(), error) {
			pool := par.NewPool(4)
			s.Runner = sw.PoolRunner{Pool: pool}
			return pool.Close, nil
		}},
		{"plan-w4", func(s *sw.Solver) (func(), error) {
			pool := par.NewPool(4)
			r, err := sw.Compile(s, pool, sw.PlanOptions{})
			if err != nil {
				pool.Close()
				return nil, err
			}
			s.Runner = r
			return pool.Close, nil
		}},
		{"taskplan-w4", func(s *sw.Solver) (func(), error) {
			pool := par.NewPool(4)
			r, err := sw.Compile(s, pool, sw.PlanOptions{Tasks: true})
			if err != nil {
				pool.Close()
				return nil, err
			}
			s.Runner = r
			return pool.Close, nil
		}},
		{"kernel-level", func(s *sw.Solver) (func(), error) {
			e := hybrid.NewHybridSolver(s, hybrid.KernelLevelSchedule(), 2, 2)
			return e.Close, nil
		}},
		{"hybrid-f50", func(s *sw.Solver) (func(), error) {
			e := hybrid.NewHybridSolver(s, hybrid.PatternDrivenSchedule(0.5), 2, 2)
			return e.Close, nil
		}},
	}
	for _, r := range resumers {
		t.Run(r.name, func(t *testing.T) {
			s, err := sw.NewSolver(c.Mesh, c.Cfg)
			if err != nil {
				t.Fatal(err)
			}
			cleanup, err := r.attach(s)
			if err != nil {
				t.Fatal(err)
			}
			if cleanup != nil {
				defer cleanup()
			}
			if err := s.ReadCheckpoint(bytes.NewReader(ckpt.Bytes())); err != nil {
				t.Fatal(err)
			}
			if s.StepCount != mid {
				t.Fatalf("restored step %d, want %d", s.StepCount, mid)
			}
			s.Run(steps - mid)

			d := CompareStates(ref.State.H, ref.State.U, s.State.H, s.State.U)
			if !ExactTol.Accepts(d) {
				t.Errorf("resumed-under-%s diverges from uninterrupted serial: %v", r.name, d)
			}
		})
	}
}

// TestResumeAcrossTaskPlanFlag pins resume in BOTH directions across the
// taskplan mode flag: a trajectory checkpointed under barrier-plan execution
// and finished under task-graph execution (and vice versa) must land bitwise
// on the uninterrupted serial state. This is what lets a served job or a rank
// restart flip `-mode taskplan` on an existing checkpoint.
func TestResumeAcrossTaskPlanFlag(t *testing.T) {
	const (
		steps = 8
		mid   = 3
	)
	c, err := NamedCase("tc5", testMesh, steps)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := sw.NewSolver(c.Mesh, c.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref.Runner = sw.SerialRunner{}
	c.Setup(ref)
	ref.Run(steps)

	attachPlan := func(s *sw.Solver) (func(), error) {
		pool := par.NewPool(4)
		r, err := sw.Compile(s, pool, sw.PlanOptions{})
		if err != nil {
			pool.Close()
			return nil, err
		}
		s.Runner = r
		return pool.Close, nil
	}
	attachTask := func(s *sw.Solver) (func(), error) {
		pool := par.NewPool(4)
		r, err := sw.Compile(s, pool, sw.PlanOptions{Tasks: true})
		if err != nil {
			pool.Close()
			return nil, err
		}
		s.Runner = r
		return pool.Close, nil
	}
	for _, tc := range []struct {
		name          string
		before, after func(s *sw.Solver) (func(), error)
	}{
		{"plan-then-taskplan", attachPlan, attachTask},
		{"taskplan-then-plan", attachTask, attachPlan},
	} {
		t.Run(tc.name, func(t *testing.T) {
			first, err := sw.NewSolver(c.Mesh, c.Cfg)
			if err != nil {
				t.Fatal(err)
			}
			cleanup, err := tc.before(first)
			if err != nil {
				t.Fatal(err)
			}
			defer cleanup()
			c.Setup(first)
			first.Run(mid)
			var ckpt bytes.Buffer
			if err := first.WriteCheckpoint(&ckpt); err != nil {
				t.Fatal(err)
			}

			second, err := sw.NewSolver(c.Mesh, c.Cfg)
			if err != nil {
				t.Fatal(err)
			}
			cleanup2, err := tc.after(second)
			if err != nil {
				t.Fatal(err)
			}
			defer cleanup2()
			if err := second.ReadCheckpoint(bytes.NewReader(ckpt.Bytes())); err != nil {
				t.Fatal(err)
			}
			second.Run(steps - mid)

			d := CompareStates(ref.State.H, ref.State.U, second.State.H, second.State.U)
			if !ExactTol.Accepts(d) {
				t.Errorf("%s diverges from uninterrupted serial: %v", tc.name, d)
			}
		})
	}
}
