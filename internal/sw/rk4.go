package sw

import "repro/internal/pattern"

// This file is the RK-4 time-stepping driver — the literal transcription of
// Algorithm 1 of the paper into kernel invocations. Which processor(s)
// execute the kernels is entirely the Runner's business.

// stageSpanNames are fixed so tracing a stage never formats a string.
var stageSpanNames = [4]string{"rk4_stage_0", "rk4_stage_1", "rk4_stage_2", "rk4_stage_3"}

// Init computes the diagnostics and reconstruction for the current state.
// Call once after setting initial conditions, before the first Step.
func (s *Solver) Init() {
	s.cur = s.State
	s.stageSpan = s.Trace.StartSpan("init")
	s.runKernel(pattern.KernelSolveDiagnostics)
	s.runKernel(pattern.KernelReconstruct)
	s.stageSpan.End()
	s.stageSpan = nil
}

// Step advances the model by one RK-4 time step (Algorithm 1). When a
// PlanRunner compiled for this solver and this configuration is attached,
// the step executes through its compiled schedule — one parallel region (or
// task graph) for the whole step — instead of the kernel-by-kernel loop
// below. The plan does not apply, and the step falls back to the loop
// (counted in sw_step_fallback_total), when
//
//   - Cfg was mutated after compilation (the plan specialized on it),
//   - tracers are registered (their advection is not part of the program), or
//   - a PostSubstep hook is installed on a plan without hook slots: an
//     overlaid plan compiled them into Post/Wait exchange ops, and a float32
//     plan's intermediate states live in arrays the hook cannot see.
func (s *Solver) Step() {
	if pr, ok := s.Runner.(*PlanRunner); ok {
		if pr.s == s && pr.cfg == s.Cfg && len(s.Tracers) == 0 && (pr.hooks || s.PostSubstep == nil) {
			pr.step()
			return
		}
		s.fallbackCounter.Inc()
	}
	step := s.Trace.StartSpan("rk4_step")
	s.Provis.CopyFrom(s.State)
	s.next.CopyFrom(s.State)
	s.tracerStepBegin()
	s.cur = s.Provis
	for s.stage = 0; s.stage < 4; s.stage++ {
		s.stageSpan = step.StartChild(stageSpanNames[s.stage])
		s.runKernel(pattern.KernelComputeTend)
		if len(s.Tracers) > 0 {
			// Tracer flux divergence uses the same provisional state and
			// edge thickness the thickness tendency just consumed.
			s.tracerTend()
		}
		s.runKernel(pattern.KernelEnforceBoundaryEdge)
		if s.stage < 3 {
			s.runKernel(pattern.KernelNextSubstepState)
			s.tracerSubstep()
			if s.PostSubstep != nil {
				s.PostSubstep(s.stage, s.Provis)
			}
			s.runKernel(pattern.KernelSolveDiagnostics)
			s.runKernel(pattern.KernelAccumulativeUpdate)
		} else {
			s.runKernel(pattern.KernelAccumulativeUpdate)
			s.tracerSubstep()
			s.State.CopyFrom(s.next)
			s.tracerStepEnd()
			s.cur = s.State
			if s.PostSubstep != nil {
				s.PostSubstep(s.stage, s.State)
			}
			s.runKernel(pattern.KernelSolveDiagnostics)
			s.runKernel(pattern.KernelReconstruct)
		}
		s.stageSpan.End()
	}
	s.stageSpan = nil
	s.StepCount++
	s.Time += s.Cfg.Dt
	s.stepsCounter.Inc()
	step.End()
}

// Run advances n steps.
func (s *Solver) Run(n int) {
	for i := 0; i < n; i++ {
		s.Step()
	}
}

func (s *Solver) runKernel(name string) {
	sp := s.stageSpan.StartChild(name)
	tm := s.kernelTimers[name]
	ctx := tm.Start()
	s.Runner.RunKernel(s.kernels[name])
	ctx.Stop()
	sp.End()
}
