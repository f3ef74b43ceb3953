package serve

import (
	"context"
	"errors"
	"fmt"
	"time"

	mpas "repro"
	"repro/internal/sw"
	"repro/internal/testcases"
)

// Worker-internal sentinels threaded through sw.RunControl.Interrupt.
var (
	errStopped   = errors.New("serve: server stopping")
	errSuspended = errors.New("serve: job suspended")
)

// workerLoop is one worker: pop, claim, run, repeat until the queue closes.
func (s *Server) workerLoop(i int) {
	defer s.wg.Done()
	for {
		job, ok := s.queue.Pop()
		if !ok {
			return
		}
		s.mQueueDepth.Set(float64(s.queue.Len()))
		s.runJob(job)
	}
}

// setProgress records trajectory position (in memory; durability rides on
// the checkpoint cadence).
func (j *Job) setProgress(steps, total int, simTime float64) {
	j.mu.Lock()
	j.stepsDone = steps
	j.totalSteps = total
	j.simTime = simTime
	j.mu.Unlock()
}

// runJob claims a popped job and executes it to its next lifecycle
// boundary: completion, failure, cancellation, suspension (user or drain),
// or a crash-like server stop.
func (s *Server) runJob(job *Job) {
	spec := job.Status().Spec // immutable after admission

	timeout := spec.TimeoutSec
	if timeout <= 0 {
		timeout = s.cfg.JobTimeoutSec
	}
	ctx := context.Background()
	var cancel context.CancelFunc
	if timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, time.Duration(timeout*float64(time.Second)))
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	defer cancel()

	// A job canceled or suspended while queued fails the claim and is
	// skipped: that transition already persisted and published its state.
	st, err := s.transition(job, StateRunning, func(j *Job) { j.cancel = cancel }, Event{})
	if err != nil {
		return
	}
	runCtx := s.tRun.Start()
	defer runCtx.Stop()
	start := time.Now()

	// Build the model under the job's currently effective mode.
	mode, err := mpas.ParseMode(st.Mode)
	if err != nil {
		s.finish(job, err, nil, nil)
		return
	}
	buildCtx := s.tBuild.Start()
	m, err := s.meshForLevel(spec.Level)
	if err != nil {
		buildCtx.Stop()
		s.finish(job, fmt.Errorf("building mesh: %w", err), nil, nil)
		return
	}
	model, err := mpas.New(mpas.Options{
		Mesh:               m,
		Level:              spec.Level,
		TestCase:           mpas.TestCase(spec.TestCase),
		Mode:               mode,
		Workers:            spec.Workers,
		DeviceWorkers:      spec.Workers,
		AdjustableFraction: -1,
		HighOrderThickness: spec.HighOrder,
		Precision:          spec.Precision,
		Reorder:            spec.Reorder,
	})
	buildCtx.Stop()
	if err != nil {
		s.finish(job, fmt.Errorf("building model: %w", err), nil, nil)
		return
	}
	defer model.Close()
	solver := model.Solver

	total := spec.Steps
	if spec.Days > 0 {
		total = int(spec.Days*testcases.Day/model.Config.Dt + 0.5)
	}
	ckptEvery := spec.CheckpointEvery
	if ckptEvery <= 0 {
		ckptEvery = s.cfg.CheckpointEvery
	}
	stepDelay := time.Duration(spec.StepDelayMS) * time.Millisecond

	// Ensemble jobs multiplex K member trajectories through this one
	// solver (shared mesh + compiled plan); their checkpoint format and
	// round-robin step loop live in ensemble_run.go.
	if spec.Ensemble > 1 {
		s.runEnsemble(ctx, job, solver, st, total, ckptEvery, stepDelay, start)
		return
	}

	// Resume from the spooled checkpoint when one exists; the test-case
	// setup above fixed the topography and initial condition, the
	// checkpoint overwrites the prognostic state and clock.
	if s.spool.hasCheckpoint(job.ID) {
		if err := solver.LoadCheckpoint(s.spool.checkpointPath(job.ID)); err != nil {
			s.finish(job, fmt.Errorf("loading checkpoint: %w", err), nil, nil)
			return
		}
	}

	job.setProgress(solver.StepCount, total, solver.Time)
	remaining := total - solver.StepCount
	if remaining < 0 {
		remaining = 0
	}

	publishDiag := func(sv *sw.Solver) {
		job.broker.publish(Event{Type: "diag", JobID: job.ID,
			Step: sv.StepCount, TotalSteps: total, SimTime: sv.Time,
			Diag: diagOf(sv.ComputeInvariants())})
	}
	publishDiag(solver) // position at (re)start, before the first step

	lastCounted := solver.StepCount
	countSteps := func(sv *sw.Solver) {
		s.mSteps.Add(int64(sv.StepCount - lastCounted))
		lastCounted = sv.StepCount
	}

	save := func() error {
		return s.checkpoint(job, solver, solver.StepCount, total, solver.Time)
	}
	runErr := solver.RunControlled(remaining, sw.RunControl{
		Interrupt:   s.interruptFor(ctx, job, stepDelay),
		ReportEvery: spec.ReportEvery,
		Report: func(sv *sw.Solver) error {
			job.setProgress(sv.StepCount, total, sv.Time)
			countSteps(sv)
			publishDiag(sv)
			return nil
		},
		CheckpointEvery: ckptEvery,
		Checkpoint: func(*sw.Solver) error {
			if err := save(); err != nil {
				return fmt.Errorf("writing checkpoint: %w", err)
			}
			return nil
		},
	})
	job.setProgress(solver.StepCount, total, solver.Time)
	countSteps(solver)

	s.finish(job, runErr, save, func() (Result, error) {
		return Result{
			JobID:       job.ID,
			Steps:       solver.StepCount,
			SimTime:     solver.Time,
			WallSeconds: time.Since(start).Seconds(),
			Mode:        st.Mode,
			Resumes:     st.Resumes,
			Final:       diagOf(solver.ComputeInvariants()),
		}, nil
	})
}

// interruptFor builds the per-step cooperative interrupt for a job: the
// optional pacing delay, the crash-like server stop, pending suspend
// requests, and context cancellation/deadline, in that order.
func (s *Server) interruptFor(ctx context.Context, job *Job, stepDelay time.Duration) func() error {
	return func() error {
		if stepDelay > 0 {
			t := time.NewTimer(stepDelay)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
			case <-s.stopCh:
				t.Stop()
			}
		}
		select {
		case <-s.stopCh:
			return errStopped
		default:
		}
		if job.suspendRequested() != "" {
			return errSuspended
		}
		return ctx.Err()
	}
}

// checkpoint writes the durable pair (ckpt.bin, status.json) of a job at
// trajectory position (step, simTime) and publishes a checkpoint event.
func (s *Server) checkpoint(job *Job, cp checkpointer, step, total int, simTime float64) error {
	tctx := s.tCheckpoint.Start()
	err := s.spool.writeCheckpoint(job.ID, cp)
	tctx.Stop()
	if err != nil {
		return err
	}
	job.setProgress(step, total, simTime)
	if err := s.spool.writeStatus(job.Status()); err != nil {
		return err
	}
	job.broker.publish(Event{Type: "checkpoint", JobID: job.ID,
		Step: step, TotalSteps: total, SimTime: simTime})
	return nil
}
