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

// claimRun atomically moves a queued job to running, installing the cancel
// function. Jobs canceled or suspended while queued fail the claim and are
// simply skipped (their state is already persisted and published).
func (j *Job) claimRun(cancel func()) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateRunning
	j.cancel = cancel
	return true
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

// runJob executes one claimed job to its next lifecycle boundary:
// completion, failure, cancellation, suspension (user or drain), or a
// crash-like server stop.
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

	if !job.claimRun(cancel) {
		return
	}
	s.mStateGauges[StateQueued].Add(-1)
	s.mStateGauges[StateRunning].Add(1)
	st := s.updateJob(job, func(*Job) {}) // persist the running state
	job.broker.publish(Event{Type: "state", JobID: job.ID, State: StateRunning,
		Step: st.StepsDone, TotalSteps: st.TotalSteps, SimTime: st.SimTime})
	runCtx := s.tRun.Start()
	defer runCtx.Stop()
	start := time.Now()

	// Build the model under the job's currently effective mode.
	mode, err := mpas.ParseMode(st.Mode)
	if err != nil {
		s.finishFailed(job, err)
		return
	}
	buildCtx := s.tBuild.Start()
	m, err := s.meshForLevel(spec.Level)
	if err != nil {
		buildCtx.Stop()
		s.finishFailed(job, fmt.Errorf("building mesh: %w", err))
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
		s.finishFailed(job, fmt.Errorf("building model: %w", err))
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
		s.runEnsemble(ctx, job, solver, spec, st.Mode, st.Resumes, total, ckptEvery, stepDelay, start)
		return
	}

	// Resume from the spooled checkpoint when one exists; the test-case
	// setup above fixed the topography and initial condition, the
	// checkpoint overwrites the prognostic state and clock.
	if s.spool.hasCheckpoint(job.ID) {
		if err := solver.LoadCheckpoint(s.spool.checkpointPath(job.ID)); err != nil {
			s.finishFailed(job, fmt.Errorf("loading checkpoint: %w", err))
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
		Checkpoint: func(sv *sw.Solver) error {
			if err := s.checkpoint(job, sv, total); err != nil {
				return fmt.Errorf("writing checkpoint: %w", err)
			}
			return nil
		},
	})
	job.setProgress(solver.StepCount, total, solver.Time)
	countSteps(solver)

	switch {
	case runErr == nil:
		// Final checkpoint first: the durable state a client downloads (or
		// a conformance test compares) is exactly the completed trajectory.
		if err := s.checkpoint(job, solver, total); err != nil {
			s.finishFailed(job, fmt.Errorf("writing final checkpoint: %w", err))
			return
		}
		res := Result{
			JobID:       job.ID,
			Steps:       solver.StepCount,
			SimTime:     solver.Time,
			WallSeconds: time.Since(start).Seconds(),
			Mode:        st.Mode,
			Resumes:     st.Resumes,
			Final:       diagOf(solver.ComputeInvariants()),
		}
		if err := s.spool.writeResult(res); err != nil {
			s.finishFailed(job, fmt.Errorf("writing result: %w", err))
			return
		}
		// Counted before the state flips, so a client that sees the job
		// completed also sees it in serve_jobs_completed_total.
		s.mCompleted.Inc()
		done := s.updateJob(job, func(j *Job) {
			j.state = StateCompleted
			j.cancel = nil
		})
		job.broker.publish(Event{Type: "done", JobID: job.ID, State: StateCompleted,
			Step: done.StepsDone, TotalSteps: total, SimTime: done.SimTime, Diag: res.Final})
		s.cfg.Logf("serve: %s completed (%d steps, %.2fs wall)", job.ID, res.Steps, res.WallSeconds)

	case errors.Is(runErr, errStopped):
		// Crash-like stop: leave the spool exactly as the last periodic
		// checkpoint/status write left it; recovery re-admits the job.
		return

	case errors.Is(runErr, errSuspended):
		why := job.suspendRequested()
		if err := s.checkpoint(job, solver, total); err != nil {
			s.finishFailed(job, fmt.Errorf("suspending: %w", err))
			return
		}
		susp := s.updateJob(job, func(j *Job) {
			j.state = StateSuspended
			j.suspendReason = why
			j.cancel = nil
		})
		s.mSuspended.Inc()
		job.broker.publish(Event{Type: "state", JobID: job.ID, State: StateSuspended,
			Step: susp.StepsDone, TotalSteps: total, SimTime: susp.SimTime})
		s.cfg.Logf("serve: %s suspended (%s) at step %d/%d", job.ID, why, susp.StepsDone, total)

	case errors.Is(runErr, context.Canceled):
		// Keep the last state durable for forensics, then close the job.
		_ = s.checkpoint(job, solver, total)
		done := s.updateJob(job, func(j *Job) {
			j.state = StateCanceled
			j.cancel = nil
		})
		s.mCanceled.Inc()
		job.broker.publish(Event{Type: "done", JobID: job.ID, State: StateCanceled,
			Step: done.StepsDone, TotalSteps: total, SimTime: done.SimTime})

	case errors.Is(runErr, context.DeadlineExceeded):
		_ = s.checkpoint(job, solver, total)
		s.finishFailed(job, fmt.Errorf("job deadline exceeded after %d/%d steps", solver.StepCount, total))

	default:
		s.finishFailed(job, runErr)
	}
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

// checkpoint writes the durable pair (ckpt.bin, status.json) and publishes
// a checkpoint event.
func (s *Server) checkpoint(job *Job, sv *sw.Solver, total int) error {
	tctx := s.tCheckpoint.Start()
	err := s.spool.writeCheckpoint(job.ID, sv)
	tctx.Stop()
	if err != nil {
		return err
	}
	job.setProgress(sv.StepCount, total, sv.Time)
	st := job.Status()
	if err := s.spool.writeStatus(st); err != nil {
		return err
	}
	job.broker.publish(Event{Type: "checkpoint", JobID: job.ID,
		Step: sv.StepCount, TotalSteps: total, SimTime: sv.Time})
	return nil
}

// finishFailed moves a job to the failed terminal state.
func (s *Server) finishFailed(job *Job, err error) {
	st := s.updateJob(job, func(j *Job) {
		j.state = StateFailed
		j.errMsg = err.Error()
		j.cancel = nil
	})
	s.mFailed.Inc()
	job.broker.publish(Event{Type: "done", JobID: job.ID, State: StateFailed,
		Step: st.StepsDone, TotalSteps: st.TotalSteps, SimTime: st.SimTime, Error: err.Error()})
	s.cfg.Logf("serve: %s failed: %v", job.ID, err)
}
