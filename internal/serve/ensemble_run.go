package serve

import (
	"context"
	"fmt"
	"time"

	"repro/internal/sw"
)

// Ensemble job execution: K perturbed trajectories admitted as ONE job and
// multiplexed through the worker's single solver, so the mesh, the kernel
// scaffolding and (in plan mode) the compiled execution plan are built once
// and shared by every member — the batch-admission shape the ROADMAP asks
// for. Members advance in rounds of ReportEvery steps; each round streams
// one "diag" event per member (Event.Member is 1-based), and checkpoints
// capture the whole ensemble, so suspension, crash recovery and cluster
// work stealing migrate all K members together.

// runEnsemble executes one claimed ensemble job to its next lifecycle
// boundary. The caller (runJob) has claimed the job as st and built the
// model; total/ckptEvery/stepDelay are already defaulted.
func (s *Server) runEnsemble(ctx context.Context, job *Job, solver *sw.Solver,
	st JobStatus, total, ckptEvery int, stepDelay time.Duration, start time.Time) {

	spec := st.Spec
	ens, err := sw.NewEnsemble(solver, spec.Ensemble)
	if err != nil {
		s.finish(job, err, nil, nil)
		return
	}
	if s.spool.hasCheckpoint(job.ID) {
		if err := ens.LoadCheckpoint(s.spool.checkpointPath(job.ID)); err != nil {
			s.finish(job, fmt.Errorf("loading ensemble checkpoint: %w", err), nil, nil)
			return
		}
	} else {
		// First run: jitter members 1..K-1; member 0 stays the control.
		// The perturbation is a pure function of (seed, member, cell), so
		// a stolen-and-restarted job without a checkpoint regenerates the
		// identical ensemble.
		for i := 1; i < ens.K(); i++ {
			ens.PerturbH(i, spec.PerturbSeed, spec.PerturbEps)
		}
	}
	job.setProgress(ens.MinStep(), total, ens.MinTime())
	save := func() error {
		return s.checkpoint(job, ens, ens.MinStep(), total, ens.MinTime())
	}

	interrupt := s.interruptFor(ctx, job, stepDelay)
	publishMemberDiag := func(i int, sv *sw.Solver) {
		job.broker.publish(Event{Type: "diag", JobID: job.ID, Member: i + 1,
			Step: sv.StepCount, TotalSteps: total, SimTime: sv.Time,
			Diag: diagOf(sv.ComputeInvariants())})
	}

	// Position at (re)start, one event per member, before the first step.
	for i := 0; i < ens.K(); i++ {
		_ = ens.WithMember(i, func(sv *sw.Solver) error {
			publishMemberDiag(i, sv)
			return nil
		})
	}

	// Rounds: advance every member to the next ReportEvery frontier. After
	// a resume mid-round, lagging members catch up first (the frontier is
	// min+ReportEvery, so mixed-step checkpoints converge naturally).
	var runErr error
rounds:
	for {
		minStep := ens.MinStep()
		if minStep >= total {
			break
		}
		target := minStep + spec.ReportEvery
		if target > total {
			target = total
		}
		for i := 0; i < ens.K(); i++ {
			n := target - ens.StepOf(i)
			if n <= 0 {
				continue
			}
			before := ens.StepOf(i)
			err := ens.WithMember(i, func(sv *sw.Solver) error {
				rErr := sv.RunControlled(n, sw.RunControl{Interrupt: interrupt})
				publishMemberDiag(i, sv)
				return rErr
			})
			s.mSteps.Add(int64(ens.StepOf(i) - before))
			job.setProgress(ens.MinStep(), total, ens.MinTime())
			if err != nil {
				runErr = err
				break rounds
			}
		}
		if ckptEvery > 0 && target%ckptEvery == 0 && target < total {
			if err := save(); err != nil {
				runErr = fmt.Errorf("writing ensemble checkpoint: %w", err)
				break rounds
			}
		}
	}
	job.setProgress(ens.MinStep(), total, ens.MinTime())

	s.finish(job, runErr, save, func() (Result, error) {
		finals := make([]*Diag, ens.K())
		var simTime float64
		for i := range finals {
			if err := ens.WithMember(i, func(sv *sw.Solver) error {
				finals[i] = diagOf(sv.ComputeInvariants())
				simTime = sv.Time
				return nil
			}); err != nil {
				return Result{}, err
			}
		}
		return Result{
			JobID:       job.ID,
			Steps:       total,
			SimTime:     simTime,
			WallSeconds: time.Since(start).Seconds(),
			Mode:        st.Mode,
			Resumes:     st.Resumes,
			Final:       finals[0],
			Members:     finals,
		}, nil
	})
}
