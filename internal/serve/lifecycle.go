package serve

import (
	"context"
	"errors"
	"fmt"
	"slices"
)

// edges is the job lifecycle: the only state changes a job makes. A state
// with no entry is terminal. The recovery scan re-enqueues a job spooled as
// queued without a transition, so no self-edge is listed.
var edges = map[JobState][]JobState{
	StateQueued:    {StateRunning, StateSuspended, StateCanceled},
	StateRunning:   {StateCompleted, StateFailed, StateCanceled, StateSuspended, StateQueued},
	StateSuspended: {StateQueued, StateCanceled},
}

// transition moves j along one lifecycle edge; see transitionLocked.
func (s *Server) transition(j *Job, to JobState, mut func(*Job), ev Event) (JobStatus, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return s.transitionLocked(j, to, mut, ev)
}

// transitionFrom is transition for a caller that may move j only out of
// one state: any other current state is ErrConflict even where the table
// has an edge from it. Resume needs this — running → queued is crash
// recovery's edge, and taking it for a running job would queue it twice.
func (s *Server) transitionFrom(j *Job, from, to JobState, mut func(*Job), ev Event) (JobStatus, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != from {
		return JobStatus{}, fmt.Errorf("%w: cannot move %s job to %s", ErrConflict, j.state, to)
	}
	return s.transitionLocked(j, to, mut, ev)
}

// transitionLocked is the one place a job changes state — the consistent
// point at which it may change hands. With j.mu held it checks the edge,
// applies mut and flips the state, writes the spool status, moves the state
// gauges and counts the target state, then publishes the event, so a Status
// reader sees either none of it or all of it. An edge outside the table
// returns ErrConflict and has no side effect.
//
// The cancel function exists only while running and the suspend reason only
// while suspended; leaving those states clears them. ev carries only Diag
// and Error: the type, state and trajectory position come from the new
// snapshot. Publishing under j.mu is safe because broker.publish never
// blocks and takes only its own leaf lock.
func (s *Server) transitionLocked(j *Job, to JobState, mut func(*Job), ev Event) (JobStatus, error) {
	from := j.state
	if !slices.Contains(edges[from], to) {
		return JobStatus{}, fmt.Errorf("%w: cannot move %s job to %s", ErrConflict, from, to)
	}
	if mut != nil {
		mut(j)
	}
	j.state = to
	if to != StateRunning {
		j.cancel = nil
	}
	if to != StateSuspended {
		j.suspendReason = ""
	}
	st := j.statusLocked()
	if err := s.spool.writeStatus(st); err != nil {
		s.cfg.Logf("serve: %s: persisting status: %v", st.ID, err)
	}
	s.mStateGauges[from].Add(-1)
	s.mStateGauges[to].Add(1)
	if c := s.mStateTotals[to]; c != nil {
		c.Inc()
	}
	j.broker.publish(stateEvent(st, ev))
	return st, nil
}

// stateEvent completes a lifecycle event from the snapshot it announces:
// "done" for a terminal state, "state" otherwise.
func stateEvent(st JobStatus, ev Event) Event {
	ev.Type = "state"
	if st.State.Terminal() {
		ev.Type = "done"
	}
	ev.JobID, ev.State = st.ID, st.State
	ev.Step, ev.TotalSteps, ev.SimTime = st.StepsDone, st.TotalSteps, st.SimTime
	return ev
}

// finish ends one run of a claimed job at its lifecycle boundary, the same
// way for a single run and an ensemble. runErr is what stopped the step
// loop (nil: the trajectory is complete); save writes the durable checkpoint
// of the current state and result builds the final record. Both may be nil
// when runErr is a failure from before the first step. Only the worker moves
// a running job, so the transitions made here cannot conflict.
func (s *Server) finish(job *Job, runErr error, save func() error, result func() (Result, error)) {
	fail := func(err error) {
		s.transition(job, StateFailed, func(j *Job) { j.errMsg = err.Error() }, Event{Error: err.Error()})
		s.cfg.Logf("serve: %s failed: %v", job.ID, err)
	}
	switch {
	case runErr == nil:
		// Final checkpoint first: the durable state a client downloads (or a
		// stealing coordinator migrates) is exactly the completed trajectory.
		if err := save(); err != nil {
			fail(fmt.Errorf("writing final checkpoint: %w", err))
			return
		}
		res, err := result()
		if err != nil {
			fail(err)
			return
		}
		if err := s.spool.writeResult(res); err != nil {
			fail(fmt.Errorf("writing result: %w", err))
			return
		}
		s.transition(job, StateCompleted, nil, Event{Diag: res.Final})
		s.cfg.Logf("serve: %s completed (%d steps, %.2fs wall)", job.ID, res.Steps, res.WallSeconds)

	case errors.Is(runErr, errStopped):
		// Crash-like stop: leave the spool exactly as the last periodic
		// checkpoint and status write left it; recovery re-admits the job.

	case errors.Is(runErr, errSuspended):
		why := job.suspendRequested()
		if err := save(); err != nil {
			fail(fmt.Errorf("suspending: %w", err))
			return
		}
		st, _ := s.transition(job, StateSuspended, func(j *Job) { j.suspendReason = why }, Event{})
		s.cfg.Logf("serve: %s suspended (%s) at step %d/%d", job.ID, why, st.StepsDone, st.TotalSteps)

	case errors.Is(runErr, context.Canceled):
		_ = save() // keep the last state durable for forensics
		s.transition(job, StateCanceled, nil, Event{})

	case errors.Is(runErr, context.DeadlineExceeded):
		_ = save()
		st := job.Status()
		fail(fmt.Errorf("job deadline exceeded after %d/%d steps", st.StepsDone, st.TotalSteps))

	default:
		fail(runErr)
	}
}
