// Package serve is the simulation-as-a-service layer of the reproduction:
// an HTTP job subsystem that runs shallow-water integrations as managed,
// durable jobs on a bounded worker pool.
//
// The paper schedules an adjustable set of pattern instances across
// heterogeneous executors (§4, Algorithm 1); this package generalizes that
// shape one level up — a queue of whole solver runs multiplexed across a
// worker pool, with the same concerns the in-node scheduler has:
//
//   - Admission control: the run queue is bounded; a full queue rejects
//     submissions (HTTP 429) instead of growing without bound, and a
//     draining server rejects them with 503.
//   - Durability: workers periodically write sw.Solver checkpoints to a
//     per-job spool directory (atomic rename), so jobs survive a crash —
//     a recovery scan on startup re-enqueues interrupted jobs from their
//     last checkpoint.
//   - Mode mobility: the internal/conform guarantee that every execution
//     strategy computes the same trajectory means a checkpointed job can be
//     RESUMED UNDER A DIFFERENT MODE (serial → threaded → hybrid) with a
//     conform-identical result; resume_test.go asserts this end to end.
//   - Observability: GET /jobs/{id}/events streams NDJSON invariant
//     diagnostics (mass/energy/enstrophy per report interval), and /metrics
//     exposes the internal/telemetry registry (queue depth, jobs by state,
//     admission rejects, per-stage timers).
//   - Graceful drain: SIGTERM stops admission, checkpoints in-flight jobs
//     as suspended-by-drain, and exits; the next start resumes them.
//
// This file holds the shared vocabulary: job specs, lifecycle states,
// status snapshots, and the NDJSON event schema.
package serve

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	mpas "repro"
	"repro/internal/sw"
)

// JobState is one station of the job lifecycle; edges in lifecycle.go
// lists the allowed transitions. DESIGN.md §9 maps these onto the paper's
// scheduling concepts.
type JobState string

// The job lifecycle states.
const (
	StateQueued    JobState = "queued"
	StateRunning   JobState = "running"
	StateSuspended JobState = "suspended"
	StateCompleted JobState = "completed"
	StateFailed    JobState = "failed"
	StateCanceled  JobState = "canceled"
)

// Terminal reports whether the state is final.
func (st JobState) Terminal() bool {
	return st == StateCompleted || st == StateFailed || st == StateCanceled
}

// Suspension reasons recorded in JobStatus.SuspendReason. A drain
// suspension is auto-resumed by the recovery scan on the next start; a user
// suspension waits for an explicit resume call.
const (
	SuspendUser  = "user"
	SuspendDrain = "drain"
)

// JobSpec is a simulation request — the POST /jobs body.
type JobSpec struct {
	// Name is an optional client label echoed in statuses and listings.
	Name string `json:"name,omitempty"`
	// TestCase selects the initial condition: 1, 2, 5, 6 (Williamson) or
	// 8 (Galewsky). Default 5.
	TestCase int `json:"test_case,omitempty"`
	// Level is the icosahedral subdivision level (cells = 10*4^level + 2).
	// Default 2; capped at MaxLevel to keep admission bounded.
	Level int `json:"level,omitempty"`
	// Mode is the execution design: serial | threaded | kernel | pattern | plan.
	// Default serial. A suspended job may be resumed under a different mode.
	Mode string `json:"mode,omitempty"`
	// Steps is the total RK-4 step count; exactly one of Steps or Days must
	// be positive. Days is converted using the level's stable time step once
	// the mesh is built.
	Steps int     `json:"steps,omitempty"`
	Days  float64 `json:"days,omitempty"`
	// Workers sizes the host (and device) worker pools for threaded/hybrid
	// modes; default 2, capped at 16.
	Workers int `json:"workers,omitempty"`
	// HighOrder enables the C1+D2 high-order thickness interpolation.
	HighOrder bool `json:"high_order,omitempty"`
	// Priority orders the run queue (higher first; FIFO within a priority).
	Priority int `json:"priority,omitempty"`
	// ReportEvery is the diagnostics cadence in steps (default 10): each
	// report computes the invariants and publishes a "diag" event.
	ReportEvery int `json:"report_every,omitempty"`
	// CheckpointEvery is the spool checkpoint cadence in steps (default:
	// the server's configured cadence).
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
	// TimeoutSec is the per-job wall-clock deadline (0 = server default).
	TimeoutSec float64 `json:"timeout_sec,omitempty"`
	// StepDelayMS inserts a wall-clock pause before each step — a pacing
	// knob for demos and for tests that need a suspend/kill window on small
	// meshes. Capped at 1000.
	StepDelayMS int `json:"step_delay_ms,omitempty"`
	// Ensemble is the batch-admission member count K: K perturbed
	// trajectories accepted as ONE job, multiplexed through one solver so
	// the immutable mesh and (in plan mode) the compiled execution plan are
	// built once and shared by every member. 0 or 1 means a plain single
	// run. Capped at MaxEnsemble.
	Ensemble int `json:"ensemble,omitempty"`
	// PerturbSeed seeds the deterministic thickness jitter of members
	// 1..K-1 (member 0 is the unperturbed control run).
	PerturbSeed uint64 `json:"perturb_seed,omitempty"`
	// PerturbEps is the relative jitter amplitude; default 1e-8 for
	// ensembles, must stay within (0, 1e-3].
	PerturbEps float64 `json:"perturb_eps,omitempty"`
	// Precision selects the step arithmetic: "" or "float64" for the
	// reference path, "float32" for the fast mode — the compiled plan at
	// single precision, valid under the modes mpas.CheckPrecision accepts
	// (see mpas.Options.Precision). Checkpoints stay float64, so a suspended
	// job may be resumed under a different precision.
	Precision string `json:"precision,omitempty"`
	// Reorder runs the job on the SFC locality-renumbered mesh
	// (mpas.Options.Reorder). Checkpoints stay in canonical numbering, so
	// the flag may differ between a suspension and its resume, and a stolen
	// job may land on a worker with the opposite setting.
	Reorder bool `json:"reorder,omitempty"`
}

// MaxEnsemble bounds the batch-admission member count: 16 members of a
// MaxLevel mesh keep a worker's resident state under a few tens of MB.
const MaxEnsemble = 16

// MaxLevel bounds the admissible mesh level: level 6 (~40962 cells) builds
// in seconds; beyond that a submission could occupy a worker for minutes in
// mesh construction alone before its first checkpoint.
const MaxLevel = 6

// Normalize validates sp and fills defaults, returning the first problem.
func (sp *JobSpec) Normalize() error {
	if sp.TestCase == 0 {
		sp.TestCase = 5
	}
	switch sp.TestCase {
	case 1, 2, 5, 6, 8:
	default:
		return fmt.Errorf("serve: unknown test case %d (want 1, 2, 5, 6 or 8)", sp.TestCase)
	}
	if sp.Level == 0 {
		sp.Level = 2
	}
	if sp.Level < 1 || sp.Level > MaxLevel {
		return fmt.Errorf("serve: level %d out of range [1,%d]", sp.Level, MaxLevel)
	}
	if sp.Mode == "" {
		sp.Mode = mpas.Serial.String()
	}
	if sp.Steps < 0 || sp.Days < 0 {
		return fmt.Errorf("serve: steps and days must be non-negative")
	}
	if (sp.Steps > 0) == (sp.Days > 0) {
		return fmt.Errorf("serve: exactly one of steps or days must be positive")
	}
	if sp.Workers <= 0 {
		sp.Workers = 2
	}
	if sp.Workers > 16 {
		sp.Workers = 16
	}
	if sp.ReportEvery <= 0 {
		sp.ReportEvery = 10
	}
	if sp.TimeoutSec < 0 {
		return fmt.Errorf("serve: timeout_sec must be non-negative")
	}
	if sp.StepDelayMS > 1000 {
		sp.StepDelayMS = 1000
	}
	if sp.StepDelayMS < 0 {
		sp.StepDelayMS = 0
	}
	if sp.Ensemble < 0 {
		return fmt.Errorf("serve: ensemble must be non-negative")
	}
	if sp.Ensemble > MaxEnsemble {
		return fmt.Errorf("serve: ensemble %d out of range [0,%d]", sp.Ensemble, MaxEnsemble)
	}
	if sp.Ensemble > 1 && sp.PerturbEps == 0 {
		sp.PerturbEps = 1e-8
	}
	if sp.PerturbEps < 0 || sp.PerturbEps > 1e-3 {
		return fmt.Errorf("serve: perturb_eps %g out of range (0, 1e-3]", sp.PerturbEps)
	}
	if sp.Precision == "" {
		sp.Precision = "float64"
	}
	return checkMode(sp.Mode, sp.Precision)
}

// checkMode validates a mode name and that it can run at precision, both
// against the mpas mode registry.
func checkMode(mode, precision string) error {
	m, err := mpas.ParseMode(mode)
	if err != nil {
		return err
	}
	return mpas.CheckPrecision(m, precision)
}

// Diag is the flattened invariant set carried by "diag" events and the
// final result — sw.Invariants with stable JSON names.
type Diag struct {
	Mass               float64 `json:"mass"`
	TotalEnergy        float64 `json:"total_energy"`
	PotentialEnstrophy float64 `json:"potential_enstrophy"`
	MinH               float64 `json:"min_h"`
	MaxH               float64 `json:"max_h"`
	MaxSpeed           float64 `json:"max_speed"`
}

func diagOf(inv sw.Invariants) *Diag {
	return &Diag{
		Mass:               inv.Mass,
		TotalEnergy:        inv.TotalEnergy,
		PotentialEnstrophy: inv.PotentialEnstrophy,
		MinH:               inv.MinH,
		MaxH:               inv.MaxH,
		MaxSpeed:           inv.MaxSpeed,
	}
}

// Event is one NDJSON line of a job's event stream.
type Event struct {
	// Type: "state" (lifecycle transition), "diag" (invariant report),
	// "checkpoint" (durable state written), or "done" (terminal, closes
	// the stream).
	Type  string   `json:"type"`
	JobID string   `json:"job_id"`
	Seq   int      `json:"seq"`
	State JobState `json:"state,omitempty"`
	// Step/TotalSteps/SimTime locate the event on the trajectory.
	Step       int     `json:"step,omitempty"`
	TotalSteps int     `json:"total_steps,omitempty"`
	SimTime    float64 `json:"sim_time_s,omitempty"`
	// Member is the 1-based ensemble member a "diag" event describes
	// (0 = the whole job / a single-run job).
	Member int    `json:"member,omitempty"`
	Diag   *Diag  `json:"diag,omitempty"`
	Error  string `json:"error,omitempty"`
}

// Result is the final record of a completed job (GET /jobs/{id}/result,
// persisted as result.json in the spool).
type Result struct {
	JobID       string  `json:"job_id"`
	Steps       int     `json:"steps"`
	SimTime     float64 `json:"sim_time_s"`
	WallSeconds float64 `json:"wall_seconds"`
	Mode        string  `json:"mode"`
	Resumes     int     `json:"resumes"`
	Final       *Diag   `json:"final"`
	// Members holds the per-member final invariants of an ensemble job
	// (Final is then member 0, the unperturbed control).
	Members []*Diag `json:"members,omitempty"`
}

// JobStatus is a consistent snapshot of one job (GET /jobs/{id}); it is
// also the shape persisted to the spool as status.json, which is all the
// recovery scan needs to re-admit a job after a crash.
type JobStatus struct {
	ID    string   `json:"id"`
	Name  string   `json:"name,omitempty"`
	State JobState `json:"state"`
	// Mode is the currently effective execution mode — Spec.Mode unless the
	// job was resumed under a different one.
	Mode          string  `json:"mode"`
	StepsDone     int     `json:"steps_done"`
	TotalSteps    int     `json:"total_steps,omitempty"`
	SimTime       float64 `json:"sim_time_s"`
	Resumes       int     `json:"resumes"`
	SuspendReason string  `json:"suspend_reason,omitempty"`
	Error         string  `json:"error,omitempty"`
	Spec          JobSpec `json:"spec"`
}

// Job is one managed simulation. All mutable fields are guarded by mu;
// handlers and workers only touch them through the methods below.
type Job struct {
	ID string

	mu            sync.Mutex
	spec          JobSpec
	state         JobState
	mode          string
	stepsDone     int
	totalSteps    int
	simTime       float64
	resumes       int
	suspendReason string
	errMsg        string
	cancel        func() // cancels the running context; nil unless running

	// suspend is the cooperative suspend request flag, checked by the
	// worker's per-step interrupt hook.
	suspend atomic.Bool
	// suspendWhy records who asked (SuspendUser or SuspendDrain).
	suspendWhy atomic.Value

	broker *broker

	created time.Time
}

func newJob(id string, spec JobSpec) *Job {
	j := &Job{
		ID:      id,
		spec:    spec,
		state:   StateQueued,
		mode:    spec.Mode,
		broker:  newBroker(),
		created: time.Now(),
	}
	return j
}

// Status returns a consistent snapshot.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.statusLocked()
}

func (j *Job) statusLocked() JobStatus {
	return JobStatus{
		ID:            j.ID,
		Name:          j.spec.Name,
		State:         j.state,
		Mode:          j.mode,
		StepsDone:     j.stepsDone,
		TotalSteps:    j.totalSteps,
		SimTime:       j.simTime,
		Resumes:       j.resumes,
		SuspendReason: j.suspendReason,
		Error:         j.errMsg,
		Spec:          j.spec,
	}
}

// State returns the current lifecycle state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// requestSuspend flags the job for cooperative suspension; the worker
// honors it at the next step boundary.
func (j *Job) requestSuspend(why string) {
	j.suspendWhy.Store(why)
	j.suspend.Store(true)
}

// suspendRequested returns the pending suspension reason, or "".
func (j *Job) suspendRequested() string {
	if !j.suspend.Load() {
		return ""
	}
	if why, ok := j.suspendWhy.Load().(string); ok {
		return why
	}
	return SuspendUser
}
