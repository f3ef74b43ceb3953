package serve

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"regexp"
	"sync"
	"sync/atomic"

	"repro/internal/mesh"
	"repro/internal/telemetry"
)

// Sentinel errors the HTTP layer maps onto status codes.
var (
	// ErrDraining rejects submissions during graceful shutdown (503).
	ErrDraining = errors.New("serve: draining, not admitting jobs")
	// ErrNotFound reports an unknown job id (404).
	ErrNotFound = errors.New("serve: no such job")
	// ErrConflict reports an operation invalid in the job's current state (409).
	ErrConflict = errors.New("serve: operation invalid in current job state")
	// ErrExists reports an import under an already-registered job id (409).
	ErrExists = errors.New("serve: job id already exists")
)

// Config configures a Server.
type Config struct {
	// Workers is the worker-pool size — the maximum number of concurrently
	// running jobs. Default 2.
	Workers int
	// QueueCap bounds the run queue; a full queue rejects submissions
	// (ErrQueueFull → HTTP 429). Default 16.
	QueueCap int
	// SpoolDir is the durable job store. Required.
	SpoolDir string
	// CheckpointEvery is the default checkpoint cadence in steps for jobs
	// that do not set their own. Default 50.
	CheckpointEvery int
	// JobTimeoutSec is the default per-job wall-clock deadline (0 = none).
	JobTimeoutSec float64
	// Registry receives the service metrics; nil creates a private one (the
	// /metrics endpoint serves whichever is in effect).
	Registry *telemetry.Registry
	// Logf logs operational events; nil discards.
	Logf func(format string, args ...any)
}

// Server is the job service: admission, queue, worker pool, spool, metrics.
type Server struct {
	cfg   Config
	reg   *telemetry.Registry
	spool *spool
	queue *queue

	mu    sync.Mutex
	jobs  map[string]*Job
	order []string // submission order for listings

	meshMu sync.Mutex
	meshes map[int]*meshEntry

	draining atomic.Bool
	stopCh   chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	// Metrics.
	mSubmitted   *telemetry.Counter
	mImported    *telemetry.Counter
	mRejects     *telemetry.Counter
	mResumed     *telemetry.Counter
	mRecovered   *telemetry.Counter
	mSteps       *telemetry.Counter
	mQueueDepth  *telemetry.Gauge
	mStateGauges map[JobState]*telemetry.Gauge
	mStateTotals map[JobState]*telemetry.Counter // entries into suspended and the terminal states
	tRun         *telemetry.Timer
	tBuild       *telemetry.Timer
	tCheckpoint  *telemetry.Timer
}

// meshEntry caches one level's serialized mesh; every job decodes a private
// copy, so concurrently running solvers never share (and never race on)
// mesh arrays.
type meshEntry struct {
	once sync.Once
	data []byte
	err  error
}

// New builds a server over cfg.SpoolDir, runs the recovery scan
// (re-admitting interrupted jobs from their last checkpoint), and starts
// the worker pool.
func New(cfg Config) (*Server, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 16
	}
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = 50
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	sp, err := newSpool(cfg.SpoolDir)
	if err != nil {
		return nil, err
	}
	reg := cfg.Registry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	s := &Server{
		cfg:    cfg,
		reg:    reg,
		spool:  sp,
		queue:  newQueue(cfg.QueueCap),
		jobs:   make(map[string]*Job),
		meshes: make(map[int]*meshEntry),
		stopCh: make(chan struct{}),

		mSubmitted:  reg.Counter("serve_jobs_submitted_total"),
		mImported:   reg.Counter("serve_jobs_imported_total"),
		mRejects:    reg.Counter("serve_admission_rejects_total"),
		mResumed:    reg.Counter("serve_jobs_resumed_total"),
		mRecovered:  reg.Counter("serve_jobs_recovered_total"),
		mSteps:      reg.Counter("serve_steps_total"),
		mQueueDepth: reg.Gauge("serve_queue_depth"),
		tRun:        reg.Timer("serve_job_run_seconds"),
		tBuild:      reg.Timer("serve_model_build_seconds"),
		tCheckpoint: reg.Timer("serve_checkpoint_seconds"),
	}
	s.mStateGauges = make(map[JobState]*telemetry.Gauge)
	s.mStateTotals = make(map[JobState]*telemetry.Counter)
	for _, st := range []JobState{StateQueued, StateRunning, StateSuspended,
		StateCompleted, StateFailed, StateCanceled} {
		s.mStateGauges[st] = reg.Gauge("serve_jobs_" + string(st))
		if st != StateQueued && st != StateRunning {
			s.mStateTotals[st] = reg.Counter("serve_jobs_" + string(st) + "_total")
		}
	}
	if err := s.recover(); err != nil {
		return nil, err
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.workerLoop(i)
	}
	return s, nil
}

// Registry exposes the metrics registry backing /metrics.
func (s *Server) Registry() *telemetry.Registry { return s.reg }

// recover scans the spool and re-admits interrupted jobs: queued and
// running jobs (a crash mid-run) resume from their last checkpoint, as do
// jobs suspended by a previous drain; user-suspended jobs stay suspended
// until an explicit resume; terminal jobs are registered for listing only.
// Event streams do not survive a restart — a recovered job's stream starts
// with its recovery transition.
func (s *Server) recover() error {
	sts, skipped, err := s.spool.scan()
	if err != nil {
		return err
	}
	for _, id := range skipped {
		s.cfg.Logf("serve: spool %s: incomplete job directory, ignoring", id)
	}
	for _, st := range sts {
		job := newJob(st.ID, st.Spec)
		job.state = st.State
		job.mode = st.Mode
		job.stepsDone = st.StepsDone
		job.totalSteps = st.TotalSteps
		job.simTime = st.SimTime
		job.resumes = st.Resumes
		job.suspendReason = st.SuspendReason
		job.errMsg = st.Error
		s.jobs[st.ID] = job
		s.order = append(s.order, st.ID)
		s.mStateGauges[job.state].Add(1)

		readmit := st.State == StateQueued || st.State == StateRunning ||
			(st.State == StateSuspended && st.SuspendReason == SuspendDrain)
		if !readmit {
			continue
		}
		if st.State == StateQueued {
			job.broker.publish(stateEvent(st, Event{}))
		} else {
			s.transition(job, StateQueued, func(j *Job) { j.resumes++ }, Event{})
		}
		// Recovery bypasses the admission cap: these jobs were already
		// admitted once and are durable; bouncing them would lose work.
		s.queue.forcePush(job, job.spec.Priority)
		s.mRecovered.Inc()
		s.cfg.Logf("serve: recovered %s (%s, step %d/%d)", job.ID, st.State, st.StepsDone, st.TotalSteps)
	}
	s.mQueueDepth.Set(float64(s.queue.Len()))
	return nil
}

func newJobID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(err) // crypto/rand failing means the host is broken
	}
	return "j-" + hex.EncodeToString(b[:])
}

// Submit admits a new job: validates the spec, persists it to the spool,
// and enqueues it. Returns ErrDraining during shutdown, ErrQueueFull when
// the queue is at capacity, or a validation error.
func (s *Server) Submit(spec JobSpec) (JobStatus, error) {
	if s.draining.Load() {
		s.mRejects.Inc()
		return JobStatus{}, ErrDraining
	}
	if err := spec.Normalize(); err != nil {
		return JobStatus{}, err
	}
	st, err := s.admit(newJob(newJobID(), spec), nil, s.mSubmitted)
	if err != nil {
		return JobStatus{}, err
	}
	s.cfg.Logf("serve: admitted %s (%s tc%d level %d, %s)", st.ID, spec.Mode, spec.TestCase, spec.Level, describeLength(spec))
	return st, nil
}

// importIDPattern bounds caller-chosen ids to the shapes this system mints
// ("j-…" locally, "c-…" from a cluster coordinator) — a flat lowercase
// token, never a path.
var importIDPattern = regexp.MustCompile(`^[a-z]-[0-9a-f]{8,32}$`)

// Import admits a job under a caller-chosen id, optionally seeding its
// spool with a checkpoint to resume from — the cluster coordinator's
// submit and work-stealing path. The status carries the effective mode,
// progress and resume count of the migrating job; the job is enqueued as
// queued and its worker resumes from the imported checkpoint exactly like
// a recovered crash. Returns ErrExists when the id is taken, ErrDraining /
// ErrQueueFull under admission pressure.
func (s *Server) Import(st JobStatus, ckpt io.Reader) (JobStatus, error) {
	if s.draining.Load() {
		s.mRejects.Inc()
		return JobStatus{}, ErrDraining
	}
	if !importIDPattern.MatchString(st.ID) {
		return JobStatus{}, fmt.Errorf("serve: invalid import job id %q", st.ID)
	}
	spec := st.Spec
	if err := spec.Normalize(); err != nil {
		return JobStatus{}, err
	}
	mode := st.Mode
	if mode == "" {
		mode = spec.Mode
	}
	if err := checkMode(mode, spec.Precision); err != nil {
		return JobStatus{}, err
	}

	job := newJob(st.ID, spec)
	job.mode = mode
	job.stepsDone = st.StepsDone
	job.totalSteps = st.TotalSteps
	job.simTime = st.SimTime
	job.resumes = st.Resumes

	var seed func() error
	if ckpt != nil {
		seed = func() error {
			if err := s.spool.importCheckpoint(job.ID, ckpt); err != nil {
				return fmt.Errorf("serve: importing checkpoint: %w", err)
			}
			return nil
		}
	}
	out, err := s.admit(job, seed, s.mImported)
	if err != nil {
		return JobStatus{}, err
	}
	s.cfg.Logf("serve: imported %s (%s, step %d/%d, checkpoint=%v)",
		job.ID, mode, out.StepsDone, out.TotalSteps, ckpt != nil)
	return out, nil
}

// admit is the one admission path of Submit and Import: it registers a
// queued job, spools its spec (then runs seed, if any, in the fresh spool
// directory) and its status, publishes the queued state and enqueues the
// job. A rejected admission leaves no listing, no spool directory and no
// gauge drift; an accepted one counts on admitted.
func (s *Server) admit(job *Job, seed func() error, admitted *telemetry.Counter) (JobStatus, error) {
	s.mu.Lock()
	if _, taken := s.jobs[job.ID]; taken {
		s.mu.Unlock()
		return JobStatus{}, fmt.Errorf("%w: %s", ErrExists, job.ID)
	}
	s.jobs[job.ID] = job
	s.order = append(s.order, job.ID)
	s.mu.Unlock()

	reject := func(err error) (JobStatus, error) {
		s.unregister(job.ID)
		s.spool.removeJob(job.ID)
		return JobStatus{}, err
	}
	st := job.Status()
	if err := s.spool.createJob(job.ID, st.Spec); err != nil {
		return reject(err)
	}
	if seed != nil {
		if err := seed(); err != nil {
			return reject(err)
		}
	}
	if err := s.spool.writeStatus(st); err != nil {
		return reject(err)
	}
	s.mStateGauges[StateQueued].Add(1)
	job.broker.publish(stateEvent(st, Event{}))
	if err := s.queue.Push(job, st.Spec.Priority); err != nil {
		s.mStateGauges[StateQueued].Add(-1)
		s.mRejects.Inc()
		return reject(err)
	}
	admitted.Inc()
	s.mQueueDepth.Set(float64(s.queue.Len()))
	return st, nil
}

func describeLength(spec JobSpec) string {
	if spec.Days > 0 {
		return fmt.Sprintf("%g days", spec.Days)
	}
	return fmt.Sprintf("%d steps", spec.Steps)
}

func (s *Server) unregister(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.jobs, id)
	for i, o := range s.order {
		if o == id {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
}

// Job returns a job by id.
func (s *Server) Job(id string) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	return j, nil
}

// Jobs lists every known job's status in submission order.
func (s *Server) Jobs() []JobStatus {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	jobs := make([]*Job, 0, len(ids))
	for _, id := range ids {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	out := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.Status()
	}
	return out
}

// Cancel terminates a job: a queued or suspended job is canceled in place;
// a running one has its context canceled and the worker makes the
// transition (checkpointing first, so the state remains inspectable).
func (s *Server) Cancel(id string) error {
	j, err := s.Job(id)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state == StateRunning {
		j.cancel()
		return nil
	}
	_, err = s.transitionLocked(j, StateCanceled, nil, Event{})
	return err
}

// Suspend checkpoints and parks a job: a running job suspends at its next
// step boundary; a queued job is parked immediately.
func (s *Server) Suspend(id string) error {
	j, err := s.Job(id)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state == StateRunning {
		j.requestSuspend(SuspendUser)
		return nil
	}
	_, err = s.transitionLocked(j, StateSuspended, func(j *Job) { j.suspendReason = SuspendUser }, Event{})
	return err
}

// Resume re-enqueues a suspended job, optionally under a different
// execution mode — the internal/conform equivalence guarantee makes the
// trajectory independent of that choice. A full queue parks the job again.
func (s *Server) Resume(id, mode string) error {
	if s.draining.Load() {
		return ErrDraining
	}
	j, err := s.Job(id)
	if err != nil {
		return err
	}
	if mode != "" {
		if err := checkMode(mode, j.Status().Spec.Precision); err != nil {
			return err
		}
	}
	st, err := s.transitionFrom(j, StateSuspended, StateQueued, func(j *Job) {
		j.suspend.Store(false)
		j.resumes++
		if mode != "" {
			j.mode = mode
		}
	}, Event{})
	if err != nil {
		return err
	}
	if err := s.queue.Push(j, st.Spec.Priority); err != nil {
		// Park the job again; a cancel (or a stale queue entry's claim) that
		// won the race keeps the job where it went.
		s.transitionFrom(j, StateQueued, StateSuspended, func(j *Job) {
			j.suspendReason = SuspendUser
			j.resumes--
		}, Event{})
		s.mRejects.Inc()
		return err
	}
	s.mResumed.Inc()
	s.mQueueDepth.Set(float64(s.queue.Len()))
	return nil
}

// Draining reports whether the server has stopped admitting jobs.
func (s *Server) Draining() bool { return s.draining.Load() }

// QueueDepth returns the current run-queue depth.
func (s *Server) QueueDepth() int { return s.queue.Len() }

// Drain gracefully shuts the service down: admission stops (submissions
// get ErrDraining), queued jobs stay durable in the spool for the next
// start, running jobs are checkpointed and suspended with reason "drain"
// (auto-resumed by the next start's recovery scan), and the worker pool
// exits. Returns ctx.Err() if the workers do not finish in time.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	s.queue.Close()
	s.mu.Lock()
	for _, j := range s.jobs {
		if j.State() == StateRunning {
			j.requestSuspend(SuspendDrain)
		}
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
		s.cfg.Logf("serve: drained")
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close stops the server immediately, crash-like: running jobs are
// abandoned mid-step-loop without any further spool write, exactly as a
// kill -9 would leave them (their last periodic checkpoint is the recovery
// point). Worker goroutines are joined so tests stay leak-free.
func (s *Server) Close() {
	s.stopOnce.Do(func() { close(s.stopCh) })
	s.draining.Store(true)
	s.queue.Close()
	s.wg.Wait()
}

// meshForLevel returns a private copy of the level's mesh. The build runs
// once per level (serialized to bytes); each job decodes its own copy, so
// no two solvers ever share mutable mesh arrays.
func (s *Server) meshForLevel(level int) (*mesh.Mesh, error) {
	s.meshMu.Lock()
	e, ok := s.meshes[level]
	if !ok {
		e = &meshEntry{}
		s.meshes[level] = e
	}
	s.meshMu.Unlock()
	e.once.Do(func() {
		// The same Lloyd default as mpas.New, so served trajectories are
		// bitwise comparable with CLI runs at the same level.
		m, err := mesh.Build(level, mesh.Options{LloydIterations: 2})
		if err != nil {
			e.err = err
			return
		}
		var buf bytes.Buffer
		if err := m.Write(&buf); err != nil {
			e.err = err
			return
		}
		e.data = buf.Bytes()
	})
	if e.err != nil {
		return nil, e.err
	}
	return mesh.ReadFrom(bytes.NewReader(e.data))
}
