package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	mpas "repro"
	"repro/internal/mesh"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

const (
	serverWorkers = 2 // swserver -workers: jobs running at once
	serveClients  = 2 // closed-loop clients, each with one job in flight
	jobSteps      = 20
	jobEvery      = 5 // checkpoint_every and report_every
	// serveSetups is how often the server is brought up in one run; the last
	// instance takes the burst.
	serveSetups = 3
)

// jobSpec is the one job every client submits. workers:1 keeps two running
// jobs on two cores.
func jobSpec(level int, name string) serve.JobSpec {
	return serve.JobSpec{Name: name, TestCase: 5, Level: level, Mode: "plan", Steps: jobSteps,
		Workers: 1, CheckpointEvery: jobEvery, ReportEvery: jobEvery}
}

// jobEvents is the exact length of a completed job's event stream: queued,
// running, the diag at the start plus one per report, one checkpoint per
// cadence plus the final one, done.
const jobEvents = 2 + (1 + jobSteps/jobEvery) + (jobSteps/jobEvery + 1) + 1

// serveSection is the section against the real swserver binary.
type serveSection struct {
	e     *env
	level int
	cl    *http.Client
	srv   *server // the instance that takes the bursts
	want  uint64  // the library's checkpoint hash for jobSpec

	lanes  []int              // one trace lane per client
	setupS []float64          // exec -> /healthz ok -> warm job done
	jobs   []jobTimes         // the completed jobs of every burst
	perS   []float64          // per burst: completed jobs / burst window
	window time.Duration      // the bursts' summed length
	before map[string]float64 // /metrics before the first burst
}

// jobTimes are the client-side spans of one job. total runs from the submit
// being sent to the done event arriving; submit, queue, build and run divide
// it without gaps (each starts the instant its predecessor ends); deliver and
// the checkpoint download follow the done event.
type jobTimes struct {
	total                                        time.Duration
	submit, queue, build, run, deliver, download time.Duration
	ckptBytes                                    int
	events                                       int
}

type server struct {
	cmd  *exec.Cmd
	base string
	logf *os.File
}

// startServer execs swserver on an ephemeral port with a fresh spool and
// waits for its "listening on" line.
func (e *env) startServer(tag string) (*server, error) {
	spool := filepath.Join(e.workDir, "spool-"+tag)
	logf, err := os.Create(filepath.Join(e.workDir, "swserver-"+tag+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(e.ctx, filepath.Join(e.binDir, "swserver"),
		"-addr", "127.0.0.1:0", "-workers", strconv.Itoa(serverWorkers), "-spool", spool)
	cmd.Stderr = logf
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	cmd.WaitDelay = 10 * time.Second
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("serve: starting swserver: %w", err)
	}
	s := &server{cmd: cmd, logf: logf}
	line, err := bufio.NewReader(stdout).ReadString('\n')
	f := strings.Fields(line)
	if err != nil || len(f) < 4 || f[1] != "listening" {
		s.stop()
		return nil, fmt.Errorf("serve: swserver did not announce its address (got %q): %v", line, err)
	}
	s.base = "http://" + f[3]
	return s, nil
}

// stop drains the server with SIGTERM and waits for it to exit.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // already gone is fine
	done := make(chan struct{})
	go func() {
		_ = s.cmd.Wait() // a signalled exit is expected
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		_ = s.cmd.Process.Kill()
		<-done
	}
	s.logf.Close()
}

// waitHealthy polls /healthz until it answers "ok".
func (s *server) waitHealthy(cl *http.Client) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := cl.Get(s.base + "/healthz")
		if err == nil {
			var body struct {
				Status string `json:"status"`
			}
			err = json.NewDecoder(resp.Body).Decode(&body)
			resp.Body.Close()
			if err == nil && body.Status == "ok" {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("serve: /healthz never became ok: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// runJob drives one job through the full client flow, opening one span per
// boundary under parent, and checks its outputs. A job that is refused, does
// not complete, or returns the wrong bytes counts as failed.
func (e *env) runJob(parent handle, cl *http.Client, s *server, spec serve.JobSpec, wantCkpt uint64) (jobTimes, bool) {
	var jt jobTimes
	bad := func(format string, args ...any) (jobTimes, bool) {
		e.fail(1, "serve: job %s: %s", spec.Name, fmt.Sprintf(format, args...))
		return jt, false
	}
	body, _ := json.Marshal(spec) // a struct of plain fields cannot fail to marshal

	h := parent.child("serve.submit")
	t0 := h.t0
	resp, err := cl.Post(s.base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		h.end()
		return bad("POST /jobs: %v", err)
	}
	var st serve.JobStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || err != nil {
		h.end()
		return bad("POST /jobs: status %d, %v", resp.StatusCode, err)
	}

	// The three spans the event stream delimits: ack -> running -> first
	// diag -> done. Each starts the instant its predecessor ends.
	jt.submit, h = h.next("serve.queue_wait")
	resp, err = cl.Get(s.base + "/jobs/" + st.ID + "/events")
	if err != nil {
		h.end()
		return bad("GET events: %v", err)
	}
	stage := 0 // 0 waiting for running, 1 for the first diag, 2 for done
	var done serve.Event
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev serve.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			resp.Body.Close()
			h.end()
			return bad("decoding event %q: %v", sc.Text(), err)
		}
		jt.events++
		switch {
		case stage == 0 && ev.Type == "state" && ev.State == serve.StateRunning:
			jt.queue, h = h.next("serve.build")
			stage = 1
		case stage == 1 && ev.Type == "diag":
			jt.build, h = h.next("serve.run")
			stage = 2
		case ev.Type == "done":
			done = ev
		}
		if ev.Type == "done" {
			break
		}
	}
	doneAt := time.Now()
	last := h.endAt(doneAt)
	jt.total = doneAt.Sub(t0)
	resp.Body.Close()
	if stage != 2 || done.State != serve.StateCompleted {
		return bad("event stream ended in stage %d with done state %q (%s)", stage, done.State, done.Error)
	}
	jt.run = last
	if jt.events != jobEvents {
		return bad("%d events, want exactly %d", jt.events, jobEvents)
	}

	h = parent.child("serve.deliver")
	resp, err = cl.Get(s.base + "/jobs/" + st.ID + "/result")
	if err != nil {
		h.end()
		return bad("GET result: %v", err)
	}
	var res serve.Result
	err = json.NewDecoder(resp.Body).Decode(&res)
	resp.Body.Close()
	jt.deliver = h.end()
	if err != nil || res.Steps != jobSteps {
		return bad("result has %d steps, want %d (%v)", res.Steps, jobSteps, err)
	}

	h = parent.child("serve.ckpt_download")
	resp, err = cl.Get(s.base + "/jobs/" + st.ID + "/checkpoint")
	if err != nil {
		h.end()
		return bad("GET checkpoint: %v", err)
	}
	sum := fnv.New64a()
	n, err := io.Copy(sum, resp.Body)
	resp.Body.Close()
	jt.download = h.end()
	jt.ckptBytes = int(n)
	if err != nil || resp.StatusCode != http.StatusOK {
		return bad("GET checkpoint: status %d, %v", resp.StatusCode, err)
	}
	if sum.Sum64() != wantCkpt {
		return bad("checkpoint hash %016x, the library's is %016x", sum.Sum64(), wantCkpt)
	}
	return jt, true
}

// referenceCheckpoint runs the job's spec in the library and hashes the
// checkpoint it writes — what every served job's download must equal.
func referenceCheckpoint(level int) (uint64, error) {
	m, err := mesh.Build(level, mesh.Options{LloydIterations: 2})
	if err != nil {
		return 0, err
	}
	mod, err := mpas.New(mpas.Options{Mesh: m, TestCase: mpas.TC5, Mode: mpas.Plan, Workers: 1})
	if err != nil {
		return 0, err
	}
	defer mod.Close()
	mod.Run(jobSteps)
	sum := fnv.New64a()
	if err := mod.Solver.WriteCheckpoint(sum); err != nil {
		return 0, err
	}
	return sum.Sum64(), nil
}

// scrape reads the server's /metrics into a name -> value map.
func (s *server) scrape(cl *http.Client) (map[string]float64, error) {
	resp, err := cl.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	samples, err := telemetry.ParseProm(resp.Body)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, sm := range samples {
		out[sm.Name] = sm.Value
	}
	return out, nil
}

// newServe computes the library reference, then brings the server up
// serveSetups times: each exec -> healthy -> warm job is a set-up sample, and
// the last instance stays for the bursts.
func (e *env) newServe(parent handle, level int) (*serveSection, error) {
	// Each running job computes on one thread; the clients only wait.
	if err := guardCPUs(e.ncpu, 1, serverWorkers); err != nil {
		return nil, err
	}
	s := &serveSection{e: e, level: level, cl: &http.Client{}}
	for c := 0; c < serveClients; c++ {
		s.lanes = append(s.lanes, e.rec.lane(fmt.Sprintf("client-%d", c)))
	}
	h := parent.child("serve.reference")
	var err error
	s.want, err = referenceCheckpoint(level)
	h.end()
	if err != nil {
		return nil, fmt.Errorf("serve: library reference: %w", err)
	}
	for i := 0; i < serveSetups; i++ {
		if s.srv != nil {
			s.srv.stop()
		}
		h := parent.child("serve.setup")
		if s.srv, err = e.startServer(strconv.Itoa(i)); err != nil {
			h.end()
			return nil, err
		}
		if err := s.srv.waitHealthy(s.cl); err != nil {
			h.end()
			s.close()
			return nil, err
		}
		e.did(1)
		_, ok := e.runJob(h, s.cl, s.srv, jobSpec(level, fmt.Sprintf("warm-%d-%d", e.seed, i)), s.want)
		s.setupS = append(s.setupS, h.end().Seconds())
		if !ok {
			s.close()
			return nil, errors.New("serve: the warm job failed")
		}
	}
	if s.before, err = s.srv.scrape(s.cl); err != nil {
		s.close()
		return nil, fmt.Errorf("serve: /metrics: %w", err)
	}
	return s, nil
}

// round is one burst: serveClients closed-loop clients submit the same job
// for d, each finishing the job it has in flight.
func (s *serveSection) round(parent handle, r int, d time.Duration) {
	s.e.cal.sample(parent)
	burst := parent.child("serve.burst")
	deadline := time.Now().Add(d)
	var mu sync.Mutex
	var jobs []jobTimes
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for n := 0; time.Now().Before(deadline); n++ {
				name := fmt.Sprintf("s%d-r%d-c%d-%d", s.e.seed, r, c, n)
				jh := burst.childOn("serve.job", s.lanes[c], name)
				s.e.did(1)
				jt, ok := s.e.runJob(jh, s.cl, s.srv, jobSpec(s.level, name), s.want)
				jh.end()
				if ok {
					mu.Lock()
					jobs = append(jobs, jt)
					mu.Unlock()
				}
			}
		}(c)
	}
	wg.Wait()
	window := burst.end()
	s.window += window
	s.perS = append(s.perS, float64(len(jobs))/window.Seconds())
	s.jobs = append(s.jobs, jobs...)
	s.e.cal.sample(parent)
}

// serveOut is what the bursts measured, all of them pooled.
type serveOut struct {
	setupS  []float64
	jobs    []jobTimes
	jobMS   []float64          // per job: submit sent -> done event received
	perS    []float64          // per burst: completed jobs / burst window
	window  time.Duration      // the bursts' summed length
	metrics map[string]float64 // /metrics deltas over the bursts
	rssMB   float64            // child VmHWM after the last burst
}

// finish reads the server's own counters and stops it.
func (s *serveSection) finish() (*serveOut, error) {
	defer s.close()
	if len(s.jobs) == 0 {
		return nil, errors.New("serve: no job completed")
	}
	out := &serveOut{setupS: s.setupS, jobs: s.jobs, perS: s.perS, window: s.window, metrics: map[string]float64{}}
	for _, j := range s.jobs {
		out.jobMS = append(out.jobMS, ms(j.total))
	}
	after, err := s.srv.scrape(s.cl)
	if err != nil {
		return nil, fmt.Errorf("serve: /metrics: %w", err)
	}
	for name, v := range after {
		out.metrics[name] = v - s.before[name]
	}
	out.rssMB = float64(procBytes(fmt.Sprintf("/proc/%d/status", s.srv.cmd.Process.Pid), "VmHWM")) / 1e6
	return out, nil
}

func (s *serveSection) close() {
	if s.srv != nil {
		s.srv.stop()
		s.srv = nil
	}
	s.cl.CloseIdleConnections()
}
