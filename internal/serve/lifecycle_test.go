package serve

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestLifecycleVisibility drives every visible state change — completed,
// failed (a deadline), canceled and suspended while running, canceled and
// suspended while queued — for a single-run job and a K=2 ensemble. A
// poller watches GET /jobs/{id} while the change happens; the first status
// that shows the new state must already be backed by that state's event in
// the replay and by one more serve_jobs_<state>_total in /metrics.
func TestLifecycleVisibility(t *testing.T) {
	for _, k := range []int{0, 2} {
		t.Run(fmt.Sprintf("ensemble=%d", k), func(t *testing.T) {
			t.Parallel()
			_, ts := newTestServer(t, Config{Workers: 1, QueueCap: 8})
			base := ts.URL
			slow := JobSpec{TestCase: 2, Level: 1, Steps: 100000, StepDelayMS: 2,
				ReportEvery: 1000, Ensemble: k}
			submit := func(spec JobSpec) string { return submitJob(t, base, spec).ID }
			running := func(spec JobSpec) string {
				id := submit(spec)
				waitState(t, base, id, StateRunning)
				return id
			}
			act := func(action string) func(id string) {
				return func(id string) {
					resp := postJSON(t, base+"/jobs/"+id+"/"+action, nil)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						t.Errorf("%s %s: status %d", action, id, resp.StatusCode)
					}
				}
			}

			// The blocker occupies the single worker, so later submissions
			// stay queued until it is canceled.
			blocker := running(slow)
			observe(t, base, StateCanceled, func() string { return submit(slow) }, act("cancel"))
			observe(t, base, StateSuspended, func() string { return submit(slow) }, act("suspend"))
			observe(t, base, StateCanceled, func() string { return blocker }, act("cancel"))
			observe(t, base, StateSuspended, func() string { return running(slow) }, act("suspend"))
			deadline := slow
			deadline.TimeoutSec = 0.05
			observe(t, base, StateFailed, func() string { return submit(deadline) }, nil)
			short := JobSpec{TestCase: 2, Level: 1, Steps: 4, ReportEvery: 2, Ensemble: k}
			observe(t, base, StateCompleted, func() string { return submit(short) }, nil)
		})
	}
}

// observe reads want's counter, starts a job with start, then polls its
// status while trigger (if any) runs. On the first status in state want it
// requires want's event in the replay and the counter one above its value
// before start.
func observe(t *testing.T, base string, want JobState, start func() string, trigger func(id string)) {
	t.Helper()
	before := stateTotal(t, base, want)
	id := start()
	seen := make(chan error, 1)
	go func() { seen <- pollUntilVisible(base, id, want, before) }()
	if trigger != nil {
		trigger(id)
	}
	if err := <-seen; err != nil {
		t.Fatalf("%s -> %s: %v", id, want, err)
	}
}

func pollUntilVisible(base, id string, want JobState, before int64) error {
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/jobs/" + id)
		if err != nil {
			return err
		}
		var st JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			return err
		}
		if st.State != want {
			if st.State.Terminal() {
				return fmt.Errorf("reached %s (err %q)", st.State, st.Error)
			}
			continue
		}
		evType := "state"
		if want.Terminal() {
			evType = "done"
		}
		events, err := replay(base, id)
		if err != nil {
			return err
		}
		found := false
		for _, ev := range events {
			found = found || (ev.Type == evType && ev.State == want)
		}
		if !found {
			return fmt.Errorf("status shows %s but the replay has no %q event for it: %+v", want, evType, events)
		}
		got, err := readStateTotal(base, want)
		if err != nil {
			return err
		}
		if got != before+1 {
			return fmt.Errorf("status shows %s but serve_jobs_%s_total is %d, want %d", want, want, got, before+1)
		}
		return nil
	}
	return fmt.Errorf("never reached %s", want)
}

func replay(base, id string) ([]Event, error) {
	resp, err := http.Get(base + "/jobs/" + id + "/events?follow=0")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var events []Event
	dec := json.NewDecoder(resp.Body)
	for dec.More() {
		var ev Event
		if err := dec.Decode(&ev); err != nil {
			return nil, err
		}
		events = append(events, ev)
	}
	return events, nil
}

func stateTotal(t *testing.T, base string, st JobState) int64 {
	t.Helper()
	n, err := readStateTotal(base, st)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// readStateTotal scrapes serve_jobs_<st>_total from /metrics (0 when the
// line is absent).
func readStateTotal(base string, st JobState) (int64, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	prefix := "serve_jobs_" + string(st) + "_total "
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), prefix); ok {
			return strconv.ParseInt(v, 10, 64)
		}
	}
	return 0, sc.Err()
}

// TestTransitionEdges walks every (from, to) pair of the six states. An edge
// of the lifecycle moves the state, status.json, the gauges, the target's
// counter and the event log together; any other edge returns ErrConflict and
// leaves all five untouched.
func TestTransitionEdges(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1})
	states := []JobState{StateQueued, StateRunning, StateSuspended,
		StateCompleted, StateFailed, StateCanceled}
	legal := map[[2]JobState]bool{
		{StateQueued, StateRunning}: true, {StateQueued, StateSuspended}: true,
		{StateQueued, StateCanceled}: true, {StateRunning, StateCompleted}: true,
		{StateRunning, StateFailed}: true, {StateRunning, StateCanceled}: true,
		{StateRunning, StateSuspended}: true, {StateRunning, StateQueued}: true,
		{StateSuspended, StateQueued}: true, {StateSuspended, StateCanceled}: true,
	}
	type snapshot struct {
		state    JobState
		spooled  string
		gauges   [6]float64
		counters [6]int64
		events   int
	}
	snap := func(j *Job) snapshot {
		data, err := os.ReadFile(filepath.Join(s.spool.jobDir(j.ID), "status.json"))
		if err != nil {
			t.Fatal(err)
		}
		out := snapshot{state: j.State(), spooled: string(data)}
		for i, st := range states {
			out.gauges[i] = s.mStateGauges[st].Value()
			if c := s.mStateTotals[st]; c != nil {
				out.counters[i] = c.Value()
			}
		}
		replay, _, cancel := j.broker.subscribe()
		cancel()
		out.events = len(replay)
		return out
	}

	for _, from := range states {
		for _, to := range states {
			id := fmt.Sprintf("j-%s-%s", from, to)
			j := newJob(id, JobSpec{TestCase: 2, Level: 1, Steps: 4})
			j.state = from
			if err := s.spool.createJob(id, j.spec); err != nil {
				t.Fatal(err)
			}
			if err := s.spool.writeStatus(j.Status()); err != nil {
				t.Fatal(err)
			}
			s.mStateGauges[from].Add(1)

			pre := snap(j)
			mutated := false
			st, err := s.transition(j, to, func(*Job) { mutated = true }, Event{Error: "x"})
			post := snap(j)

			if !legal[[2]JobState{from, to}] {
				if !errors.Is(err, ErrConflict) || mutated || post != pre {
					t.Errorf("%s -> %s: err %v, mutated %v, changed %v (want ErrConflict, no effect)",
						from, to, err, mutated, post != pre)
				}
				continue
			}
			if err != nil || !mutated || st.State != to || post.state != to {
				t.Fatalf("%s -> %s: err %v, mutated %v, state %s", from, to, err, mutated, post.state)
			}
			if spooled, _ := s.spool.readStatus(id); spooled.State != to {
				t.Errorf("%s -> %s: status.json says %s", from, to, spooled.State)
			}
			for i, st := range states {
				wantG, wantC := pre.gauges[i], pre.counters[i]
				if st == from {
					wantG--
				}
				if st == to {
					wantG++
					if s.mStateTotals[st] != nil {
						wantC++
					}
				}
				if post.gauges[i] != wantG || post.counters[i] != wantC {
					t.Errorf("%s -> %s: %s gauge %g counter %d, want %g and %d",
						from, to, st, post.gauges[i], post.counters[i], wantG, wantC)
				}
			}
			replay, _, cancel := j.broker.subscribe()
			cancel()
			ev := replay[len(replay)-1]
			if post.events != pre.events+1 || ev.State != to || ev.Error != "x" ||
				(ev.Type == "done") != to.Terminal() {
				t.Errorf("%s -> %s: event %+v after %d of %d", from, to, ev, pre.events, post.events)
			}
		}
	}
}

// TestResumeRunningConflicts: resuming a running job is a 409 that changes
// nothing — the job stays running under its one worker, is not queued a
// second time, and a later cancel still stops it. Running → queued is in the
// edge table for crash recovery only.
func TestResumeRunningConflicts(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, QueueCap: 8})
	base := ts.URL
	id := submitJob(t, base, JobSpec{TestCase: 2, Level: 1, Steps: 100000, StepDelayMS: 2,
		ReportEvery: 1000}).ID
	waitState(t, base, id, StateRunning)
	before, err := replay(base, id)
	if err != nil {
		t.Fatal(err)
	}

	resp := postJSON(t, base+"/jobs/"+id+"/resume", nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("resume of a running job: status %d, want 409", resp.StatusCode)
	}
	st := getStatus(t, base, id)
	if st.State != StateRunning || st.Resumes != 0 || s.QueueDepth() != 0 {
		t.Fatalf("after the refused resume: state %s, resumes %d, queue depth %d; want running, 0, 0",
			st.State, st.Resumes, s.QueueDepth())
	}
	after, err := replay(base, id)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range after[len(before):] {
		if ev.Type == "state" {
			t.Errorf("the refused resume published %+v", ev)
		}
	}

	resp = postJSON(t, base+"/jobs/"+id+"/cancel", nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: status %d", resp.StatusCode)
	}
	waitState(t, base, id, StateCanceled)
}
