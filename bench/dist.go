package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"syscall"
	"time"
)

const (
	distRanks = 2 // swrank -launch: one OS process per rank
	// distVariants is how many other swrank configurations the traced pass
	// launches beside the overlap one: blocking, taskplan, serial.
	distVariants = 3
)

// launchOut is what one swrank invocation reports: the wall time the bench
// saw and the rank-0 entry swrank merged into its -bench-out file.
type launchOut struct {
	wallS   float64
	hash    string
	PerStep float64 `json:"seconds_per_step"`
	Bytes   int64   `json:"rank0_bytes_sent"`
	WaitS   float64 `json:"rank0_wait_seconds"`
	Eff     float64 `json:"rank0_overlap_efficiency"`
}

// distSection is the section against real swrank processes.
type distSection struct {
	e      *env
	level  int
	steps  int
	serial launchOut // the swrank -serial reference run

	launches []launchOut
	// allowance is the time the rounds so far have granted, spent what the
	// launches so far have taken.
	allowance, spent float64
	tried            int
}

var hashLine = regexp.MustCompile(`(?m)^swrank hash ([0-9a-f]{16})$`)

// swrank runs the binary once under a span and reads back its hash line and
// bench-out entry.
func (e *env) swrank(parent handle, span string, args ...string) (launchOut, error) {
	var lo launchOut
	f, err := os.CreateTemp(e.workDir, "swrank-*.json")
	if err != nil {
		return lo, err
	}
	benchOut := f.Name()
	f.Close()
	os.Remove(benchOut) // swrank creates it; an empty file is not a JSON object
	defer os.Remove(benchOut)

	args = append(args, "-hash", "-timeout", "90s", "-bench-out", benchOut, "-bench-key", "bench")
	cmd := exec.CommandContext(e.ctx, filepath.Join(e.binDir, "swrank"), args...)
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	cmd.WaitDelay = 10 * time.Second
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	h := parent.child(span)
	err = cmd.Run()
	lo.wallS = h.end().Seconds()
	if err != nil {
		return lo, fmt.Errorf("swrank %v: %w\n%s", args, err, stderr.String())
	}
	m := hashLine.FindSubmatch(stdout.Bytes())
	if m == nil {
		return lo, fmt.Errorf("swrank %v printed no hash line:\n%s", args, stdout.String())
	}
	lo.hash = string(m[1])
	raw, err := os.ReadFile(benchOut)
	if err != nil {
		return lo, err
	}
	var doc struct {
		Bench []json.RawMessage `json:"bench"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil || len(doc.Bench) != 1 {
		return lo, fmt.Errorf("swrank bench-out %s: %d entries, %v", raw, len(doc.Bench), err)
	}
	return lo, json.Unmarshal(doc.Bench[0], &lo)
}

// launchArgs is the distributed configuration under test; extra flags select
// the traced pass's variants.
func launchArgs(level, steps int, extra ...string) []string {
	return append([]string{"-launch", strconv.Itoa(distRanks), "-workers", "1", "-reorder",
		"-case", "tc5", "-level", strconv.Itoa(level), "-steps", strconv.Itoa(steps)}, extra...)
}

// newDist makes the single-process reference run every launch's hash must
// equal.
func (e *env) newDist(parent handle, level, steps int) (*distSection, error) {
	if err := guardCPUs(e.ncpu, 1, distRanks); err != nil {
		return nil, err
	}
	s := &distSection{e: e, level: level, steps: steps}
	var err error
	s.serial, err = e.swrank(parent, "dist.serial_reference", "-serial", "-workers", strconv.Itoa(e.ncpu),
		"-reorder", "-case", "tc5", "-level", strconv.Itoa(level), "-steps", strconv.Itoa(steps))
	if err != nil {
		return nil, fmt.Errorf("dist: serial reference: %w", err)
	}
	return s, nil
}

// round grants the section d more seconds and launches the 2-rank overlap
// configuration while the time granted so far covers at least half of another
// launch, so that the launches overrun their share as often as they fall short
// of it; the first round always launches once.
func (s *distSection) round(parent handle, d time.Duration) {
	sec := parent.child("dist")
	defer sec.end()
	s.allowance += d.Seconds()
	s.e.cal.sample(sec)
	for s.tried == 0 || s.spent+s.spent/float64(s.tried)/2 <= s.allowance {
		s.tried++
		s.e.did(1)
		lo, err := s.e.swrank(sec, "dist.launch", launchArgs(s.level, s.steps, "-overlap")...)
		s.spent += lo.wallS
		s.e.cal.sample(sec)
		switch {
		case err != nil:
			s.e.fail(1, "dist: launch: %v", err)
			return // the run is lost; do not spend its slice on failing again
		case lo.hash != s.serial.hash:
			s.e.fail(1, "dist: launch hash %s, swrank -serial has %s", lo.hash, s.serial.hash)
		case len(s.launches) > 0 && lo.Bytes != s.launches[0].Bytes:
			s.e.fail(1, "dist: rank 0 sent %d bytes, in the first launch %d", lo.Bytes, s.launches[0].Bytes)
		default:
			s.launches = append(s.launches, lo)
		}
	}
}

// distOut is what the launches measured, one value per launch.
type distOut struct {
	steps    int
	serial   launchOut
	launches []launchOut
	setupS   []float64 // launch wall - steps x reported s/step
	stepMS   []float64 // rank-0 seconds_per_step
	wallS    []float64 // launcher exec -> exit
}

func (s *distSection) finish() (*distOut, error) {
	if len(s.launches) == 0 {
		return nil, errors.New("dist: no launch succeeded")
	}
	out := &distOut{steps: s.steps, serial: s.serial, launches: s.launches}
	for _, lo := range s.launches {
		out.setupS = append(out.setupS, lo.wallS-float64(s.steps)*lo.PerStep)
		out.stepMS = append(out.stepMS, lo.PerStep*1e3)
		out.wallS = append(out.wallS, lo.wallS)
	}
	return out, nil
}
