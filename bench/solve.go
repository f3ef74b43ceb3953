package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"time"

	mpas "repro"
	"repro/internal/conform"
	"repro/internal/mesh"
)

// solveMode is one of the three step executions the solve section times.
type solveMode struct {
	name      string
	mode      mpas.Mode
	precision string
}

var solveModes = []solveMode{
	{"plan", mpas.Plan, ""},
	{"taskplan", mpas.TaskPlan, ""},
	{"fast32", mpas.Plan, "float32"},
}

const (
	// checkSteps is the trajectory length the state hashes are compared at.
	checkSteps = 10
	// blockSteps is how long one mode runs before the next takes its turn:
	// long enough to warm the mode's arrays, short enough for many turns.
	blockSteps = 16
	// massDriftTol bounds |mass/mass0 - 1| of the float64 runs.
	massDriftTol = 1e-12
)

// solveSection is the in-process section: the library used as a library.
type solveSection struct {
	e      *env
	level  int
	models []*mpas.Model // one per solveModes entry
	mass0  float64

	setupS    []float64            // one full mpas.New per mode
	memLiveMB float64              // HeapAlloc after the plan-mode setup
	stepMS    map[string][]float64 // per mode, one sample per Model.Step, all rounds pooled
}

// stateHash is FNV-1a 64 over the little-endian bytes of H then U in
// canonical numbering (ren == nil means the state already is canonical).
func stateHash(ren *mesh.Reorder, h, u []float64) uint64 {
	if ren != nil {
		ch, cu := make([]float64, len(h)), make([]float64, len(u))
		ren.CellToCanonical(ch, h)
		ren.EdgeToCanonical(cu, u)
		h, u = ch, cu
	}
	hs := fnv.New64a()
	var b [8]byte
	for _, f := range [][]float64{h, u} {
		for _, v := range f {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			hs.Write(b[:])
		}
	}
	return hs.Sum64()
}

// newSolve sets up the models and checks the three trajectories against the
// serial one. Each model goes through a full mpas.New (mesh.Build + reorder +
// NewSolver + compile), so each is a set-up sample and one stalled build does
// not move their median.
func (e *env) newSolve(parent handle, level int) (*solveSection, error) {
	if err := guardCPUs(e.ncpu, e.ncpu, 1); err != nil {
		return nil, err
	}
	s := &solveSection{e: e, level: level, stepMS: map[string][]float64{}}
	for i, sm := range solveModes {
		opts := mpas.Options{Level: level, TestCase: mpas.TC5, Mode: sm.mode,
			Workers: e.ncpu, Reorder: true, Precision: sm.precision}
		h := parent.child("solve.setup." + sm.name)
		mod, err := mpas.New(opts)
		d := h.end()
		if err != nil {
			s.close()
			return nil, fmt.Errorf("solve: setting up %s at level %d: %w", sm.name, level, err)
		}
		s.models = append(s.models, mod)
		s.setupS = append(s.setupS, d.Seconds())
		if i == 0 {
			// Twice: a sync.Pool's victim cache survives one collection.
			runtime.GC()
			runtime.GC()
			var mem runtime.MemStats
			runtime.ReadMemStats(&mem)
			s.memLiveMB = float64(mem.HeapAlloc) / 1e6
		}
	}

	ck := parent.child("solve.check")
	defer ck.end()
	plan := s.models[0]
	ref, err := mpas.New(mpas.Options{Mesh: plan.Mesh, TestCase: mpas.TC5, Mode: mpas.Serial, Dt: plan.Config.Dt})
	if err != nil {
		s.close()
		return nil, fmt.Errorf("solve: serial reference: %w", err)
	}
	defer ref.Close()
	s.mass0 = plan.Invariants().Mass
	ref.Run(checkSteps)
	want := stateHash(plan.Reorder, ref.Solver.State.H, ref.Solver.State.U)
	for i, sm := range solveModes {
		s.models[i].Run(checkSteps)
		e.did(checkSteps)
		st := s.models[i].Solver.State
		if sm.precision == "" {
			if got := stateHash(plan.Reorder, st.H, st.U); got != want {
				e.fail(checkSteps, "solve l%d: %s state hash %016x after %d steps, serial has %016x",
					level, sm.name, got, checkSteps, want)
			}
			continue
		}
		tol := conform.Tolerance{MaxULP: 4, RelLInf: conform.Fast32Band * (checkSteps + 1)}
		if d := conform.CompareStates(ref.Solver.State.H, ref.Solver.State.U, st.H, st.U); !tol.Accepts(d) {
			e.fail(checkSteps, "solve l%d: %s left the float32 band after %d steps: %v", level, sm.name, checkSteps, d)
		}
	}
	return s, nil
}

// round times Model.Step() for d: short blocks of blockSteps steps, the modes
// taking turns in the round's seeded order and in whole rotations, so that
// every mode's sample spans the whole slot and all three count alike.
func (s *solveSection) round(parent handle, r int, d time.Duration) {
	sec := parent.child("solve")
	defer sec.end()
	deadline := time.Now().Add(d)
	s.e.cal.sample(sec)
	calibrated := time.Now()
	for {
		for _, i := range s.e.sched.modeOrder[r] {
			sm := solveModes[i]
			b := sec.child("solve.block." + sm.name)
			for n := 0; n < blockSteps; n++ {
				st := b.child("sw.step." + sm.name)
				s.models[i].Step()
				s.stepMS[sm.name] = append(s.stepMS[sm.name], ms(st.end()))
			}
			b.end()
			s.e.did(blockSteps)
		}
		if time.Now().After(deadline) {
			break
		}
		if time.Since(calibrated) > time.Second {
			s.e.cal.sample(sec)
			calibrated = time.Now()
		}
	}
	s.e.cal.sample(sec)
}

// finish checks mass conservation over everything the float64 models ran and
// releases them.
func (s *solveSection) finish() {
	defer s.close()
	for i, sm := range solveModes {
		if sm.precision != "" {
			continue
		}
		steps := s.models[i].Solver.StepCount
		if drift := math.Abs(s.models[i].Invariants().Mass/s.mass0 - 1); !(drift < massDriftTol) {
			s.e.fail(steps, "solve l%d: %s relative mass drift %.3e after %d steps (limit %.0e)",
				s.level, sm.name, drift, steps, massDriftTol)
		}
	}
}

func (s *solveSection) close() {
	for _, m := range s.models {
		m.Close()
	}
	s.models = nil
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
