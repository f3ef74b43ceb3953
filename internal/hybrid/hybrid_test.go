package hybrid

import (
	"math"
	"testing"

	"repro/internal/mesh"
	"repro/internal/pattern"
	"repro/internal/perfmodel"
	"repro/internal/sw"
	"repro/internal/testcases"
)

var cachedMesh *mesh.Mesh

func mesh3(t testing.TB) *mesh.Mesh {
	if cachedMesh == nil {
		var err error
		cachedMesh, err = mesh.Build(3, mesh.Options{LloydIterations: 2})
		if err != nil {
			t.Fatal(err)
		}
	}
	return cachedMesh
}

func TestAssignmentsCoverTable1(t *testing.T) {
	for name, a := range map[string]Assignment{
		"serial":     SerialAssignment(),
		"kernel":     KernelLevelAssignment(),
		"pattern":    PatternDrivenAssignment(0.3),
		"deviceOnly": DeviceOnlyAssignment(),
	} {
		for _, ins := range pattern.Table1 {
			if _, ok := a[ins.ID]; !ok {
				t.Errorf("%s assignment misses %s", name, ins.ID)
			}
		}
	}
}

func TestAssignmentSemantics(t *testing.T) {
	kl := KernelLevelAssignment()
	// Kernel-level never splits.
	for id, p := range kl {
		if p.HostFrac != 0 && p.HostFrac != 1 {
			t.Errorf("kernel-level splits %s (%v)", id, p.HostFrac)
		}
	}
	// Heavy kernels on the device.
	for _, id := range []string{"B1", "F", "E", "A2"} {
		if kl.HostFrac(id) != 0 {
			t.Errorf("kernel-level puts %s on host", id)
		}
	}
	pd := PatternDrivenAssignment(0.25)
	if pd.HostFrac("B1") != 0 {
		t.Error("pattern-driven must keep B1 on device")
	}
	if pd.HostFrac("A2") != 0.25 {
		t.Error("adjustable fraction not applied")
	}
	if pd.HostFrac("A1") != 1 {
		t.Error("A1 should be on host")
	}
	// Unknown pattern defaults to device.
	if (Assignment{}).HostFrac("zzz") != 0 {
		t.Error("default placement should be device")
	}
	// Clamping.
	if PatternDrivenAssignment(7).HostFrac("A2") != 1 {
		t.Error("fraction not clamped")
	}
	if Host.String() != "host" || Dev.String() != "device" {
		t.Error("Side strings")
	}
}

func TestExecutorBitwiseMatchesSerial(t *testing.T) {
	m := mesh3(t)
	run := func(attach func(*sw.Solver) func()) *sw.Solver {
		s, err := sw.NewSolver(m, sw.DefaultConfig(m))
		if err != nil {
			t.Fatal(err)
		}
		cleanup := attach(s)
		if cleanup != nil {
			defer cleanup()
		}
		testcases.SetupTC5(s)
		s.Run(5)
		return s
	}
	serial := run(func(s *sw.Solver) func() { return nil })
	for name, sched := range map[string]*Schedule{
		"kernel-level":   KernelLevelSchedule(),
		"pattern-driven": PatternDrivenSchedule(0.3),
		"device-only":    {Node: DefaultNode(), Assign: DeviceOnlyAssignment(), ResidentData: true},
	} {
		hyb := run(func(s *sw.Solver) func() {
			e := NewHybridSolver(s, sched, 2, 4)
			return e.Close
		})
		for c := range serial.State.H {
			if serial.State.H[c] != hyb.State.H[c] {
				t.Fatalf("%s: H differs at cell %d", name, c)
			}
		}
		for e := range serial.State.U {
			if serial.State.U[e] != hyb.State.U[e] {
				t.Fatalf("%s: U differs at edge %d", name, e)
			}
		}
	}
}

func TestExecutorAccumulatesSimTime(t *testing.T) {
	m := mesh3(t)
	s, _ := sw.NewSolver(m, sw.DefaultConfig(m))
	e := NewHybridSolver(s, PatternDrivenSchedule(0.3), 2, 2)
	defer e.Close()
	testcases.SetupTC2(s)
	t0 := e.SimTime()
	if t0 <= 0 {
		t.Error("Init should already accumulate simulated time")
	}
	s.Step()
	if e.SimTime() <= t0 {
		t.Error("Step did not advance simulated time")
	}
}

func TestFigure5MachinePrecisionEquivalence(t *testing.T) {
	// The paper's Figure 5(c): hybrid vs original results differ only
	// within machine precision. Our hybrid executor splits ranges without
	// changing arithmetic, and the scatter reference reorders sums, so we
	// compare the hybrid run against the scatter-form reference
	// diagnostics after real time stepping.
	m := mesh3(t)
	s, _ := sw.NewSolver(m, sw.DefaultConfig(m))
	e := NewHybridSolver(s, PatternDrivenSchedule(0.25), 2, 4)
	defer e.Close()
	testcases.SetupTC5(s)
	steps := int(testcases.Day / s.Cfg.Dt / 4)
	s.Run(steps)
	ref := sw.NewDiagnostics(m)
	s.ReferenceDiagnostics(s.State, ref)
	diff, scale := testcases.MaxAbsDiff(s.Diag.KE, ref.KE)
	if diff/scale > 1e-11 {
		t.Errorf("hybrid vs reference KE rel diff %v", diff/scale)
	}
}

func TestSimTransfersOnlyWhenCrossing(t *testing.T) {
	mc := perfmodel.CountsForCells(40962)
	// Device-only resident schedule: after warmup, no transfers at all.
	devOnly := &Schedule{Node: DefaultNode(), Assign: DeviceOnlyAssignment(),
		ResidentData: true, OverlapTransfers: true}
	sim := SimulateStep(devOnly, mc, false)
	if sim.TransferBytes != 0 {
		t.Errorf("device-only resident run moved %v bytes", sim.TransferBytes)
	}
	// Kernel-level moves data every step.
	simKL := SimulateStep(KernelLevelSchedule(), mc, false)
	if simKL.TransferBytes <= 0 {
		t.Error("kernel-level run moved no data")
	}
	// Pattern-driven with a split moves the split fractions only — less
	// than kernel-level.
	simPD := SimulateStep(PatternDrivenSchedule(0.3), mc, false)
	if simPD.TransferBytes <= 0 {
		t.Error("pattern-driven split moved no data")
	}
	if simPD.TransferBytes >= simKL.TransferBytes {
		t.Errorf("pattern-driven moved %v >= kernel-level %v",
			simPD.TransferBytes, simKL.TransferBytes)
	}
}

func TestSimBusyAccounting(t *testing.T) {
	mc := perfmodel.CountsForCells(163842)
	sim := SimulateStep(PatternDrivenSchedule(0.3), mc, false)
	if sim.HostBusy <= 0 || sim.DevBusy <= 0 {
		t.Errorf("busy times: host %v dev %v", sim.HostBusy, sim.DevBusy)
	}
	// Wall time at least the busier side's busy time (can't run faster
	// than the critical resource).
	busier := math.Max(sim.HostBusy, sim.DevBusy)
	if sim.Time < busier*0.999 {
		t.Errorf("wall %v < busier side %v", sim.Time, busier)
	}
	// And no more than the sum of everything (no time invented).
	if sim.Time > sim.HostBusy+sim.DevBusy+sim.TransferTime+1 {
		t.Errorf("wall %v exceeds total resources", sim.Time)
	}
}

func TestFigure7Bands(t *testing.T) {
	// Paper Figure 7: kernel-level speedups 4.59x..6.05x, pattern-driven
	// 5.63x..8.35x, growing with mesh size, pattern-driven always winning.
	rows := Figure7([]int{40962, 163842, 655362, 2621442})
	if len(rows) != 4 {
		t.Fatal("want 4 rows")
	}
	for i, r := range rows {
		if r.PatternSpeedup <= r.KernelSpeedup {
			t.Errorf("cells %d: pattern %.2fx <= kernel %.2fx", r.Cells, r.PatternSpeedup, r.KernelSpeedup)
		}
		if i > 0 {
			if r.KernelSpeedup < rows[i-1].KernelSpeedup {
				t.Errorf("kernel speedup not growing with mesh size")
			}
			if r.PatternSpeedup < rows[i-1].PatternSpeedup {
				t.Errorf("pattern speedup not growing with mesh size")
			}
		}
	}
	small, large := rows[0], rows[3]
	if small.KernelSpeedup < 3.5 || small.KernelSpeedup > 5.6 {
		t.Errorf("kernel speedup at 40962 = %.2f, paper 4.59", small.KernelSpeedup)
	}
	if small.PatternSpeedup < 4.5 || small.PatternSpeedup > 7.0 {
		t.Errorf("pattern speedup at 40962 = %.2f, paper 5.63", small.PatternSpeedup)
	}
	if large.KernelSpeedup < 5.0 || large.KernelSpeedup > 7.5 {
		t.Errorf("kernel speedup at 2621442 = %.2f, paper 6.05", large.KernelSpeedup)
	}
	if large.PatternSpeedup < 7.0 || large.PatternSpeedup > 10.5 {
		t.Errorf("pattern speedup at 2621442 = %.2f, paper 8.35", large.PatternSpeedup)
	}
	// The pattern-driven improvement over kernel-level at the largest mesh
	// (paper: 38%).
	if gain := large.PatternSpeedup / large.KernelSpeedup; gain < 1.2 || gain > 1.6 {
		t.Errorf("pattern/kernel gain %.2f, paper 1.38", gain)
	}
}

func TestTunerFindsInteriorOrBoundaryMinimum(t *testing.T) {
	mc := perfmodel.CountsForCells(655362)
	frac, best := TunePatternDriven(mc)
	if frac < 0 || frac > 0.9 {
		t.Errorf("tuned fraction %v out of range", frac)
	}
	// Tuned time beats the no-host and all-host extremes it searched.
	for _, f := range []float64{0, 0.9} {
		if tm := SimulateStep(PatternDrivenSchedule(f), mc, false).Time; tm < best*0.999 {
			t.Errorf("tuner missed better fraction %v: %v < %v", f, tm, best)
		}
	}
}

func TestDeviceLadderExported(t *testing.T) {
	labels, sp := DeviceLadder(655362)
	if len(labels) != 6 || sp[len(sp)-1] < 50 {
		t.Errorf("ladder: %v %v", labels, sp)
	}
}

func TestOverlapNeverSlower(t *testing.T) {
	mc := perfmodel.CountsForCells(163842)
	base := PatternDrivenSchedule(0.3)
	noOverlap := *base
	noOverlap.OverlapTransfers = false
	tOv := SimulateStep(base, mc, false).Time
	tNo := SimulateStep(&noOverlap, mc, false).Time
	if tOv > tNo*1.0001 {
		t.Errorf("overlapped %v slower than non-overlapped %v", tOv, tNo)
	}
}

func TestCPUSerialMatchesPerfmodel(t *testing.T) {
	mc := perfmodel.CountsForCells(40962)
	if CPUSerialStep(mc) != perfmodel.StepTime(perfmodel.XeonE5_2680v2(), mc, perfmodel.Opt{}) {
		t.Error("CPUSerialStep wrapper diverged")
	}
}

// countingRunner wraps a Runner, counting delegated kernels.
type countingRunner struct {
	inner sw.Runner
	n     int
}

func (c *countingRunner) RunKernel(k *sw.Kernel) { c.n++; c.inner.RunKernel(k) }

// TestHostRunnerDelegation pins SetHostRunner: a kernel-level executor with a
// compiled sw.PlanRunner standing in for the host side must reproduce the
// undelegated executor bitwise (the delegate runs the same patterns over the
// same full ranges, only through its compiled per-kernel schedules), and the
// delegate must actually receive the fully-host-resident kernels.
func TestHostRunnerDelegation(t *testing.T) {
	m := mesh3(t)
	mk := func() *sw.Solver {
		s, err := sw.NewSolver(m, sw.DefaultConfig(m))
		if err != nil {
			t.Fatal(err)
		}
		testcases.SetupTC5(s)
		return s
	}

	ref := mk()
	eRef := NewHybridSolver(ref, KernelLevelSchedule(), 2, 2)
	defer eRef.Close()

	del := mk()
	eDel := NewHybridSolver(del, KernelLevelSchedule(), 2, 2)
	defer eDel.Close()
	pr, err := sw.Compile(del, eDel.HostPool, sw.PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cr := &countingRunner{inner: pr}
	eDel.SetHostRunner(cr)

	const steps = 3
	ref.Run(steps)
	del.Run(steps)

	if cr.n == 0 {
		t.Fatal("host delegate never invoked: kernel-level schedule should have fully-host kernels")
	}
	for c := range ref.State.H {
		if del.State.H[c] != ref.State.H[c] {
			t.Fatalf("h[%d] differs bitwise: %v vs %v", c, del.State.H[c], ref.State.H[c])
		}
	}
	for e := range ref.State.U {
		if del.State.U[e] != ref.State.U[e] {
			t.Fatalf("u[%d] differs bitwise: %v vs %v", e, del.State.U[e], ref.State.U[e])
		}
	}
	if eDel.SimTime() != eRef.SimTime() {
		t.Errorf("delegation changed the simulated clock: %v vs %v", eDel.SimTime(), eRef.SimTime())
	}
}
