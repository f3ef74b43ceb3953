package mpas

import (
	"math"
	"strings"
	"testing"

	"repro/internal/mesh"
	"repro/internal/sw"
)

func newModel(t testing.TB, opts Options) *Model {
	t.Helper()
	m, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m
}

func TestNewDefaults(t *testing.T) {
	m := newModel(t, Options{Level: 3})
	if m.Mesh.NCells != 642 {
		t.Errorf("level 3 cells %d", m.Mesh.NCells)
	}
	if m.Mode != Serial {
		t.Errorf("default mode %v", m.Mode)
	}
	if m.Config.Dt <= 0 {
		t.Error("no default dt")
	}
}

func TestNewErrors(t *testing.T) {
	if _, err := New(Options{Level: 3, TestCase: 99}); err == nil {
		t.Error("bad test case accepted")
	}
	if _, err := New(Options{Level: 3, Mode: Mode(42)}); err == nil {
		t.Error("bad mode accepted")
	}
}

func TestModesProduceIdenticalTrajectories(t *testing.T) {
	msh, err := mesh.Build(3, mesh.Options{LloydIterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	var ref []float64
	for _, mode := range []Mode{Serial, Threaded, Plan, TaskPlan, KernelLevel, PatternDriven} {
		m := newModel(t, Options{Mesh: msh, TestCase: TC5, Mode: mode,
			Workers: 2, DeviceWorkers: 2, AdjustableFraction: 0.25,
			PlanHost: mode == KernelLevel})
		m.Run(4)
		if ref == nil {
			ref = append([]float64(nil), m.Solver.State.H...)
			continue
		}
		for c := range ref {
			if m.Solver.State.H[c] != ref[c] {
				t.Fatalf("mode %v diverges from serial at cell %d", mode, c)
			}
		}
	}
}

// TestPlanModeAdvectionOnly pins the construction order of Plan mode: TC1's
// setup flips Cfg.AdvectionOnly, so the plan must be compiled after the test
// case is applied (a plan specialized on the wrong configuration would either
// refuse the compiled path or diverge).
// TestFloat32HonoursMode: float32 is the compiled plan at single precision,
// so every host mode steps through it, TaskPlan selects its task executor,
// and all of them follow one bitwise trajectory.
func TestFloat32HonoursMode(t *testing.T) {
	msh, err := mesh.Build(3, mesh.Options{LloydIterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	var ref []float64
	for _, mode := range []Mode{Serial, Threaded, Plan, TaskPlan} {
		m := newModel(t, Options{Mesh: msh, TestCase: TC5, Mode: mode, Workers: 2, Precision: "float32"})
		r, ok := m.Solver.Runner.(*sw.PlanRunner)
		if !ok {
			t.Fatalf("mode %v float32: runner is %T, want the compiled plan", mode, m.Solver.Runner)
		}
		if r.TaskMode() != (mode == TaskPlan) {
			t.Errorf("mode %v float32: TaskMode() = %v", mode, r.TaskMode())
		}
		m.Run(4)
		if ref == nil {
			ref = append([]float64(nil), m.Solver.State.H...)
			continue
		}
		for c := range ref {
			if m.Solver.State.H[c] != ref[c] {
				t.Fatalf("float32 under mode %v diverges from float32 serial at cell %d", mode, c)
			}
		}
	}
	if _, err := New(Options{Mesh: msh, Mode: PatternDriven, Precision: "float32"}); err == nil {
		t.Error("float32 accepted under a hybrid mode")
	}
}

func TestPlanModeAdvectionOnly(t *testing.T) {
	msh, err := mesh.Build(2, mesh.Options{LloydIterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	ref := newModel(t, Options{Mesh: msh, TestCase: TC1})
	ref.Run(3)
	m := newModel(t, Options{Mesh: msh, TestCase: TC1, Mode: Plan, Workers: 2})
	m.Run(3)
	for c := range ref.Solver.State.H {
		if m.Solver.State.H[c] != ref.Solver.State.H[c] {
			t.Fatalf("plan TC1 diverges from serial at cell %d", c)
		}
	}
}

func TestRunDaysAndTime(t *testing.T) {
	m := newModel(t, Options{Level: 2, TestCase: TC2})
	m.RunDays(0.2)
	if m.Time() <= 0 {
		t.Error("time did not advance")
	}
	want := float64(m.StepsPerDay()) * m.Config.Dt
	if math.Abs(want-86400) > m.Config.Dt {
		t.Errorf("StepsPerDay covers %v s", want)
	}
}

func TestHybridModelAccumulatesPlatformTime(t *testing.T) {
	m := newModel(t, Options{Level: 2, TestCase: TC2, Mode: PatternDriven,
		AdjustableFraction: -1, Workers: 2, DeviceWorkers: 2})
	m.Run(2)
	if m.SimulatedPlatformTime() <= 0 {
		t.Error("no simulated platform time")
	}
	s := newModel(t, Options{Level: 2, TestCase: TC2})
	s.Run(1)
	if s.SimulatedPlatformTime() != 0 {
		t.Error("serial mode should not accumulate platform time")
	}
}

func TestHeightErrorAndTotalHeight(t *testing.T) {
	m := newModel(t, Options{Level: 3, TestCase: TC2})
	ref := append([]float64(nil), m.Solver.State.H...)
	m.Run(5)
	norms := m.HeightError(ref)
	if norms.L2 <= 0 || norms.L2 > 1e-2 {
		t.Errorf("unexpected TC2 error %v", norms.L2)
	}
	th := m.TotalHeight()
	if len(th) != m.Mesh.NCells {
		t.Error("TotalHeight length")
	}
}

// TestModeStrings: every registered mode's display name is the wire name
// ParseMode accepts, and nothing else parses.
func TestModeStrings(t *testing.T) {
	if len(Modes()) != 6 {
		t.Fatalf("%d modes registered, want 6", len(Modes()))
	}
	for _, m := range Modes() {
		if got, err := ParseMode(m.String()); err != nil || got != m {
			t.Errorf("ParseMode(%q) = %v, %v; want %d", m.String(), got, err, int(m))
		}
	}
	for _, name := range []string{"", "kernel-level", "gpu"} {
		if _, err := ParseMode(name); err == nil {
			t.Errorf("ParseMode(%q) accepted", name)
		}
	}
	if Mode(9).String() == "" {
		t.Error("unknown mode string empty")
	}
}

// TestCheckPrecision: float64 runs under every mode, float32 exactly under
// the host-only ones, and New applies the same check.
func TestCheckPrecision(t *testing.T) {
	hostOnly := map[Mode]bool{Serial: true, Threaded: true, Plan: true, TaskPlan: true}
	for _, m := range Modes() {
		for _, p := range []string{"", "float64"} {
			if err := CheckPrecision(m, p); err != nil {
				t.Errorf("%v/%q rejected: %v", m, p, err)
			}
		}
		if err := CheckPrecision(m, "float32"); (err == nil) != hostOnly[m] {
			t.Errorf("%v/float32: err=%v, host-only=%v", m, err, hostOnly[m])
		}
		if err := CheckPrecision(m, "float16"); err == nil {
			t.Errorf("%v/float16 accepted", m)
		}
	}
	if err := CheckPrecision(Mode(9), "float32"); err == nil {
		t.Error("float32 accepted under an unregistered mode")
	}
	if _, err := New(Options{Level: 1, Precision: "float16"}); err == nil {
		t.Error("New accepted precision float16")
	}
}

func TestTable1Rendering(t *testing.T) {
	tab := Table1()
	if tab.NumRows() != 21 {
		t.Errorf("Table I rows %d, want 21 instances", tab.NumRows())
	}
	s := tab.String()
	for _, want := range []string{"compute_tend", "B1", "pv_edge", "mass", "velocity"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table I missing %q", want)
		}
	}
}

func TestTable2Rendering(t *testing.T) {
	s := Table2().String()
	if !strings.Contains(s, "Xeon Phi 5110P") || !strings.Contains(s, "E5-2680") {
		t.Error("Table II devices missing")
	}
}

func TestTable3Rendering(t *testing.T) {
	tab := Table3(0) // counts only, no mesh builds in unit tests
	if tab.NumRows() != 4 {
		t.Errorf("Table III rows %d", tab.NumRows())
	}
	s := tab.String()
	for _, want := range []string{"40962", "163842", "655362", "2621442"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table III missing %s", want)
		}
	}
}

func TestFigure5SmallScale(t *testing.T) {
	// A scaled-down Figure 5: level 3 mesh, a tenth of a day. The hybrid
	// and serial totals must agree within machine precision.
	res, err := Figure5(3, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxAbsDiff/res.FieldScale > 1e-12 {
		t.Errorf("Figure 5 difference %v of field scale %v", res.MaxAbsDiff, res.FieldScale)
	}
	if len(res.SerialHeight) != len(res.HybridHeight) {
		t.Error("field lengths differ")
	}
	// Total height stays in the physical band (roughly 4800..6000 m).
	for _, h := range res.SerialHeight {
		if h < 4000 || h > 7000 {
			t.Fatalf("total height %v out of band", h)
		}
	}
}

func TestFigure6Rendering(t *testing.T) {
	tab := Figure6(655362)
	if tab.NumRows() != 6 {
		t.Errorf("Figure 6 rows %d", tab.NumRows())
	}
	if !strings.Contains(tab.String(), "Refactoring") {
		t.Error("Figure 6 missing refactoring rung")
	}
}

func TestFigure7Rendering(t *testing.T) {
	tab := Figure7()
	if tab.NumRows() != 4 {
		t.Errorf("Figure 7 rows %d", tab.NumRows())
	}
}

func TestFigure8And9Rendering(t *testing.T) {
	if rows := Figure8(655362).NumRows(); rows != 7 {
		t.Errorf("Figure 8 rows %d", rows)
	}
	if rows := Figure9().NumRows(); rows != 4 {
		t.Errorf("Figure 9 rows %d", rows)
	}
}

func TestMeasuredStep(t *testing.T) {
	m := newModel(t, Options{Level: 2, TestCase: TC2})
	if d := MeasuredStep(m, 2); d <= 0 {
		t.Error("non-positive measured step")
	}
	if d := MeasuredStep(m, 0); d <= 0 {
		t.Error("n<1 not clamped")
	}
}

func TestDistributedRunFacade(t *testing.T) {
	msh, err := mesh.Build(3, mesh.Options{LloydIterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	wall, err := DistributedRun(msh, 3, 2, TC5)
	if err != nil {
		t.Fatal(err)
	}
	if wall <= 0 {
		t.Error("non-positive distributed wall time")
	}
	if _, err := DistributedRun(msh, 2, 1, TestCase(77)); err == nil {
		t.Error("bad test case accepted")
	}
}
