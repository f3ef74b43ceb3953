package sw

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/par"
	"repro/internal/telemetry"
)

// stepBody strips a schedule down to the four-stage body both precisions
// share: no hook slots (float64 only), no load/entry-diagnostics prologue and
// no stores (float32 only).
func stepBody(ids []string) []string {
	var out []string
	for _, id := range ids {
		if strings.HasPrefix(id, "hook@") || strings.HasSuffix(id, "@in") || strings.HasSuffix(id, "@out") {
			continue
		}
		out = append(out, id)
	}
	return out
}

// TestOneStepDescription pins that precision is a parameter of the compiled
// plan, not a second description of the step: across the configuration
// matrix the float32 schedule is the float64 schedule plus a load prologue
// and a store epilogue — same body ops in the same order, same liveness
// elision, and no more barriers than the prologue and epilogue account for.
func TestOneStepDescription(t *testing.T) {
	m := planTestMesh(t, 2)
	pool := par.NewPool(4)
	defer pool.Close()
	for name, cfg := range planConfigs(m) {
		t.Run(name, func(t *testing.T) {
			s := planTestSolver(t, m, cfg, 5)
			r64 := MustCompile(s, pool, PlanOptions{})
			r32 := MustCompile(s, pool, PlanOptions{Float32: true})
			if got, want := stepBody(r32.OpIDs()), stepBody(r64.OpIDs()); !reflect.DeepEqual(got, want) {
				t.Errorf("float32 body differs from float64:\n f32 %v\n f64 %v", got, want)
			}
			if got, want := r32.Elided(), r64.Elided(); !reflect.DeepEqual(got, want) {
				t.Errorf("float32 elides %v, float64 elides %v", got, want)
			}
			ids := r32.OpIDs()
			if ids[0] != "ldH@in" || ids[len(ids)-1] != "stV@out" {
				t.Errorf("float32 schedule is not load ... store: %v", ids)
			}
			// Every prologue op and the store scope can cost at most one
			// barrier each, plus the prologue/body scope boundary.
			wrap := len(ids) - len(stepBody(ids))
			if r32.Barriers() < r64.Barriers() || r32.Barriers() > r64.Barriers()+wrap {
				t.Errorf("float32 plan has %d barriers, float64 %d, %d wrapping ops",
					r32.Barriers(), r64.Barriers(), wrap)
			}
		})
	}
}

// TestFloat32TasksBitwise: task-graph execution of the float32 plan runs the
// same closures over the same ranges as its barrier execution, so the two —
// and every worker count — agree bit for bit.
func TestFloat32TasksBitwise(t *testing.T) {
	m := planTestMesh(t, 3)
	for name, cfg := range planConfigs(m) {
		t.Run(name, func(t *testing.T) {
			ref := planTestSolver(t, m, cfg, 23)
			ref.Runner = MustCompile(ref, nil, PlanOptions{Float32: true})
			ref.Run(4)
			for _, opts := range []PlanOptions{{Float32: true}, {Float32: true, Tasks: true}} {
				for _, nw := range []int{1, 3, 4} {
					pool := par.NewPool(nw)
					s := planTestSolver(t, m, cfg, 23)
					r := MustCompile(s, pool, opts)
					if r.TaskMode() != opts.Tasks {
						t.Fatalf("TaskMode() = %v for %+v", r.TaskMode(), opts)
					}
					s.Runner = r
					s.Run(4)
					pool.Close()
					what := fmt.Sprintf("tasks=%v w%d", opts.Tasks, nw)
					requireSame(t, what+" h", s.State.H, ref.State.H)
					requireSame(t, what+" u", s.State.U, ref.State.U)
					requireSame(t, what+" ke", s.Diag.KE, ref.Diag.KE)
					requireSame(t, what+" pv_vertex", s.Diag.PVVertex, ref.Diag.PVVertex)
				}
			}
		})
	}
}

// TestWorkerRangesCacheLineAligned: neighbouring workers must never write the
// same 64-byte line, so interior range boundaries are multiples of 8 elements
// in a float64 plan and 16 in a float32 one.
func TestWorkerRangesCacheLineAligned(t *testing.T) {
	m := planTestMesh(t, 3)
	pool := par.NewPool(3)
	defer pool.Close()
	s := planTestSolver(t, m, DefaultConfig(m), 3)
	for _, tc := range []struct {
		opts  PlanOptions
		align int32
	}{{PlanOptions{}, 8}, {PlanOptions{Float32: true}, 16}} {
		r := MustCompile(s, pool, tc.opts)
		for _, op := range r.stepPlan.ops {
			if op.hook {
				continue
			}
			n := op.ranges[len(op.ranges)-1][1]
			for w, rg := range op.ranges[:len(op.ranges)-1] {
				if rg[1]%tc.align != 0 && rg[1] != n {
					t.Errorf("float32=%v op %s: worker %d ends at %d, not a multiple of %d",
						tc.opts.Float32, op.id, w, rg[1], tc.align)
				}
			}
		}
	}
}

// TestStepFallbackCounted: whenever a compiled plan is attached but Step runs
// the kernel-by-kernel loop instead, sw_step_fallback_total says so.
func TestStepFallbackCounted(t *testing.T) {
	m := planTestMesh(t, 2)
	hook := func(int, *State) {}
	ov := &Overlap{Post: hook, Wait: hook,
		InteriorCells:    func(int) int { return m.NCells / 2 },
		InteriorEdges:    func(int) int { return m.NEdges / 2 },
		InteriorVertices: func(int) int { return m.NVertices / 2 }}
	for _, tc := range []struct {
		name    string
		opts    PlanOptions
		perturb func(s *Solver)
		want    int64
	}{
		{"plan", PlanOptions{}, func(*Solver) {}, 0},
		{"plan+hook", PlanOptions{}, func(s *Solver) { s.PostSubstep = hook }, 0},
		{"tasks+hook", PlanOptions{Tasks: true}, func(s *Solver) { s.PostSubstep = hook }, 0},
		{"float32", PlanOptions{Float32: true}, func(*Solver) {}, 0},
		{"float32+tasks", PlanOptions{Float32: true, Tasks: true}, func(*Solver) {}, 0},
		{"overlap", PlanOptions{Overlap: ov}, func(*Solver) {}, 0},
		{"cfg mutated", PlanOptions{}, func(s *Solver) { s.Cfg.RayleighFriction = 1e-6 }, 2},
		{"tracer", PlanOptions{}, func(s *Solver) { s.AddTracer("q", make([]float64, m.NCells)) }, 2},
		{"float32+hook", PlanOptions{Float32: true}, func(s *Solver) { s.PostSubstep = hook }, 2},
		{"overlap+hook", PlanOptions{Overlap: ov}, func(s *Solver) { s.PostSubstep = hook }, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := planTestSolver(t, m, DefaultConfig(m), 9)
			reg := telemetry.NewRegistry()
			s.EnableTelemetry(nil, reg)
			s.Runner = MustCompile(s, nil, tc.opts)
			tc.perturb(s)
			s.Run(2)
			if got := reg.Counter("sw_step_fallback_total").Value(); got != tc.want {
				t.Errorf("sw_step_fallback_total = %d after 2 steps, want %d", got, tc.want)
			}
		})
	}
	// No plan attached: the kernel loop is the only path, not a fallback;
	// and without a registry the counter is a nil-safe no-op.
	s := planTestSolver(t, m, DefaultConfig(m), 9)
	reg := telemetry.NewRegistry()
	s.EnableTelemetry(nil, reg)
	s.Step()
	if got := reg.Counter("sw_step_fallback_total").Value(); got != 0 {
		t.Errorf("serial runner counted %d fallbacks", got)
	}
	s.EnableTelemetry(nil, nil)
	s.Runner = MustCompile(s, nil, PlanOptions{Float32: true})
	s.PostSubstep = hook
	s.Step()
}
