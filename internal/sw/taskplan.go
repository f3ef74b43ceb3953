package sw

import (
	"fmt"
	"strings"

	"repro/internal/dataflow"
	"repro/internal/par"
	"repro/internal/pattern"
	"repro/internal/telemetry"
)

// This file lowers a compiled (possibly overlaid) step plan one level
// further: from a level-barrier schedule to a static task graph. Each
// (op, worker-range) pair of the schedule becomes one task with a
// precomputed dependency counter; the ~21 global barriers per RK-4 step
// become point-to-point releases of successor tasks, executed by
// par.TaskGraph's work-stealing runtime.
//
// Because every task runs the SAME closure over the SAME half-open range as
// the corresponding schedule entry in barrier mode, and the dependency edges
// enforce every read/write hazard the barriers enforced, any interleaving
// the task runtime produces writes bit-for-bit the same values: each array
// element is produced by exactly one task per schedule position, with
// identical sequential arithmetic. Task mode is therefore bitwise identical
// to plan mode (proven end-to-end by internal/conform's taskplan strategy).
//
// Dependencies are derived by a schedule-order hazard walk over the plan's
// declared read/write sets (the same metadata dataflow.Build consumes):
// per-variable lists of accumulated writers and readers-since-last-full-write
// generate RAW/WAW/WAR edges. Two refinements keep the graph sparse and the
// overlap alive:
//
//   - An edge that is local under the plan's locality predicate (pointwise
//     consumer, identical tiling) connects tile k to tile k only — but it
//     DOES connect them: in barrier mode locality let the edge go entirely
//     unsynchronized because the same worker runs both tiles in order, and
//     work stealing breaks exactly that guarantee.
//   - On an overlaid schedule, a stage's halo Wait carries edges to the
//     stage's boundary (":bnd") tasks only. The interior (":int") tasks'
//     WAR hazard against Wait's halo unpack is vacuous by the overlay's
//     taint argument (interior elements never read depth-0 slots), so
//     interior tiles flow through what barrier mode makes a hard frontier.
//
// The builder is double-checked at compile time by an independent verifier:
// dataflow.Build recomputes the dependency edges of the whole program, and
// every required (writer-task, reader-task) pair must be connected in the
// task graph's transitive closure.

type taskNodeKind int8

const (
	nodeCompute taskNodeKind = iota
	nodeHook
	nodePost
	nodeWait
)

// taskNode is one schedule position's image in the task graph: its hazard
// metadata plus the ids of the tasks (one per non-empty worker range, or a
// single serial task for hook/post/wait positions).
type taskNode struct {
	pos     int // schedule position in plan.ops
	specIdx int // index into plan.specs
	stage   int
	kind    taskNodeKind
	// interior marks an overlay ":int" slice — the reader role of the
	// deliberate Wait-overlap exemption.
	interior bool
	// Write-span metadata for the hazard walk. spanKnown is false for Wait
	// (it scatters into halo slots, not a contiguous range); full means the
	// write covers the variable's whole index space and kills prior writers.
	lo, hi    int32
	spanKnown bool
	full      bool
	reads     []string
	writes    []string
	ranges    [][2]int32
	// tasks holds the task id per worker tile (-1 for an empty range), or a
	// single id for serial kinds.
	tasks []int32
}

func (n *taskNode) readsVar(v string) bool {
	for _, r := range n.reads {
		if r == v {
			return true
		}
	}
	return false
}

func (n *taskNode) writesVar(v string) bool {
	for _, w := range n.writes {
		if w == v {
			return true
		}
	}
	return false
}

func sameRanges(a, b [][2]int32) bool {
	if len(a) != len(b) {
		return false
	}
	if len(a) > 0 && &a[0] == &b[0] {
		return true
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// taskify lowers r's compiled step plan into a frozen task graph and
// verifies it against an independently built dependency graph. Kernel plans
// keep their (rarely hot) barrier schedules.
func (r *PlanRunner) taskify() error {
	g, nodes, err := r.buildTaskGraph(r.stepPlan)
	if err != nil {
		return fmt.Errorf("sw: task plan: %w", err)
	}
	if err := verifyTaskGraph(r.stepPlan, g, nodes, r.pool.Workers()); err != nil {
		return fmt.Errorf("sw: task plan verification: %w", err)
	}
	r.tasks = g
	return nil
}

// TaskGraph returns the compiled task graph, or nil when the runner executes
// the level-barrier schedule.
func (r *PlanRunner) TaskGraph() *par.TaskGraph { return r.tasks }

// TaskMode reports whether Step() runs the task graph.
func (r *PlanRunner) TaskMode() bool { return r.tasks != nil }

// InstrumentTasks attaches the task runtime's scheduling telemetry
// (par_taskplan_* tasks/steals/queue-depth/idle instruments) from reg.
// No-op on a barrier-mode runner or a nil registry.
func (r *PlanRunner) InstrumentTasks(reg *telemetry.Registry) {
	if r.tasks != nil {
		r.tasks.Instrument(reg, "taskplan")
	}
}

// buildTaskGraph turns every schedule position of p into tasks and derives
// the dependency edges with a schedule-order hazard walk.
func (r *PlanRunner) buildTaskGraph(p *plan) (*par.TaskGraph, []*taskNode, error) {
	nw := r.pool.Workers()
	s := p.s
	g := par.NewTaskGraph(r.pool)

	nodes := make([]*taskNode, 0, len(p.ops))
	for i := range p.ops {
		op := &p.ops[i]
		sp := p.specs[p.order[i]]
		n := &taskNode{pos: i, specIdx: p.order[i], stage: op.stage}
		stage := op.stage
		switch {
		case op.hook:
			// The serial PostSubstep slot: a single task reading and (per
			// its declared contract) rewriting the stage's prognostic
			// fields. It funnels the stage — exactly what its conditional
			// barrier did — but costs nothing when no hook is installed.
			n.kind = nodeHook
			n.reads, n.writes = sp.reads, sp.writes
			n.full = true
			id := g.AddTask(0, func() {
				if hook := s.PostSubstep; hook != nil {
					st := s.Provis
					if stage == 3 {
						st = s.State
					}
					hook(stage, st)
				}
			})
			n.tasks = []int32{id}
		case op.post:
			// Post packs and launches the halo exchange: it reads the
			// exchanged fields (the overlay stores the hook spec's writes as
			// this position's spec) and writes nothing.
			n.kind = nodePost
			n.reads = sp.writes
			ov := p.ov
			id := g.AddTask(0, func() {
				st := s.Provis
				if stage == 3 {
					st = s.State
				}
				ov.Post(stage, st)
			})
			n.tasks = []int32{id}
		case op.wait:
			// Wait completes the exchange and unpacks into the halo slots:
			// an opaque partial write of the exchanged fields.
			n.kind = nodeWait
			n.writes = sp.writes
			ov := p.ov
			id := g.AddTask(0, func() {
				st := s.Provis
				if stage == 3 {
					st = s.State
				}
				ov.Wait(stage, st)
			})
			n.tasks = []int32{id}
		default:
			n.kind = nodeCompute
			n.reads, n.writes = sp.reads, sp.writes
			n.ranges = op.ranges
			n.lo = op.ranges[0][0]
			n.hi = op.ranges[len(op.ranges)-1][1]
			n.spanKnown = true
			n.full = n.lo == 0 && int(n.hi) == sp.n
			n.interior = strings.HasSuffix(op.id, ":int")
			n.tasks = make([]int32, nw)
			run := op.run
			for w := 0; w < nw; w++ {
				rg := op.ranges[w]
				if rg[0] >= rg[1] {
					n.tasks[w] = -1
					continue
				}
				lo, hi := int(rg[0]), int(rg[1])
				n.tasks[w] = g.AddTask(w, func() { run(lo, hi) })
			}
		}
		nodes = append(nodes, n)
	}

	// connect adds the task-level edges for one node-level dependency:
	// tile k -> tile k when the edge is local under the plan's predicate and
	// both nodes share the tiling (stealing still needs the edge, but only
	// pointwise), all-to-all otherwise.
	connect := func(a, b *taskNode, kind dataflow.DepKind) {
		if a.kind == nodeCompute && b.kind == nodeCompute &&
			localEdge(p.specs[a.specIdx], p.specs[b.specIdx], kind) &&
			sameRanges(a.ranges, b.ranges) {
			for w := 0; w < nw; w++ {
				if a.tasks[w] >= 0 && b.tasks[w] >= 0 {
					g.AddDep(a.tasks[w], b.tasks[w])
				}
			}
			return
		}
		for _, at := range a.tasks {
			if at < 0 {
				continue
			}
			for _, bt := range b.tasks {
				if bt < 0 {
					continue
				}
				g.AddDep(at, bt)
			}
		}
	}

	// The hazard walk. writers[v] accumulates the nodes whose writes are
	// still visible somewhere in v (a full write resets the list; a partial
	// write prunes writers its span fully covers — their readers already got
	// edges); readers[v] accumulates readers since the last full write.
	writers := map[string][]*taskNode{}
	readers := map[string][]*taskNode{}
	var postNode [4]*taskNode
	for _, n := range nodes {
		for _, v := range n.reads {
			for _, w := range writers[v] {
				connect(w, n, dataflow.RAW)
			}
		}
		for _, v := range n.writes {
			for _, w := range writers[v] {
				if w != n {
					connect(w, n, dataflow.WAW)
				}
			}
			for _, rd := range readers[v] {
				if rd == n {
					continue
				}
				if n.kind == nodeWait && rd.kind == nodeCompute &&
					rd.interior && rd.stage == n.stage {
					// The overlap's raison d'être: Wait unpacks only halo
					// slots, which the stage's interior slices provably
					// never read (overlap.go's taint argument), so the WAR
					// hazard is vacuous and interior tiles run concurrently
					// with the exchange.
					continue
				}
				connect(rd, n, dataflow.WAR)
			}
			if n.full {
				writers[v] = []*taskNode{n}
				readers[v] = nil
			} else {
				kept := writers[v][:0]
				for _, w := range writers[v] {
					if n.spanKnown && w.spanKnown && w.lo >= n.lo && w.hi <= n.hi {
						continue
					}
					kept = append(kept, w)
				}
				writers[v] = append(kept, n)
			}
		}
		for _, v := range n.reads {
			readers[v] = append(readers[v], n)
		}
		// Post -> Wait of the same stage, explicitly. (The WAR hazard on the
		// exchanged fields implies it already; the explicit edge keeps the
		// exchange protocol correct even if the hook metadata ever changes.)
		switch n.kind {
		case nodePost:
			postNode[n.stage] = n
		case nodeWait:
			if pn := postNode[n.stage]; pn != nil {
				g.AddDep(pn.tasks[0], n.tasks[0])
			}
		}
	}

	if err := g.Freeze(); err != nil {
		return nil, nil, err
	}
	return g, nodes, nil
}

// verifyTaskGraph independently re-derives the program's dependency edges
// with dataflow.Build over the plan's specs and checks each one against the
// task graph's transitive closure: for every schedule-ordered pair of nodes
// playing the edge's two roles, the required tasks must be connected —
// tile-wise for local same-tiling edges, all-to-all otherwise. The only
// uncovered pairs are the overlay's deliberate Wait/interior exemption.
func verifyTaskGraph(p *plan, g *par.TaskGraph, nodes []*taskNode, nw int) error {
	// Ancestor bitsets in one forward sweep: the builder only creates
	// forward edges (pred id < succ id), which the sweep double-checks.
	ntasks := g.Tasks()
	words := (ntasks + 63) / 64
	anc := make([][]uint64, ntasks)
	bits := make([]uint64, ntasks*words)
	for t := range anc {
		anc[t] = bits[t*words : (t+1)*words]
	}
	var edgeErr error
	g.EachEdge(func(pred, succ int32) {
		if pred >= succ {
			edgeErr = fmt.Errorf("task graph edge %d -> %d is not forward", pred, succ)
			return
		}
		pb, sb := anc[pred], anc[succ]
		for i := range sb {
			sb[i] |= pb[i]
		}
		sb[pred/64] |= 1 << (pred % 64)
	})
	if edgeErr != nil {
		return edgeErr
	}
	reaches := func(a, b int32) bool {
		if a == b {
			return true
		}
		return anc[b][a/64]&(1<<(a%64)) != 0
	}

	nodesBySpec := make([][]*taskNode, len(p.specs))
	for _, n := range nodes {
		nodesBySpec[n.specIdx] = append(nodesBySpec[n.specIdx], n)
	}

	insts := make([]pattern.Instance, len(p.specs))
	for i, sp := range p.specs {
		insts[i] = sp.instance()
	}
	df := dataflow.Build(insts)
	for _, e := range df.Edges {
		for _, a := range nodesBySpec[e.From] {
			for _, b := range nodesBySpec[e.To] {
				if a.pos >= b.pos {
					// Reverse-schedule pairs (an overlay boundary slice vs a
					// later op's interior slice) are ordering-free by the
					// overlay's taint argument — barrier mode runs them in
					// this same reversed order.
					continue
				}
				switch e.Kind {
				case dataflow.RAW:
					if !a.writesVar(e.Variable) || !b.readsVar(e.Variable) {
						continue
					}
					if a.kind == nodeWait && b.interior && a.stage == b.stage {
						continue // the deliberate overlap exemption
					}
				case dataflow.WAR:
					if !a.readsVar(e.Variable) || !b.writesVar(e.Variable) {
						continue
					}
					if b.kind == nodeWait && a.interior && a.stage == b.stage {
						continue
					}
				case dataflow.WAW:
					if !a.writesVar(e.Variable) || !b.writesVar(e.Variable) {
						continue
					}
				}
				tileWise := a.kind == nodeCompute && b.kind == nodeCompute &&
					localEdge(p.specs[a.specIdx], p.specs[b.specIdx], e.Kind) &&
					sameRanges(a.ranges, b.ranges)
				if tileWise {
					for w := 0; w < nw; w++ {
						if a.tasks[w] < 0 || b.tasks[w] < 0 {
							continue
						}
						if !reaches(a.tasks[w], b.tasks[w]) {
							return fmt.Errorf("%s dependency %s (%s pos %d -> %s pos %d) unordered at tile %d",
								e.Kind, e.Variable, p.specs[e.From].id, a.pos, p.specs[e.To].id, b.pos, w)
						}
					}
					continue
				}
				for _, at := range a.tasks {
					if at < 0 {
						continue
					}
					for _, bt := range b.tasks {
						if bt < 0 {
							continue
						}
						if !reaches(at, bt) {
							return fmt.Errorf("%s dependency %s (%s pos %d -> %s pos %d) unordered",
								e.Kind, e.Variable, p.specs[e.From].id, a.pos, p.specs[e.To].id, b.pos)
						}
					}
				}
			}
		}
	}
	return nil
}
