package dist

import (
	"fmt"

	"repro/internal/halo"
	"repro/internal/mesh"
	"repro/internal/par"
	"repro/internal/partition"
	"repro/internal/sw"
)

// HaloLayers is the halo depth of distributed runs — three layers cover the
// dependency radius of one RK substage (see mpisim.HaloLayers for the
// derivation; the two substrates must agree so a trajectory is substrate-
// independent).
const HaloLayers = 3

// DefaultMesh builds the canonical global mesh for distributed runs at the
// given icosahedral level. EVERY process of a run — and any serial process
// whose trajectory is compared against the run — must construct its mesh
// through this function: the ranks rebuild the global mesh independently
// rather than shipping it, which is only sound because construction is
// deterministic for fixed options.
func DefaultMesh(level int) (*mesh.Mesh, error) {
	return mesh.Build(level, mesh.Options{LloydIterations: 2})
}

// RankSolver is one process-rank of a distributed shallow-water run: the
// TCP counterpart of mpisim.RankSolver. Overlap mode steps through the
// comm/compute-overlapped compiled plan (sw.PlanOptions.Overlap); blocking
// mode steps through the plain compiled plan with the exchange in the
// PostSubstep hook slot. Both modes use the same Exchanger, links and
// frames, so their difference is scheduling alone.
type RankSolver struct {
	Comm  *Comm
	Local *partition.Local
	Ex    *Exchanger
	S     *sw.Solver

	globalCells int
	globalEdges int
	// Rank 0 keeps every rank's owned-entity counts to size gather
	// receives; nil elsewhere.
	ownedCells []int
	ownedEdges []int

	err error // first exchange error observed inside a step
}

// RankOptions selects how a rank schedules its local step.
type RankOptions struct {
	// Overlap steps through the comm/compute-overlapped compiled plan; off
	// means the blocking plan with the exchange in the PostSubstep slot.
	Overlap bool
	// TaskPlan lowers whichever schedule Overlap selected into the
	// dependency-counted task graph (sw.PlanOptions.Tasks): same ops, same
	// ranges, no level barriers. With Overlap, a stage's halo Wait gates only
	// that stage's boundary-slice tasks, so interior work keeps flowing while
	// frames are in flight. Trajectories are bitwise-unchanged either way.
	TaskPlan bool
}

// NewRankSolver completes the bootstrap into a running rank: partition from
// the distributed owner map, extraction of the rank-local mesh (halo-depth
// ordered), halo spec construction, neighbor link establishment, and solver
// wiring. pool supplies the rank-local worker team (nil = serial).
//
// Every rank calls partition.FromOwner on the SAME owner map and extracts
// every part, so local numberings agree across processes without any
// further communication.
func NewRankSolver(b *Bootstrap, g *mesh.Mesh, cfg sw.Config, setup func(*sw.Solver), pool *par.Pool, overlap bool) (*RankSolver, error) {
	return NewRankSolverOpts(b, g, cfg, setup, pool, RankOptions{Overlap: overlap})
}

// NewRankSolverOpts is NewRankSolver with the full scheduling options.
func NewRankSolverOpts(b *Bootstrap, g *mesh.Mesh, cfg sw.Config, setup func(*sw.Solver), pool *par.Pool, opts RankOptions) (*RankSolver, error) {
	c := b.Comm
	if len(b.Owner) != g.NCells {
		return nil, fmt.Errorf("dist: owner map covers %d cells, mesh has %d", len(b.Owner), g.NCells)
	}
	part, err := partition.FromOwner(b.Owner, c.N)
	if err != nil {
		return nil, err
	}
	locals := make([]*partition.Local, c.N)
	for r := 0; r < c.N; r++ {
		locals[r] = partition.Extract(g, part, r, HaloLayers)
	}
	specs := halo.BuildSpecs(g, locals)
	if err := halo.Validate(specs); err != nil {
		return nil, err
	}
	spec := specs[c.Rank]
	if err := b.ConnectPeers(spec.Peers); err != nil {
		return nil, err
	}

	l := locals[c.Rank]
	s, err := sw.NewSolver(l.M, cfg)
	if err != nil {
		return nil, err
	}
	rs := &RankSolver{Comm: c, Local: l, Ex: NewExchanger(c, spec), S: s,
		globalCells: g.NCells, globalEdges: g.NEdges}
	if c.Rank == 0 {
		rs.ownedCells = make([]int, c.N)
		rs.ownedEdges = make([]int, c.N)
		for r, lr := range locals {
			rs.ownedCells[r] = lr.NOwnedCells
			for _, o := range lr.EdgeOwner {
				if int(o) == r {
					rs.ownedEdges[r]++
				}
			}
		}
	}

	popts := sw.PlanOptions{Tasks: opts.TaskPlan}
	if opts.Overlap {
		popts.Overlap = &sw.Overlap{
			Post: func(stage int, st *sw.State) { rs.Ex.Post(st.H, st.U) },
			Wait: func(stage int, st *sw.State) {
				if err := rs.Ex.Wait(st.H, st.U); err != nil && rs.err == nil {
					rs.err = err
				}
			},
			InteriorCells:    l.InteriorCells,
			InteriorEdges:    l.InteriorEdges,
			InteriorVertices: l.InteriorVertices,
		}
	} else {
		s.PostSubstep = func(stage int, st *sw.State) {
			if err := rs.Ex.Exchange(st.H, st.U); err != nil && rs.err == nil {
				rs.err = err
			}
		}
	}
	runner, err := sw.Compile(s, pool, popts)
	if err != nil {
		return nil, err
	}
	s.Runner = runner

	setup(s)
	// Same bootstrap as mpisim: one exchange so a not-purely-analytic setup
	// still starts consistent, then refresh the diagnostics.
	if err := rs.Ex.Exchange(s.State.H, s.State.U); err != nil {
		return nil, err
	}
	s.Init()
	return rs, nil
}

// Step advances one RK-4 step (4 halo exchanges) and reports any exchange
// error raised inside it.
func (r *RankSolver) Step() error {
	r.S.Step()
	return r.Err()
}

// Run advances n steps, stopping at the first exchange error.
func (r *RankSolver) Run(n int) error {
	for i := 0; i < n; i++ {
		if err := r.Step(); err != nil {
			return err
		}
	}
	return nil
}

// Err reports the sticky first exchange error.
func (r *RankSolver) Err() error {
	if r.err != nil {
		return r.err
	}
	return r.Comm.Err()
}

// GlobalMass is the distributed mass invariant: sum over owned cells of
// area*h, allreduced in rank order.
func (r *RankSolver) GlobalMass() (float64, error) {
	local := 0.0
	for lc := 0; lc < r.Local.NOwnedCells; lc++ {
		local += r.S.M.AreaCell[lc] * r.S.State.H[lc]
	}
	return r.Comm.AllreduceSum(local)
}

// GatherCellField reconstructs the global cell field from every rank's
// owned portion: rank 0 returns the full field, others nil. Protocol as in
// mpisim: [globalIdx, value] pairs, one frame per rank.
func (r *RankSolver) GatherCellField(local []float64) ([]float64, error) {
	if r.Comm.Rank != 0 {
		buf := make([]float64, 2*r.Local.NOwnedCells)
		for lc := 0; lc < r.Local.NOwnedCells; lc++ {
			buf[2*lc] = float64(r.Local.CellL2G[lc])
			buf[2*lc+1] = local[lc]
		}
		return nil, r.Comm.Send(0, buf)
	}
	out := make([]float64, r.globalCells)
	for lc := 0; lc < r.Local.NOwnedCells; lc++ {
		out[r.Local.CellL2G[lc]] = local[lc]
	}
	for from := 1; from < r.Comm.N; from++ {
		buf := make([]float64, 2*r.ownedCells[from])
		if err := r.Comm.Recv(from, buf); err != nil {
			return nil, err
		}
		for i := 0; i+1 < len(buf); i += 2 {
			out[int(buf[i])] = buf[i+1]
		}
	}
	return out, nil
}

// GatherEdgeField reconstructs the global edge field from the portions each
// rank owns (EdgeOwner), same protocol as GatherCellField.
func (r *RankSolver) GatherEdgeField(local []float64) ([]float64, error) {
	if r.Comm.Rank != 0 {
		var buf []float64
		for le, owner := range r.Local.EdgeOwner {
			if int(owner) == r.Comm.Rank {
				buf = append(buf, float64(r.Local.EdgeL2G[le]), local[le])
			}
		}
		return nil, r.Comm.Send(0, buf)
	}
	out := make([]float64, r.globalEdges)
	for le, owner := range r.Local.EdgeOwner {
		if owner == 0 {
			out[r.Local.EdgeL2G[le]] = local[le]
		}
	}
	for from := 1; from < r.Comm.N; from++ {
		buf := make([]float64, 2*r.ownedEdges[from])
		if err := r.Comm.Recv(from, buf); err != nil {
			return nil, err
		}
		for i := 0; i+1 < len(buf); i += 2 {
			out[int(buf[i])] = buf[i+1]
		}
	}
	return out, nil
}
