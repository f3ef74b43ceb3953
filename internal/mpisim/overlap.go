package mpisim

import (
	"repro/internal/par"
	"repro/internal/sw"
)

// NewOverlapRankSolver builds a rank solver whose step runs through an
// overlap-scheduled compiled plan (sw.PlanOptions.Overlap): instead of the
// blocking PostSubstep exchange, each substage posts its halo sends, computes
// the interior of the diagnostics while messages are in flight, then unpacks
// and finishes the boundary slices. The communication substrate is the same
// channel world; internal/dist supplies the TCP equivalent. pool provides
// the rank-local worker team (nil = serial); tracers are not supported on
// the overlap path (the plan step requires none).
func NewOverlapRankSolver(c *Comm, d *Decomposition, cfg sw.Config, setup func(*sw.Solver), pool *par.Pool) (*RankSolver, error) {
	l := d.Locals[c.Rank]
	s, err := sw.NewSolver(l.M, cfg)
	if err != nil {
		return nil, err
	}
	rs := &RankSolver{Comm: c, Local: l, Plan: d.Plans[c.Rank], S: s,
		globalCells: d.Global.NCells, globalEdges: d.Global.NEdges}
	p := rs.Plan
	ov := &sw.Overlap{
		Post: func(stage int, st *sw.State) {
			ctx := rs.HaloTimer.Start()
			for _, peer := range p.Peers {
				buf := c.w.getBuf(p.SendLen(peer))
				p.PackSend(peer, st.H, st.U, buf)
				c.sendOwned(peer, buf)
			}
			ctx.Stop()
		},
		Wait: func(stage int, st *sw.State) {
			ctx := rs.HaloTimer.Start()
			for _, peer := range p.Peers {
				buf := c.Recv(peer)
				p.UnpackRecv(peer, buf, st.H, st.U)
				c.Release(buf)
			}
			ctx.Stop()
			rs.ExchangeCount++
		},
		InteriorCells:    l.InteriorCells,
		InteriorEdges:    l.InteriorEdges,
		InteriorVertices: l.InteriorVertices,
	}
	runner, err := sw.Compile(s, pool, sw.PlanOptions{Overlap: ov})
	if err != nil {
		return nil, err
	}
	s.Runner = runner
	setup(s)
	// Same bootstrap as the blocking rank solver: one exchange so any
	// not-purely-analytic setup still starts consistent, then refresh the
	// diagnostics (full-range kernel plans — halos are consistent here).
	c.exchange(p, s.State.H, s.State.U)
	s.Init()
	return rs, nil
}
