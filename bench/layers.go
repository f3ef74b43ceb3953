package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	mpas "repro"
	"repro/internal/dist"
	"repro/internal/halo"
	"repro/internal/hybrid"
	"repro/internal/ladder"
	"repro/internal/mesh"
	"repro/internal/par"
	"repro/internal/partition"
	"repro/internal/perfmodel"
	"repro/internal/sw"
	"repro/internal/telemetry"
	"repro/internal/testcases"
)

// layerProbeShare is the part of the run's measuring time one repeated layer
// probe may take (some fifty of them share what the traced pass's sections
// leave); probeMin and probeMax bound its sample count however slow or fast
// the call.
const (
	layerProbeShare = 0.01
	probeMin        = 3
	probeMax        = 2000
)

// timed calls fn repeatedly under spans named name for about e.probeTime and
// returns the per-call durations in milliseconds.
func (e *env) timed(parent handle, name string, fn func()) []float64 {
	var out []float64
	deadline := time.Now().Add(e.probeTime)
	for n := 0; n < probeMin || (n < probeMax && time.Now().Before(deadline)); n++ {
		h := parent.child(name)
		fn()
		out = append(out, ms(h.end()))
	}
	return out
}

// layers runs the traced pass's probes — each a timed call into one layer's
// exported functions at the workload's mesh levels — and assembles every
// per-layer metric, including those the three sections' spans already hold.
func (e *env) layers(root handle, w workload, sv *solveSection, sr *serveOut, ds *distOut) (map[string]metric, error) {
	lay := root.child("layers")
	defer lay.end()
	m := map[string]metric{}

	if err := e.solveLayers(lay, w, sv, m); err != nil {
		return nil, err
	}
	e.parLayers(lay, m)
	if err := e.distLayers(lay, w, ds, m); err != nil {
		return nil, err
	}
	serveLayers(sr, m)
	if err := e.tableIIILayers(lay, m); err != nil {
		return nil, err
	}

	mc := perfmodel.CountsForCells(10*(1<<(2*5)) + 2) // level 5, the size the other modeled figures use
	_, pd := hybrid.TunePatternDriven(mc)
	kl := hybrid.SimulateStep(hybrid.KernelLevelSchedule(), mc, false).Time
	m["hybrid.modeled_step_s"] = scalar(pd, "s")
	m["hybrid.modeled_speedup"] = scalar(kl/pd, "x")

	llc := llcBytes("/sys/devices/system/cpu")
	arr := probeArrayBytes(llc, procBytes("/proc/meminfo", "MemAvailable"), e.probeMax)
	e.logf("host probes: summed LLC %.1f MB, arrays %.1f MB each", float64(llc)/1e6, float64(arr)/1e6)
	h := lay.child("host")
	triad, gather := hostProbes(h, e.ncpu, arr, e.seed)
	h.end()
	runtime.GC()
	m["host.ncpu"] = scalar(float64(e.ncpu), "count")
	m["host.llc_mb"] = scalar(float64(llc)/1e6, "MB")
	m["host.triad_gb_s"] = scalar(triad, "GB/s")
	m["host.gather_gb_s"] = scalar(gather, "GB/s")
	m["sw.plan_bw_frac"] = scalar(m["sw.plan_gb_s"].Value/triad, "ratio")
	m["bench.mem_dilation"] = fromSamples(e.cal.seen, "ratio")
	return m, nil
}

// solveLayers takes the solve set-up apart into its layer calls, then probes
// the compiled step: its op counts, kernels, allocations, checkpoint I/O and
// the task scheduler.
func (e *env) solveLayers(lay handle, w workload, sv *solveSection, m map[string]metric) error {
	level := w.SolveLevel
	sec := lay.child("layers.solve")
	defer sec.end()

	h := sec.child("mesh.build")
	canon, err := mesh.Build(level, mesh.Options{LloydIterations: 2})
	m["mesh.build_s"] = scalar(h.end().Seconds(), "s")
	if err != nil {
		return err
	}
	h = sec.child("mesh.reorder")
	ren := mesh.ComputeReorder(canon)
	rm, err := ren.Apply(canon)
	m["mesh.reorder_s"] = scalar(h.end().Seconds(), "s")
	if err != nil {
		return err
	}
	h = sec.child("mesh.packcsr")
	csr, err := rm.PackCSR()
	m["mesh.packcsr_s"] = scalar(h.end().Seconds(), "s")
	if err != nil {
		return err
	}
	m["mesh.csr_mb"] = scalar(float64(csr.Bytes())/1e6, "MB")
	m["mesh.nbr_dist_mean"] = scalar(rm.NeighborLocality().Mean, "cells")

	cfg := sw.DefaultConfig(canon)
	h = sec.child("sw.newsolver")
	s, err := sw.NewSolver(rm, cfg)
	m["sw.newsolver_s"] = scalar(h.end().Seconds(), "s")
	if err != nil {
		return err
	}
	s.Renumber = ren
	testcases.SetupTC5(s)
	pool := par.NewPool(e.ncpu)
	defer pool.Close()

	// What swserver does per job: decode its cached copy of the level's mesh.
	serveMesh := canon
	if e.serveLevel != level {
		if serveMesh, err = mesh.Build(e.serveLevel, mesh.Options{LloydIterations: 2}); err != nil {
			return err
		}
	}
	var enc bytes.Buffer
	if err := serveMesh.Write(&enc); err != nil {
		return err
	}
	m["mesh.decode_ms"] = fromSamples(e.timed(sec, "mesh.decode", func() {
		if _, err := mesh.ReadFrom(bytes.NewReader(enc.Bytes())); err != nil {
			e.fail(1, "mesh.ReadFrom: %v", err)
		}
	}), "ms")

	var pr *sw.PlanRunner
	m["sw.plan_compile_ms"] = fromSamples(e.timed(sec, "sw.plan_compile", func() {
		if pr, err = sw.NewPlanRunner(s, pool); err != nil {
			e.fail(1, "sw.NewPlanRunner: %v", err)
		}
	}), "ms")
	m["sw.taskplan_compile_ms"] = fromSamples(e.timed(sec, "sw.taskplan_compile", func() {
		if _, err := sw.NewTaskPlanRunner(s, pool); err != nil {
			e.fail(1, "sw.NewTaskPlanRunner: %v", err)
		}
	}), "ms")
	m["sw.fast32_compile_ms"] = fromSamples(e.timed(sec, "sw.fast32_compile", func() {
		if _, err := sw.NewFast32Runner(s, pool); err != nil {
			e.fail(1, "sw.NewFast32Runner: %v", err)
		}
	}), "ms")
	if pr == nil {
		return fmt.Errorf("layers: no plan runner at level %d", level)
	}
	m["sw.plan_ops"] = scalar(float64(len(pr.OpIDs())), "count")
	m["sw.plan_barriers"] = scalar(float64(pr.Barriers()), "count")
	m["sw.plan_elided"] = scalar(float64(len(pr.Elided())), "count")

	// The compiled step, warm: allocations, then spans on against spans off.
	s.Runner = pr
	s.Step()
	const allocSteps = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s.Run(allocSteps)
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / allocSteps
	m["sw.step_allocs"] = scalar(allocs, "count")
	if allocs >= 1 {
		e.fail(allocSteps, "sw: a plan step allocates %.1f objects, want 0", allocs)
	}
	off := newRecorder(false).root("")
	var on, offMS []float64
	for rep := 0; rep < 4; rep++ {
		on = append(on, e.timed(sec, "sw.step.plan", s.Step)...)
		offMS = append(offMS, e.timed(off, "", s.Step)...)
	}
	m["bench.trace_overhead_pct"] = withN(scalar((median(on)/median(offMS)-1)*100, "%"), len(on)+len(offMS))

	// The layer figures are raw wall-clock: no bound hangs on them.
	planMS := median(sv.stepMS["plan"])

	m["sw.invariants_ms"] = fromSamples(e.timed(sec, "sw.invariants", func() { s.ComputeInvariants() }), "ms")
	if err := e.checkpointLayers(sec, s, m); err != nil {
		return err
	}

	// The plain single-threaded run of the same problem.
	ser, err := sw.NewSolver(rm, cfg)
	if err != nil {
		return err
	}
	testcases.SetupTC5(ser)
	ser.Runner = sw.SerialRunner{}
	ser.Step()
	var serMS []float64
	for rep := 0; rep < 4; rep++ {
		serMS = append(serMS, e.timed(sec, "sw.step.serial", ser.Step)...)
	}
	m["sw.serial_step_ms"] = fromSamples(serMS, "ms")
	m["sw.plan_speedup"] = scalar(median(serMS)/planMS, "x")

	// The task scheduler under the real step, with the par telemetry on.
	tm, err := mpas.New(mpas.Options{Mesh: canon, TestCase: mpas.TC5, Mode: mpas.TaskPlan, Workers: e.ncpu, Reorder: true})
	if err != nil {
		return err
	}
	defer tm.Close()
	reg := telemetry.NewRegistry()
	tm.EnableTelemetry(nil, reg)
	tg := tm.Solver.Runner.(*sw.PlanRunner).TaskGraph()
	tm.Step()
	tasks0, steals0, idle0 := tg.TasksExecuted(), tg.Steals(), taskIdle(reg, e.ncpu)
	h = sec.child("par.taskplan_steps")
	steps := len(e.timed(h, "sw.step.taskplan", tm.Step))
	wall := h.end()
	m["par.tasks_per_step"] = scalar(float64(tg.TasksExecuted()-tasks0)/float64(steps), "count")
	m["par.edges_per_task"] = scalar(float64(tg.Edges())/float64(tg.Tasks()), "ratio")
	m["par.steals_per_step"] = scalar(float64(tg.Steals()-steals0)/float64(steps), "count")
	m["par.idle_frac"] = scalar((taskIdle(reg, e.ncpu)-idle0).Seconds()/(wall.Seconds()*float64(e.ncpu)), "ratio")

	// Last, because kernels run out of their RK context leave the state
	// meaningless: each of Algorithm 1's kernels through the compiled plan.
	ks := s.Kernels()
	kernelMS := make([][]float64, len(ks))
	for rep := 0; rep < 3; rep++ {
		for i, k := range ks {
			k := k
			kernelMS[i] = append(kernelMS[i], e.timed(sec, "sw.kernel."+k.Name, func() { pr.RunKernel(k) })...)
		}
	}
	for i, k := range ks {
		m["sw.kernel."+k.Name+"_ms"] = fromSamples(kernelMS[i], "ms")
	}
	return nil
}

// tableIIILayers keeps a Table III mesh in the record: level 7, 163842 cells.
// It was to be an end-to-end workload, but on the reference box its working
// set (0.4 GB) straddles the host's shared 260 MB last-level cache and its
// step time moves between 51 and 80 ms from run to run with nothing else
// changing (quartile spread 20 % where level 6, measured alternately, shows
// 4 %), so no useful bound can hang on it. Being the one mesh that streams
// from memory, it is also where the roofline figure is taken.
func (e *env) tableIIILayers(lay handle, m map[string]metric) error {
	level := e.bigLevel
	sec := lay.child("layers.l7")
	defer sec.end()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	h := sec.child("l7.setup")
	mod, err := mpas.New(mpas.Options{Level: level, TestCase: mpas.TC5, Mode: mpas.Plan, Workers: e.ncpu, Reorder: true})
	m["l7.setup_s"] = scalar(h.end().Seconds(), "s")
	if err != nil {
		return err
	}
	defer mod.Close()
	runtime.GC()
	runtime.ReadMemStats(&after)
	m["l7.mem_live_mb"] = scalar((float64(after.HeapAlloc)-float64(before.HeapAlloc))/1e6, "MB")
	mod.Step()
	var steps []float64
	for rep := 0; rep < 4; rep++ {
		steps = append(steps, e.timed(sec, "l7.step.plan", mod.Step)...)
	}
	m["l7.plan_step_ms"] = fromSamples(steps, "ms")
	// Computed: modeled Table-I bytes of one step over the measured step time.
	mc := perfmodel.MeshCounts{Cells: mod.Mesh.NCells, Edges: mod.Mesh.NEdges, Vertices: mod.Mesh.NVertices}
	m["sw.plan_gb_s"] = scalar(ladder.ModeledBytesPerStep(mc)/(median(steps)/1e3)/1e9, "GB/s")
	return nil
}

// taskIdle sums the task scheduler's per-worker idle timers.
func taskIdle(reg *telemetry.Registry, workers int) time.Duration {
	var d time.Duration
	for w := 0; w < workers; w++ {
		d += reg.Timer(fmt.Sprintf("par_taskplan_w%d_idle_seconds", w)).Total()
	}
	return d
}

// checkpointLayers times WriteCheckpoint and ReadCheckpoint against a file in
// the scratch directory.
func (e *env) checkpointLayers(sec handle, s *sw.Solver, m map[string]metric) error {
	path := filepath.Join(e.workDir, "probe.ckpt")
	var ioErr error
	keep := func(err error) {
		if err != nil && ioErr == nil {
			ioErr = err
		}
	}
	write := e.timed(sec, "sw.ckpt_write", func() {
		f, err := os.Create(path)
		if err != nil {
			keep(err)
			return
		}
		keep(s.WriteCheckpoint(f))
		keep(f.Close())
	})
	if ioErr != nil {
		return fmt.Errorf("layers: writing checkpoint: %w", ioErr)
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	read := e.timed(sec, "sw.ckpt_read", func() {
		f, err := os.Open(path)
		if err != nil {
			keep(err)
			return
		}
		keep(s.ReadCheckpoint(f))
		f.Close()
	})
	if ioErr != nil {
		return fmt.Errorf("layers: reading checkpoint: %w", ioErr)
	}
	m["sw.ckpt_bytes"] = scalar(float64(fi.Size()), "B")
	m["sw.ckpt_write_ms"] = fromSamples(write, "ms")
	m["sw.ckpt_write_mb_s"] = scalar(float64(fi.Size())/1e6/(median(write)/1e3), "MB/s")
	m["sw.ckpt_read_ms"] = fromSamples(read, "ms")
	return nil
}

// parLayers times the thread runtime's primitives with empty bodies at the
// worker count the solve section uses.
func (e *env) parLayers(lay handle, m map[string]metric) {
	workers := e.ncpu
	sec := lay.child("layers.par")
	defer sec.end()
	pool := par.NewPool(workers)
	defer pool.Close()
	const inner = 1000
	perOp := func(batchMS []float64) []float64 { return scale(batchMS, 1e6/inner) } // ms per batch -> ns per operation
	m["par.barrier_ns"] = fromSamples(perOp(e.timed(sec, "par.barrier", func() {
		pool.Region(func(t *par.Team) {
			for i := 0; i < inner; i++ {
				t.Barrier()
			}
		})
	})), "ns")
	m["par.region_dispatch_ns"] = fromSamples(perOp(e.timed(sec, "par.region_dispatch", func() {
		for i := 0; i < inner; i++ {
			pool.Region(func(*par.Team) {})
		}
	})), "ns")

	// inner empty tasks in chains of eight, homed round-robin: dependencies to
	// count down and work to steal, nothing to compute.
	g := par.NewTaskGraph(pool)
	for i := 0; i < inner; i++ {
		id := g.AddTask(i%workers, func() {})
		if i%8 != 0 {
			g.AddDep(id-1, id)
		}
	}
	if err := g.Freeze(); err != nil {
		panic(err) // a chain is acyclic: only a bug above can get here
	}
	m["par.taskgraph_ns_per_task"] = fromSamples(perOp(e.timed(sec, "par.taskgraph", g.Run)), "ns")
}

// distLayers times partitioning and halo construction in-process at the dist
// section's level, launches the three swrank variants the overlap launch is
// read against, and derives the dist metrics.
func (e *env) distLayers(lay handle, w workload, ds *distOut, m map[string]metric) error {
	sec := lay.child("layers.dist")
	defer sec.end()
	g, err := dist.DefaultMesh(w.DistLevel)
	if err != nil {
		return err
	}
	if g, err = mesh.ComputeReorder(g).Apply(g); err != nil {
		return err
	}
	var part *partition.Partition
	m["partition.sfc_ms"] = fromSamples(e.timed(sec, "partition.sfc", func() {
		if part, err = partition.SFC(g, distRanks); err != nil {
			e.fail(1, "partition.SFC: %v", err)
		}
	}), "ms")
	if part == nil {
		return fmt.Errorf("layers: no partition at level %d", w.DistLevel)
	}
	m["partition.imbalance"] = scalar(part.Imbalance(), "ratio")
	locals := make([]*partition.Local, distRanks)
	for r := range locals {
		locals[r] = partition.Extract(g, part, r, dist.HaloLayers)
	}
	var specs []*halo.ExchangeSpec
	m["halo.buildspecs_ms"] = fromSamples(e.timed(sec, "halo.buildspecs", func() { specs = halo.BuildSpecs(g, locals) }), "ms")
	if err := halo.Validate(specs); err != nil {
		return err
	}
	haloBytes := 0
	for _, sp := range specs {
		haloBytes += sp.HaloBytes()
	}
	m["halo.bytes"] = scalar(float64(haloBytes), "B")
	sp, lm := specs[0], locals[0].M
	cells, edges := make([]float64, lm.NCells), make([]float64, lm.NEdges)
	need := 0
	for _, peer := range sp.Peers {
		need = max(need, sp.SendLen(peer), sp.RecvLen(peer))
	}
	buf := make([]float64, need)
	packMS := e.timed(sec, "halo.pack_unpack", func() {
		for _, peer := range sp.Peers {
			sp.PackSend(peer, cells, edges, buf)
			sp.UnpackRecv(peer, buf[:sp.RecvLen(peer)], cells, edges)
		}
	})
	m["halo.pack_unpack_us"] = fromSamples(scale(packMS, 1e3), "us")

	// One launch per variant, in seeded order.
	variants := [distVariants]struct {
		name string
		args []string
	}{
		{"dist.blocking_step_ms", launchArgs(w.DistLevel, ds.steps, "-overlap=false")},
		{"dist.taskplan_step_ms", launchArgs(w.DistLevel, ds.steps, "-overlap", "-taskplan")},
		{"dist.serial_step_ms", []string{"-serial", "-workers", "1", "-reorder", "-case", "tc5",
			"-level", fmt.Sprint(w.DistLevel), "-steps", fmt.Sprint(ds.steps)}},
	}
	for _, i := range e.sched.variantOrder {
		v := variants[i]
		e.did(1)
		lo, err := e.swrank(sec, v.name[:len(v.name)-len("_step_ms")], v.args...)
		if err != nil {
			return fmt.Errorf("layers: %s: %w", v.name, err)
		}
		if lo.hash != ds.serial.hash {
			e.fail(1, "%s: hash %s, the reference has %s", v.name, lo.hash, ds.serial.hash)
		}
		m[v.name] = scalar(lo.PerStep*1e3, "ms")
	}
	var waitFrac, eff []float64
	for _, lo := range ds.launches {
		waitFrac = append(waitFrac, lo.WaitS/(float64(ds.steps)*lo.PerStep))
		eff = append(eff, lo.Eff)
	}
	m["dist.wait_frac"] = fromSamples(waitFrac, "ratio")
	m["dist.overlap_eff"] = fromSamples(eff, "ratio")
	m["dist.bytes_per_step"] = scalar(float64(ds.launches[0].Bytes)/float64(ds.steps), "B")
	m["dist.speedup_p2"] = scalar(m["dist.serial_step_ms"].Value/median(ds.stepMS), "x")
	return nil
}

func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

// serveLayers derives the serve metrics from the burst's client-side spans
// and the server's own /metrics deltas.
func serveLayers(sr *serveOut, m map[string]metric) {
	pick := func(f func(jobTimes) float64) []float64 {
		out := make([]float64, len(sr.jobs))
		for i, j := range sr.jobs {
			out[i] = f(j)
		}
		return out
	}
	m["serve.submit_ms_p50"] = fromSamples(pick(func(j jobTimes) float64 { return ms(j.submit) }), "ms")
	m["serve.queue_wait_ms_p50"] = fromSamples(pick(func(j jobTimes) float64 { return ms(j.queue) }), "ms")
	m["serve.build_ms_p50"] = fromSamples(pick(func(j jobTimes) float64 { return ms(j.build) }), "ms")
	m["serve.run_ms_p50"] = fromSamples(pick(func(j jobTimes) float64 { return ms(j.run) }), "ms")
	m["serve.deliver_ms_p50"] = fromSamples(pick(func(j jobTimes) float64 { return ms(j.deliver) }), "ms")
	m["serve.ckpt_download_mb_s"] = fromSamples(pick(func(j jobTimes) float64 {
		return float64(j.ckptBytes) / 1e6 / j.download.Seconds()
	}), "MB/s")
	m["serve.events_per_job"] = fromSamples(pick(func(j jobTimes) float64 { return float64(j.events) }), "count")

	delta := func(name string) float64 { return sr.metrics[name] }
	m["serve.model_build_ms_mean"] = scalar(delta("serve_model_build_seconds_sum")/delta("serve_model_build_seconds_count")*1e3, "ms")
	m["serve.ckpt_ms_mean"] = scalar(delta("serve_checkpoint_seconds_sum")/delta("serve_checkpoint_seconds_count")*1e3, "ms")
	m["serve.steps_per_s"] = scalar(delta("serve_steps_total")/sr.window.Seconds(), "1/s")
	m["serve.rejects"] = scalar(delta("serve_admission_rejects_total"), "count")
	m["serve.rss_mb"] = scalar(sr.rssMB, "MB")
}
