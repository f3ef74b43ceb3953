package main

import (
	"errors"
	"fmt"

	"repro/internal/pattern"
)

// A run has three sections — solve (the library in-process), serve (the real
// swserver binary) and dist (real swrank processes) — because the driver
// contract wants every end-to-end metric from every run of every workload.
// The workload names the section that carries its claims and the mesh levels;
// the other two sections run as probes of fixed share, long enough for their
// own sample minimums (probeShare), so a regression in any front end shows on
// every workload's row.
type workload struct {
	Name string
	Why  string
	// Main names the section that gets all measuring time the probes leave.
	Main       string
	SolveLevel int
	DistLevel  int
	// DistSteps is the step count of one swrank launch.
	DistSteps int
}

// probeShare is the part of the measuring time a section gets when it is not
// the workload's main one: at run_seconds 24 about 3 s of steps per run (250
// and more per mode), 7.5 s of jobs (the hundred that a 90th percentile with
// ten samples beyond it needs) and 3.5 s of level-5 launches (four).
var probeShare = map[string]float64{"solve": 0.125, "serve": 0.3125, "dist": 0.15}

const (
	// serveLevel is the mesh of every served job.
	serveLevel = 5
	// bigLevel is the mesh of the traced pass's Table III probe (l7.*).
	bigLevel = 7
)

var workloads = []workload{
	{
		Name: "solve_l5", Main: "solve", SolveLevel: 5, DistLevel: 5, DistSteps: 100,
		Why: "10242 cells stay cache-resident, so par synchronisation and kernel instruction count set the step time, not bandwidth",
	},
	{
		Name: "solve_l6", Main: "solve", SolveLevel: 6, DistLevel: 5, DistSteps: 100,
		Why: "40962 cells (the paper's smallest mesh), 50x the L2: arrays stream from memory, so sw kernels, mesh.CSR layout and reorder locality do the work",
	},
	{
		Name: "serve_burst_l5", Main: "serve", SolveLevel: 5, DistLevel: 5, DistSteps: 100,
		Why: "closed-loop burst of short jobs on the real swserver: per-job decode, compile, spool and events dominate the 20 steps",
	},
	{
		Name: "dist_l6_p2", Main: "dist", SolveLevel: 5, DistLevel: 6, DistSteps: 150,
		Why: "two swrank processes on two cores: dist links, halo pack/unpack, SFC partition and the overlap split do the distinguishing work",
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// share returns the part of the measuring time a section gets under w.
func (w workload) share(section string) float64 {
	if section != w.Main {
		return probeShare[section]
	}
	rest := 1.0
	for s, p := range probeShare {
		if s != w.Main {
			rest -= p
		}
	}
	return rest
}

// decl declares one metric exactly as BENCHMARK.json lists it.
type decl struct {
	Name   string
	Unit   string
	Better string
	Bound  float64 // end-to-end only
}

// endToEnd are the metrics measured with tracing off. Bound is the share of
// the parent's median a metric may worsen by before it counts as a
// regression.
var endToEnd = []decl{
	{"setup_s", "s", "lower", 0.10},
	{"plan_step_ms", "ms", "lower", 0.10},
	{"taskplan_step_ms", "ms", "lower", 0.10},
	{"fast32_step_ms", "ms", "lower", 0.10},
	{"mem_live_mb", "MB", "lower", 0.02},
	{"job_ms_p50", "ms", "lower", 0.10},
	{"job_ms_p90", "ms", "lower", 0.10},
	{"jobs_per_s", "1/s", "higher", 0.10},
	{"dist_step_ms", "ms", "lower", 0.10},
	{"solve_s", "s", "lower", 0.10},
}

// kernelNames are Algorithm 1's six kernels, in sw.Solver.Kernels order.
var kernelNames = []string{
	pattern.KernelComputeTend, pattern.KernelEnforceBoundaryEdge, pattern.KernelNextSubstepState,
	pattern.KernelSolveDiagnostics, pattern.KernelAccumulativeUpdate, pattern.KernelReconstruct,
}

// perLayer are the metrics of single layers, measured in the traced pass
// only. They carry no bound; lower is better unless an entry says otherwise.
var perLayer = func() []decl {
	d := []decl{
		{Name: "mesh.build_s", Unit: "s"},
		{Name: "mesh.reorder_s", Unit: "s"},
		{Name: "mesh.packcsr_s", Unit: "s"},
		{Name: "sw.newsolver_s", Unit: "s"},
		{Name: "mesh.decode_ms", Unit: "ms"},
		{Name: "sw.plan_compile_ms", Unit: "ms"},
		{Name: "sw.taskplan_compile_ms", Unit: "ms"},
		{Name: "sw.fast32_compile_ms", Unit: "ms"},
		{Name: "mesh.csr_mb", Unit: "MB"},
		{Name: "mesh.nbr_dist_mean", Unit: "cells"},
		{Name: "sw.serial_step_ms", Unit: "ms"},
		{Name: "sw.plan_speedup", Unit: "x", Better: "higher"},
	}
	for _, k := range kernelNames {
		d = append(d, decl{Name: "sw.kernel." + k + "_ms", Unit: "ms"})
	}
	d = append(d, []decl{
		{Name: "sw.plan_gb_s", Unit: "GB/s", Better: "higher"},
		{Name: "sw.plan_bw_frac", Unit: "ratio", Better: "higher"},
		{Name: "sw.plan_ops", Unit: "count"},
		{Name: "sw.plan_barriers", Unit: "count"},
		{Name: "sw.plan_elided", Unit: "count", Better: "higher"},
		{Name: "sw.step_allocs", Unit: "count"},
		{Name: "par.barrier_ns", Unit: "ns"},
		{Name: "par.region_dispatch_ns", Unit: "ns"},
		{Name: "par.taskgraph_ns_per_task", Unit: "ns"},
		{Name: "par.tasks_per_step", Unit: "count"},
		{Name: "par.edges_per_task", Unit: "ratio"},
		{Name: "par.steals_per_step", Unit: "count"},
		{Name: "par.idle_frac", Unit: "ratio"},
		{Name: "sw.ckpt_bytes", Unit: "B"},
		{Name: "sw.ckpt_write_ms", Unit: "ms"},
		{Name: "sw.ckpt_write_mb_s", Unit: "MB/s", Better: "higher"},
		{Name: "sw.ckpt_read_ms", Unit: "ms"},
		{Name: "sw.invariants_ms", Unit: "ms"},
		{Name: "serve.submit_ms_p50", Unit: "ms"},
		{Name: "serve.queue_wait_ms_p50", Unit: "ms"},
		{Name: "serve.build_ms_p50", Unit: "ms"},
		{Name: "serve.run_ms_p50", Unit: "ms"},
		{Name: "serve.deliver_ms_p50", Unit: "ms"},
		{Name: "serve.ckpt_download_mb_s", Unit: "MB/s", Better: "higher"},
		{Name: "serve.model_build_ms_mean", Unit: "ms"},
		{Name: "serve.ckpt_ms_mean", Unit: "ms"},
		{Name: "serve.steps_per_s", Unit: "1/s", Better: "higher"},
		{Name: "serve.events_per_job", Unit: "count"},
		{Name: "serve.rejects", Unit: "count"},
		{Name: "serve.rss_mb", Unit: "MB"},
		{Name: "dist.wait_frac", Unit: "ratio"},
		{Name: "dist.overlap_eff", Unit: "ratio", Better: "higher"},
		{Name: "dist.bytes_per_step", Unit: "B"},
		{Name: "dist.blocking_step_ms", Unit: "ms"},
		{Name: "dist.taskplan_step_ms", Unit: "ms"},
		{Name: "dist.serial_step_ms", Unit: "ms"},
		{Name: "dist.speedup_p2", Unit: "x", Better: "higher"},
		{Name: "partition.sfc_ms", Unit: "ms"},
		{Name: "partition.imbalance", Unit: "ratio"},
		{Name: "halo.buildspecs_ms", Unit: "ms"},
		{Name: "halo.bytes", Unit: "B"},
		{Name: "halo.pack_unpack_us", Unit: "us"},
		{Name: "hybrid.modeled_step_s", Unit: "s"},
		{Name: "hybrid.modeled_speedup", Unit: "x", Better: "higher"},
		{Name: "host.ncpu", Unit: "count", Better: "higher"},
		{Name: "host.llc_mb", Unit: "MB", Better: "higher"},
		{Name: "host.triad_gb_s", Unit: "GB/s", Better: "higher"},
		{Name: "host.gather_gb_s", Unit: "GB/s", Better: "higher"},
		{Name: "bench.trace_overhead_pct", Unit: "%"},
		{Name: "bench.mem_dilation", Unit: "ratio"},
		{Name: "l7.setup_s", Unit: "s"},
		{Name: "l7.plan_step_ms", Unit: "ms"},
		{Name: "l7.mem_live_mb", Unit: "MB"},
	}...)
	for i := range d {
		if d[i].Better == "" {
			d[i].Better = "lower"
		}
	}
	return d
}()

// errOversubscribed is returned instead of a number when a configuration
// would run more busy threads than the box has cores: such wall-clock figures
// measure the scheduler, not the model.
var errOversubscribed = errors.New("bench: oversubscribed: workers x ranks exceeds runtime.NumCPU()")

// guardCPUs refuses a configuration of ranks processes with workers threads
// each (plus nothing else busy) on a box with ncpu cores.
func guardCPUs(ncpu, workers, ranks int) error {
	if workers*ranks > ncpu {
		return fmt.Errorf("%w (%d x %d > %d)", errOversubscribed, workers, ranks, ncpu)
	}
	return nil
}
