// Command swmodel runs the MPAS shallow-water model: pick a Williamson test
// case, a mesh resolution and an execution design, and integrate forward
// while reporting conservation diagnostics.
//
// Usage:
//
//	swmodel -level 5 -tc 5 -days 1 -mode pattern -report 50
//	swmodel -trace trace.json -metrics metrics.prom   # observability artifacts
//	swmodel -info          # print the simulated platform (Table II)
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	mpas "repro"
	"repro/internal/sw"
	"repro/internal/telemetry"
	"repro/internal/testcases"
)

func main() {
	level := flag.Int("level", 4, "icosahedral subdivision level (cells = 10*4^n+2)")
	tc := flag.Int("tc", 5, "test case: 1 (advection), 2, 5, 6 (Williamson), 8 (Galewsky jet)")
	days := flag.Float64("days", 1, "total simulated days (from t=0, so a resumed run covers the remainder)")
	stepsFlag := flag.Int("steps", 0, "total RK-4 steps (overrides -days when positive)")
	mode := flag.String("mode", mpas.PatternDriven.String(), fmt.Sprint("execution design, one of ", mpas.Modes()))
	workers := flag.Int("workers", 0, "host worker count (0 = GOMAXPROCS)")
	devWorkers := flag.Int("dev-workers", 0, "device worker count (0 = GOMAXPROCS)")
	report := flag.Int("report", 100, "report invariants every N steps")
	highOrder := flag.Bool("high-order", false, "enable C1+D2 high-order thickness interpolation")
	precision := flag.String("precision", "float64", "step arithmetic: float64 (reference) or float32 (fast mode; host-only modes)")
	reorder := flag.Bool("reorder", false, "locality renumbering: run on the SFC-reordered mesh (checkpoints stay canonical)")
	info := flag.Bool("info", false, "print platform and pattern info and exit")
	profile := flag.Bool("profile", false, "profile real per-pattern wall time and print the report")
	history := flag.String("history", "", "write an invariant time series CSV to this file")
	traceOut := flag.String("trace", "", "write a Chrome trace_event JSON (chrome://tracing, Perfetto) to this file")
	metricsOut := flag.String("metrics", "", "write Prometheus text-format metrics to this file")
	checkpoint := flag.String("checkpoint", "", "write solver checkpoints to this file (every -checkpoint-every steps and at the end)")
	ckptEvery := flag.Int("checkpoint-every", 0, "checkpoint cadence in steps (0 = only at the end)")
	resume := flag.String("resume", "", "resume from a checkpoint file written by -checkpoint")
	flag.Parse()

	if *info {
		mpas.Table2().WriteText(os.Stdout)
		fmt.Println()
		mpas.Table1().WriteText(os.Stdout)
		return
	}

	md, err := mpas.ParseMode(*mode)
	if err != nil {
		log.Fatal(err)
	}

	model, err := mpas.New(mpas.Options{
		Level:              *level,
		TestCase:           mpas.TestCase(*tc),
		Mode:               md,
		Workers:            *workers,
		DeviceWorkers:      *devWorkers,
		AdjustableFraction: -1,
		HighOrderThickness: *highOrder,
		Precision:          *precision,
		Reorder:            *reorder,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer model.Close()

	var tracer *telemetry.Tracer
	var registry *telemetry.Registry
	if *traceOut != "" {
		tracer = telemetry.NewTracer()
	}
	if *metricsOut != "" {
		registry = telemetry.NewRegistry()
	}
	if tracer != nil || registry != nil {
		model.EnableTelemetry(tracer, registry)
	}

	var prof *sw.ProfilingRunner
	if *profile {
		prof = sw.NewProfilingRunner(model.Solver.Runner)
		model.Solver.Runner = prof
	}
	var hist sw.History

	if *resume != "" {
		if err := model.Solver.LoadCheckpoint(*resume); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("resumed from %s at step %d (t=%.2fh)\n",
			*resume, model.Solver.StepCount, model.Solver.Time/3600)
	}

	// -days/-steps give the TOTAL trajectory length from t=0; a resumed run
	// integrates only the remainder, so an interrupted run plus its resume
	// reproduce the uninterrupted trajectory exactly.
	total := int(*days * testcases.Day / model.Config.Dt)
	if *stepsFlag > 0 {
		total = *stepsFlag
	}
	steps := total - model.Solver.StepCount
	if steps < 0 {
		steps = 0
	}
	fmt.Printf("%s\n", model.Mesh)
	fmt.Printf("mode=%s precision=%s reorder=%v dt=%.1fs steps=%d (total %d)\n", md, *precision, *reorder, model.Config.Dt, steps, total)

	inv0 := model.Invariants()
	fmt.Printf("initial: mass=%.6e energy=%.6e enstrophy=%.6e\n",
		inv0.Mass, inv0.TotalEnergy, inv0.PotentialEnstrophy)

	start := time.Now()
	for done := 0; done < steps; {
		n := *report
		if done+n > steps {
			n = steps - done
		}
		switch {
		case *checkpoint != "" && *ckptEvery > 0:
			if *history != "" && hist.Len() == 0 {
				hist.Sample(model.Solver)
			}
			err := model.Solver.RunControlled(n, sw.RunControl{
				CheckpointEvery: *ckptEvery,
				Checkpoint:      func(s *sw.Solver) error { return s.SaveCheckpoint(*checkpoint) },
				ReportEvery:     *report,
				Report: func(s *sw.Solver) error {
					if *history != "" {
						hist.Sample(s)
					}
					return nil
				},
			})
			if err != nil {
				log.Fatal(err)
			}
		case *history != "":
			model.Solver.RunWithHistory(n, *report, &hist)
		default:
			model.Run(n)
		}
		done += n
		inv := model.Invariants()
		fmt.Printf("step %6d t=%7.2fh  dMass=%+.2e dE=%+.2e dZ=%+.2e  h=[%.1f,%.1f] maxU=%.2f\n",
			model.Solver.StepCount, model.Time()/3600,
			(inv.Mass-inv0.Mass)/inv0.Mass,
			(inv.TotalEnergy-inv0.TotalEnergy)/inv0.TotalEnergy,
			(inv.PotentialEnstrophy-inv0.PotentialEnstrophy)/inv0.PotentialEnstrophy,
			inv.MinH, inv.MaxH, inv.MaxSpeed)
	}
	if *checkpoint != "" {
		// Always leave a final checkpoint, whatever the cadence: the file
		// then holds exactly the finished trajectory, so two runs reaching
		// the same total step count produce byte-identical checkpoints.
		if err := model.Solver.SaveCheckpoint(*checkpoint); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote checkpoint %s (step %d)\n", *checkpoint, model.Solver.StepCount)
	}
	wall := time.Since(start)
	perStep := 0.0
	if steps > 0 {
		perStep = wall.Seconds() * 1000 / float64(steps)
	}
	fmt.Printf("wall time: %v (%.1f ms/step real", wall, perStep)
	if t := model.SimulatedPlatformTime(); t > 0 {
		fmt.Printf(", %.1f ms/step on simulated CPU+Phi node", t*1000/float64(steps))
	}
	fmt.Println(")")

	if prof != nil {
		fmt.Println("\nper-pattern profile (real wall time):")
		fmt.Printf("  %-4s %-28s %8s %10s %7s\n", "ID", "kernel", "calls", "total", "share")
		for _, e := range prof.Report() {
			fmt.Printf("  %-4s %-28s %8d %10v %6.1f%%\n", e.ID, e.Kernel, e.Calls, e.Total.Round(time.Microsecond), e.Share*100)
		}
	}
	if *history != "" {
		f, err := os.Create(*history)
		if err != nil {
			log.Fatal(err)
		}
		if err := hist.WriteCSV(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %d history samples to %s\n", hist.Len(), *history)
	}
	if tracer != nil {
		fmt.Println()
		tracer.Summary().WriteText(os.Stdout)
		writeArtifact(*traceOut, tracer.WriteChromeTrace)
		fmt.Printf("wrote %d spans to %s (open in chrome://tracing or ui.perfetto.dev)\n",
			tracer.NumSpans(), *traceOut)
	}
	if registry != nil {
		writeArtifact(*metricsOut, func(w io.Writer) error {
			if err := registry.WritePrometheus(w); err != nil {
				return err
			}
			if prof != nil {
				// The per-pattern profile timers live in the runner's own
				// registry under disjoint names (sw_pattern_*); append them.
				return prof.Registry().WritePrometheus(w)
			}
			return nil
		})
		fmt.Printf("wrote Prometheus metrics to %s\n", *metricsOut)
	}
}

// writeArtifact creates path and streams write into it.
func writeArtifact(path string, write func(w io.Writer) error) {
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := write(f); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
}
