// Command fusionbench regenerates the paper's tables and figures on the
// synthetic subject suite. See EXPERIMENTS.md for the experiment index.
//
// Usage:
//
//	fusionbench [-experiment NAME|all] [-scale F] [-subjects a,b,c] [-budget D]
//	            [-workers N] [-timeout D] [-absint MODE] [-fail-fast]
//	            [-smt2dir DIR] [-metrics FILE] [-trace FILE] [-pprof-addr ADDR]
//
// Exit status: 0 when every experiment ran to completion, 1 on a harness
// error, 2 on bad usage or when any engine run contained a unit crash.
// Expected budget exhaustion (the "time out" / "memory out" rows of the
// tables — the QE/AR variants are supposed to hit them) is part of a
// normal run and does not affect the exit status.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"fusion/internal/bench"
	"fusion/internal/driver"
	"fusion/internal/failure"
	"fusion/internal/faultinject"
	"fusion/internal/progen"
	"fusion/internal/telemetry"
)

func main() {
	exp := flag.String("experiment", "all", "experiment to run: "+strings.Join(bench.ExperimentNames, ", ")+", or all")
	scale := flag.Float64("scale", 0.002, "scale factor applied to the paper's subject sizes")
	subjects := flag.String("subjects", "", "comma-separated subject names (default: per experiment)")
	budget := flag.Duration("budget", 5*time.Minute, "per-engine-run time budget (must be >= 0)")
	smt2dir := flag.String("smt2dir", "", "dump every SMT instance as SMT-LIB v2 files into this directory and exit")
	workers := flag.Int("workers", 0, "worker count for compilation, enumeration, and checking (0 = sequential; verdict and count columns are identical for any count, Pinpoint's Cond-Mem cells may differ)")
	timeout := flag.Duration("timeout", 0, "overall wall-clock budget for the whole invocation (0 = none; must be >= 0)")
	absintFlag := flag.String("absint", "on", "abstract-interpretation tier in the fused engine: on (intervals × stride + zone), nostride (congruence disabled), nosimplify (formula pre-simplification disabled), intervals (zone and stride disabled), or off")
	failFast := flag.Bool("fail-fast", false, "stop after the first experiment whose runs contained a unit crash (default: run all experiments, summarize at the end)")
	metrics := flag.String("metrics", "", "write a stable-ordered JSON metrics snapshot (counters, sched, wall_ns) to this file")
	trace := flag.String("trace", "", "write a Chrome trace-event JSON file (load in Perfetto or chrome://tracing) to this file")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof on this address (e.g. localhost:6060) for live profiling")
	flag.Parse()
	if err := faultinject.ArmFromEnv(); err != nil {
		fmt.Fprintln(os.Stderr, "fusionbench:", err)
		os.Exit(2)
	}
	absint, err := driver.ParseAbsintMode(*absintFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fusionbench:", err)
		os.Exit(2)
	}
	for name, d := range map[string]time.Duration{"-timeout": *timeout, "-budget": *budget} {
		if d < 0 {
			fmt.Fprintf(os.Stderr, "fusionbench: %s must be >= 0, got %v\n", name, d)
			os.Exit(2)
		}
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var unitFailures []*failure.UnitFailure
	opts := bench.Options{
		Scale:   *scale,
		Budget:  bench.Budget{Time: *budget, CondBytes: 2 << 30},
		Workers: *workers,
		Absint:  absint,
		OnCost: func(c bench.Cost) {
			unitFailures = append(unitFailures, c.Failures...)
		},
	}
	var rec *telemetry.Recorder
	if *metrics != "" || *trace != "" {
		rec = telemetry.New()
		opts.Telemetry = rec
	}
	if *pprofAddr != "" {
		if err := telemetry.EnablePprof(*pprofAddr); err != nil {
			fmt.Fprintln(os.Stderr, "fusionbench:", err)
			os.Exit(2)
		}
	}
	// Artifacts are written on every exit path past this point — an
	// impaired run's partial trace is exactly what one wants to look at.
	writeArtifacts := func() {
		if rec == nil {
			return
		}
		if *metrics != "" {
			if err := rec.WriteMetrics(*metrics); err != nil {
				fmt.Fprintln(os.Stderr, "fusionbench:", err)
			}
		}
		if *trace != "" {
			if err := rec.WriteTrace(*trace); err != nil {
				fmt.Fprintln(os.Stderr, "fusionbench:", err)
			}
		}
	}
	if *subjects != "" {
		for _, name := range strings.Split(*subjects, ",") {
			s, err := progen.SubjectByName(strings.TrimSpace(name))
			if err != nil {
				fmt.Fprintln(os.Stderr, "fusionbench:", err)
				os.Exit(2)
			}
			opts.Subjects = append(opts.Subjects, s)
		}
	}

	if *smt2dir != "" {
		if err := os.MkdirAll(*smt2dir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "fusionbench:", err)
			os.Exit(1)
		}
		n, err := bench.DumpSMT2(ctx, opts, *smt2dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fusionbench:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d SMT-LIB instances to %s\n", n, *smt2dir)
		return
	}

	names := bench.ExperimentNames
	if *exp != "all" {
		if bench.Experiments[*exp] == nil {
			fmt.Fprintf(os.Stderr, "fusionbench: unknown experiment %q\n", *exp)
			os.Exit(2)
		}
		names = []string{*exp}
	}
	for _, name := range names {
		start := time.Now()
		out, err := bench.Experiments[name](ctx, opts)
		if err != nil {
			writeArtifacts()
			fmt.Fprintf(os.Stderr, "fusionbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("=== %s (ran in %.1fs) ===\n%s\n", name, time.Since(start).Seconds(), out)
		if *failFast && len(unitFailures) > 0 {
			fmt.Fprintf(os.Stderr, "fusionbench: fail-fast: stopping after %s\n", name)
			break
		}
	}
	writeArtifacts()
	if len(unitFailures) > 0 {
		fmt.Fprintf(os.Stderr, "fusionbench: %d contained unit crash(es):\n", len(unitFailures))
		for _, f := range unitFailures {
			fmt.Fprintf(os.Stderr, "  %s [%s %s] %v\n", f.Unit, f.Stage, f.Digest(), f.Value)
		}
		os.Exit(2)
	}
}
