// Command fusion analyzes a program in the analysis language with a chosen
// checker and engine, printing the verified bug reports.
//
// Usage:
//
//	fusion [-checker null-deref|cwe-23|cwe-402|cwe-369|cwe-125|all] [-engine NAME]
//	       [-absint on|nostride|nosimplify|intervals|off]
//	       [-paths] [-joint] [-dot]
//	       [-workers N] [-timeout D] [-no-prelude]
//	       [-fail-fast] [-budget-steps N] [-budget-deadline D]
//	       [-budget-heap N]
//	       [-metrics FILE] [-trace FILE] [-pprof-addr ADDR] file.fl
//
// Engines: fusion (default), fusion-unopt, pinpoint, pinpoint+qe,
// pinpoint+lfs, pinpoint+hfs, pinpoint+ar, infer.
//
// Exit status: 0 = analysis completed with no findings; 1 = analysis
// completed and reported findings; 2 = the run was impaired — a unit
// failed (contained crash), a candidate exhausted its budget and was left
// undecided, or the input could not be analyzed at all.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"fusion/internal/checker"
	"fusion/internal/driver"
	"fusion/internal/engines"
	"fusion/internal/failure"
	"fusion/internal/faultinject"
	"fusion/internal/fusioncore"
	"fusion/internal/sat"
	"fusion/internal/sparse"
	"fusion/internal/telemetry"
)

func main() {
	checkerName := flag.String("checker", "all", "checker to run: null-deref, cwe-23, cwe-402, cwe-369, cwe-125, or all")
	engineName := flag.String("engine", "fusion", "engine: fusion, fusion-unopt, pinpoint[+qe|+lfs|+hfs|+ar], infer")
	noPrelude := flag.Bool("no-prelude", false, "do not prepend the standard extern declarations")
	showPaths := flag.Bool("paths", false, "print the data-dependence path of each report")
	joint := flag.Bool("joint", false, "additionally check the joint feasibility of multi-argument sinks")
	dot := flag.Bool("dot", false, "print the program dependence graph in Graphviz DOT format and exit")
	absintMode := flag.String("absint", "on", "abstract-interpretation tier: on (intervals × stride + zone), nostride (congruence disabled), nosimplify (formula pre-simplification disabled), intervals (zone and stride disabled), or off (fusion engines and -dot annotations)")
	workers := flag.Int("workers", 1, "worker count for enumeration and checking (output is identical for any count)")
	timeout := flag.Duration("timeout", 0, "overall analysis budget; on expiry remaining candidates are reported as undecided (0 = none; must be >= 0)")
	failFast := flag.Bool("fail-fast", false, "stop at the first contained unit failure instead of completing the batch")
	budgetSteps := flag.Int64("budget-steps", 0, "per-candidate SAT decision budget; a candidate that exhausts it is reported undecided (0 = unbounded; must be >= 0)")
	budgetDeadline := flag.Duration("budget-deadline", 0, "per-candidate wall-clock budget; every solve phase stops within a bounded interval of it (0 = none; must be >= 0)")
	budgetHeap := flag.Int64("budget-heap", 0, "per-candidate formula-construction byte budget (0 = unbounded; must be >= 0)")
	metrics := flag.String("metrics", "", "write a stable-ordered JSON metrics snapshot (counters, sched, wall_ns) to this file")
	trace := flag.String("trace", "", "write a Chrome trace-event JSON file (load in Perfetto or chrome://tracing) to this file")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof on this address (e.g. localhost:6060) for live profiling")
	flag.Parse()
	if err := faultinject.ArmFromEnv(); err != nil {
		fmt.Fprintln(os.Stderr, "fusion:", err)
		os.Exit(2)
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: fusion [flags] file.fl")
		flag.Usage()
		os.Exit(2)
	}
	mode, err := driver.ParseAbsintMode(*absintMode)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fusion:", err)
		os.Exit(2)
	}
	cfg := config{
		path: flag.Arg(0), checker: *checkerName, engine: *engineName,
		prelude: !*noPrelude, showPaths: *showPaths, joint: *joint,
		dot: *dot, absint: mode,
		workers: *workers, timeout: *timeout,
		failFast: *failFast,
		budget: engines.Budget{
			Steps: *budgetSteps, Deadline: *budgetDeadline,
			MaxHeapDelta: *budgetHeap,
		},
		out: os.Stdout,
	}
	if *metrics != "" || *trace != "" {
		cfg.rec = telemetry.New()
	}
	if *pprofAddr != "" {
		if err := telemetry.EnablePprof(*pprofAddr); err != nil {
			fmt.Fprintln(os.Stderr, "fusion:", err)
			os.Exit(2)
		}
	}
	if *metrics != "" || *trace != "" || *pprofAddr != "" {
		// SIGUSR1 dumps heap and goroutine profiles whenever any
		// observability surface is requested.
		telemetry.DumpOnSignal("")
	}
	res, err := run(cfg)
	// The artifacts are written even for an impaired run: a crash's
	// partial trace is exactly what one wants to look at.
	writeTelemetry(cfg.rec, *metrics, *trace)
	if err != nil {
		var se *driver.SemaErrors
		if errors.As(err, &se) {
			for _, e := range se.Errs {
				fmt.Fprintln(os.Stderr, e)
			}
		}
		fmt.Fprintln(os.Stderr, "fusion:", err)
		os.Exit(2)
	}
	os.Exit(res.exitCode())
}

// writeTelemetry writes the -metrics and -trace artifacts; a write
// failure is reported but never changes the analysis exit status.
func writeTelemetry(rec *telemetry.Recorder, metrics, trace string) {
	if rec == nil {
		return
	}
	if metrics != "" {
		if err := rec.WriteMetrics(metrics); err != nil {
			fmt.Fprintln(os.Stderr, "fusion:", err)
		}
	}
	if trace != "" {
		if err := rec.WriteTrace(trace); err != nil {
			fmt.Fprintln(os.Stderr, "fusion:", err)
		}
	}
}

type config struct {
	path      string
	checker   string
	engine    string
	prelude   bool
	showPaths bool
	joint     bool
	dot       bool
	absint    driver.AbsintMode
	workers   int
	timeout   time.Duration
	failFast  bool
	budget    engines.Budget
	rec       *telemetry.Recorder
	out       interface{ Write([]byte) (int, error) }
}

// outcome is what a completed (even impaired) run reports.
type outcome struct {
	findings int
	degraded int
	failures []*failure.UnitFailure
}

// exitCode maps the run outcome to the documented exit status: impaired
// runs trump findings, findings trump a clean pass.
func (o outcome) exitCode() int {
	switch {
	case len(o.failures) > 0 || o.degraded > 0:
		return 2
	case o.findings > 0:
		return 1
	default:
		return 0
	}
}

func newEngine(name string) (engines.Engine, error) {
	switch name {
	case "fusion":
		return engines.NewFusion(), nil
	case "fusion-unopt":
		e := engines.NewFusion()
		e.Opts = fusioncore.Options{Unoptimized: true}
		return e, nil
	case "pinpoint":
		return engines.NewPinpoint(engines.Plain), nil
	case "pinpoint+qe":
		return engines.NewPinpoint(engines.QE), nil
	case "pinpoint+lfs":
		return engines.NewPinpoint(engines.LFS), nil
	case "pinpoint+hfs":
		return engines.NewPinpoint(engines.HFS), nil
	case "pinpoint+ar":
		return engines.NewPinpoint(engines.AR), nil
	case "infer":
		return engines.NewInfer(), nil
	default:
		return nil, fmt.Errorf("unknown engine %q", name)
	}
}

// checkNonNegative rejects a negative count or duration as a usage
// error: none of them has a meaning below zero, and treating one as
// "unbounded" would silently drop the bound the user asked for.
func checkNonNegative(cfg config) error {
	b := cfg.budget
	switch {
	case cfg.timeout < 0:
		return fmt.Errorf("-timeout must be >= 0, got %v", cfg.timeout)
	case b.Steps < 0:
		return fmt.Errorf("-budget-steps must be >= 0, got %d", b.Steps)
	case b.Deadline < 0:
		return fmt.Errorf("-budget-deadline must be >= 0, got %v", b.Deadline)
	case b.MaxHeapDelta < 0:
		return fmt.Errorf("-budget-heap must be >= 0, got %d", b.MaxHeapDelta)
	}
	return nil
}

func run(cfg config) (outcome, error) {
	var res outcome
	if err := checkNonNegative(cfg); err != nil {
		return res, err
	}
	ctx := context.Background()
	if cfg.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.timeout)
		defer cancel()
	}
	data, err := os.ReadFile(cfg.path)
	if err != nil {
		return res, err
	}
	prog, err := driver.Compile(ctx, driver.Source{Name: cfg.path, Text: string(data)},
		driver.Options{Prelude: cfg.prelude, Absint: cfg.absint, Telemetry: cfg.rec})
	if err != nil {
		return res, err
	}
	g := prog.Graph
	if cfg.dot {
		fmt.Fprint(cfg.out, prog.DOT())
		return res, nil
	}

	var specs []*sparse.Spec
	if cfg.checker == "all" {
		specs = checker.All()
	} else {
		spec, err := checker.ByName(cfg.checker)
		if err != nil {
			return res, err
		}
		specs = []*sparse.Spec{spec}
	}
	eng, err := newEngine(cfg.engine)
	if err != nil {
		return res, err
	}
	engines.SetParallel(eng, cfg.workers)
	engines.SetBudget(eng, cfg.budget)
	if cfg.rec != nil {
		engines.SetTelemetry(eng, cfg.rec)
	}
	// The abstract tier applies to the fused engine: it refutes queries
	// before any formula is built, and its invariants prune provably-safe
	// candidates during DFS enumeration. The analysis is computed once on
	// the compiled program and shared between pruning and refutation.
	useAbsint := false
	if f, ok := eng.(*engines.Fusion); ok && cfg.absint != driver.AbsintOff {
		f.Opts.Absint = prog.Absint()
		f.Opts.DisableAbsintSimplify = cfg.absint == driver.AbsintNoSimplify
		useAbsint = true
	}

	pruned := 0
	decided, byStride, byZone, simplified := 0, 0, 0, 0
specs:
	for _, spec := range specs {
		e := sparse.NewEngine(g)
		e.Workers = cfg.workers
		if useAbsint {
			e.Oracle = prog.Oracle()
		}
		cands := e.RunContext(ctx, spec)
		pruned += e.Pruned
		res.failures = append(res.failures, e.Failures...)
		verdicts := eng.Check(ctx, g, cands)
		engines.SortVerdicts(verdicts)
		for _, v := range verdicts {
			if v.DecidedByAbsint {
				decided++
			}
			if v.DecidedByStride {
				byStride++
			}
			if v.DecidedByZone {
				byZone++
			}
			simplified += v.Simplified
			if v.Failure != nil {
				res.failures = append(res.failures, v.Failure)
				continue
			}
			if v.Degraded {
				res.degraded++
			}
			switch v.Status {
			case sat.Sat:
				res.findings++
				fmt.Fprintln(cfg.out, checker.Describe(v.Cand))
				if cfg.showPaths {
					fmt.Fprintf(cfg.out, "    path: %s\n", v.Cand.Path)
				}
			case sat.Unknown:
				note := ""
				if v.Degraded {
					note = " (budget exhausted)"
				}
				fmt.Fprintf(cfg.out, "[%s] undecided within budget%s: %s\n", spec.Name, note, v.Cand.Path)
			}
		}
		if cfg.failFast && len(res.failures) > 0 {
			fmt.Fprintf(cfg.out, "fail-fast: stopping after %d unit failure(s)\n", len(res.failures))
			break specs
		}
		if cfg.joint {
			jc, ok := eng.(engines.JointChecker)
			if !ok {
				return res, fmt.Errorf("engine %s does not support joint checking", eng.Name())
			}
			for _, jv := range engines.CheckJoint(ctx, jc, g, cands) {
				if jv.Failure != nil {
					res.failures = append(res.failures, jv.Failure)
					continue
				}
				var verdict string
				switch jv.Status {
				case sat.Sat:
					verdict = "JOINT BUG: all arguments taintable together"
				case sat.Unsat:
					verdict = "jointly infeasible"
				default:
					verdict = "undecided within budget"
				}
				fmt.Fprintf(cfg.out, "[%s] sink %s.%s with %d tracked arguments: %s\n",
					spec.Name, jv.Group.Sink.Fn.Name, jv.Group.Sink.Callee,
					len(jv.Group.Flows), verdict)
			}
		}
	}
	if f := prog.AbsintFailure(); f != nil {
		res.failures = append(res.failures, f)
	}
	if useAbsint {
		fmt.Fprintf(cfg.out, "absint: refuted %d quer(ies) (%d by stride, %d by zone), pruned %d candidate(s), simplified %d vertex(es)\n", decided, byStride, byZone, pruned, simplified)
	}
	printFailures(cfg.out, res.failures)
	if res.degraded > 0 {
		fmt.Fprintf(cfg.out, "%d verdict(s) degraded after budget exhaustion\n", res.degraded)
	}
	fmt.Fprintf(cfg.out, "%d bug(s) reported by %s\n", res.findings, eng.Name())
	return res, nil
}

// printFailures renders the per-unit failure summary table: which unit
// crashed, at which pipeline stage, and a stable digest of the sanitized
// stack for cross-run correlation.
func printFailures(out interface{ Write([]byte) (int, error) }, fails []*failure.UnitFailure) {
	if len(fails) == 0 {
		return
	}
	uw, sw := len("unit"), len("stage")
	for _, f := range fails {
		if len(f.Unit) > uw {
			uw = len(f.Unit)
		}
		if len(f.Stage) > sw {
			sw = len(f.Stage)
		}
	}
	fmt.Fprintf(out, "%d unit failure(s):\n", len(fails))
	fmt.Fprintf(out, "  %-*s  %-*s  %-8s  %s\n", uw, "unit", sw, "stage", "digest", "error")
	for _, f := range fails {
		fmt.Fprintf(out, "  %-*s  %-*s  %-8s  %v\n", uw, f.Unit, sw, f.Stage, f.Digest(), f.Value)
	}
}
