// Package bench is the experiment harness: it compiles synthetic subjects,
// runs the analysis engines over them, and regenerates every table and
// figure of the paper's evaluation (§5) in textual form. Each experiment
// has a driver function named after the table or figure it reproduces; see
// EXPERIMENTS.md for the mapping and DESIGN.md for the substitutions.
package bench

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"fusion/internal/driver"
	"fusion/internal/engines"
	"fusion/internal/failure"
	"fusion/internal/pdg"
	"fusion/internal/progen"
	"fusion/internal/sat"
	"fusion/internal/sparse"
	"fusion/internal/telemetry"
)

// Subject is a compiled benchmark subject ready for analysis.
type Subject struct {
	Info     progen.Subject
	Graph    *pdg.Graph
	GT       progen.GroundTruth
	Stats    pdg.Stats
	GenLines int
}

// Compile generates and compiles a subject at the given scale on the
// shared driver pipeline (progen sources carry their own extern
// declarations, so no prelude).
func Compile(ctx context.Context, info progen.Subject, scale float64) (*Subject, error) {
	return compile(ctx, info, scale, driver.Options{})
}

// compile is Compile with explicit driver options (telemetry).
func compile(ctx context.Context, info progen.Subject, scale float64, opts driver.Options) (*Subject, error) {
	src, gt, lines := info.Build(scale)
	p, err := driver.Compile(ctx, driver.Source{Name: info.Name, Text: src}, opts)
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	return &Subject{
		Info: info, Graph: p.Graph, GT: gt,
		Stats: p.Stats, GenLines: lines,
	}, nil
}

// CompileAll compiles a set of subjects on a worker pool, preserving
// input order.
func CompileAll(ctx context.Context, subs []progen.Subject, scale float64, workers int) ([]*Subject, error) {
	return compileAll(ctx, subs, scale, workers, nil)
}

// compileAll is CompileAll with an optional recorder: each compile's
// stage spans land on its worker's trace track.
func compileAll(ctx context.Context, subs []progen.Subject, scale float64, workers int, rec *telemetry.Recorder) ([]*Subject, error) {
	type result struct {
		sub *Subject
		err error
	}
	rs, fails := driver.ParallelCheckWorkers(ctx, len(subs), workers, func(i, w int) result {
		s, err := compile(ctx, subs[i], scale, driver.Options{Telemetry: rec, TelemetryTrack: w + 1})
		return result{s, err}
	})
	out := make([]*Subject, len(rs))
	for i, r := range rs {
		if f := fails[i]; f != nil {
			// Compile contains its own panics; this only fires for a crash
			// outside it. Name the subject instead of the slot.
			f.Unit = subs[i].Name
			return nil, f
		}
		if r.err != nil {
			return nil, r.err
		}
		out[i] = r.sub
	}
	return out, nil
}

// Cost summarizes one engine's run over one subject and spec.
type Cost struct {
	Engine   string
	Subject  string
	Checker  string
	Time     time.Duration
	CondMB   float64 // retained condition/summary memory
	HeapMB   float64 // process heap after the run
	Reports  int     // feasible verdicts
	TP, FP   int     // against ground truth (when it covers the checker)
	Unknown  int
	Failed   bool   // exceeded Budget
	FailNote string // why
	// AbsintDecided counts queries refuted by the abstract tiers before
	// any formula was built; AbsintStride counts the subset the congruence
	// (stride) product decided without the zone tier; AbsintZone counts
	// the subset that needed the zone relational tier; AbsintPruned counts
	// candidates the enumeration oracle discarded; SolverCalls counts
	// candidates that reached the bit-precise solver.
	AbsintDecided int
	AbsintStride  int
	AbsintZone    int
	AbsintPruned  int
	SolverCalls   int
	// Simplified totals the vertices the absint-guided pre-simplification
	// folded into local conditions across all checked candidates;
	// PrunedGuards is the subset that were branch conditions.
	Simplified   int
	PrunedGuards int
	// UnitFailures counts contained crashes (enumeration and checking);
	// Failures carries their details in report order.
	UnitFailures int
	Failures     []*failure.UnitFailure
}

// Budget bounds one engine run, mirroring the paper's 12-hour/100GB limit
// scaled down.
type Budget struct {
	Time time.Duration
	// CondBytes bounds retained condition memory.
	CondBytes int64
}

// DefaultBudget is generous enough for the honest engines and small enough
// to catch the blow-ups.
var DefaultBudget = Budget{Time: 10 * time.Minute, CondBytes: 2 << 30}

// Run executes one engine over one subject with one checker and scores the
// result against ground truth. The budget is enforced by cooperative
// cancellation: candidate enumeration and checking run under a context
// that expires at Budget.Time (both inside the timed region, so Cost.Time
// includes enumeration), and a timed-out run returns promptly with the
// partial Unknown verdicts still scored — no goroutine keeps checking
// after Run returns. Workers parallelizes enumeration and checking; the
// verdicts are deterministic regardless of the worker count.
func Run(ctx context.Context, sub *Subject, spec *sparse.Spec, eng engines.Engine, budget Budget) Cost {
	return RunWorkers(ctx, sub, spec, eng, budget, 1)
}

// RunWorkers is Run with a worker count for enumeration and checking.
func RunWorkers(ctx context.Context, sub *Subject, spec *sparse.Spec, eng engines.Engine, budget Budget, workers int) Cost {
	return runWorkers(ctx, sub, spec, eng, budget, workers, driver.AbsintOff)
}

// runWorkers is RunWorkers with the run's absint tier mode. A Fusion
// engine without an analysis of its own gets driver.Analyze(sub.Graph,
// mode) for the run (so AbsintOff means "the engine as configured").
func runWorkers(ctx context.Context, sub *Subject, spec *sparse.Spec, eng engines.Engine, budget Budget, workers int, mode driver.AbsintMode) Cost {
	if budget.Time == 0 {
		budget = DefaultBudget
	}
	cost := Cost{Engine: eng.Name(), Subject: sub.Info.Name, Checker: spec.Name}
	engines.SetParallel(eng, workers)

	start := time.Now()
	rctx, cancel := context.WithTimeout(ctx, budget.Time)
	defer cancel()

	senge := sparse.NewEngine(sub.Graph)
	senge.Workers = workers
	// An absint-enabled fusion engine also prunes during enumeration; the
	// tier build is part of the engine's timed work.
	if f, ok := eng.(*engines.Fusion); ok {
		if f.Opts.Absint == nil {
			f.Opts.Absint = driver.Analyze(sub.Graph, mode)
		}
		if an := f.Opts.Absint; an != nil {
			senge.Oracle = func(c sparse.Candidate) bool {
				return an.PrunePath(c.Path, c.Constraints(0)...)
			}
		}
	}
	cands := senge.RunContext(rctx, spec)
	cost.AbsintPruned = senge.Pruned
	cost.Failures = append(cost.Failures, senge.Failures...)

	verdicts := eng.Check(rctx, sub.Graph, cands)
	cost.Time = time.Since(start)
	cost.CondMB = mb(eng.ConditionBytes())
	if rctx.Err() != nil && ctx.Err() == nil {
		cost.Failed = true
		cost.FailNote = "time out"
	}
	// Compare retained memory, not whatever garbage the last run left
	// behind.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	cost.HeapMB = mb(int64(ms.HeapAlloc))
	if eng.ConditionBytes() > budget.CondBytes {
		cost.Failed = true
		cost.FailNote = "memory out"
	}

	reportedLines := map[int]bool{}
	for _, v := range verdicts {
		switch v.Status {
		case sat.Sat:
			cost.Reports++
			reportedLines[v.Cand.Sink.Pos.Line] = true
		case sat.Unknown:
			cost.Unknown++
		}
		if v.Failure != nil {
			cost.Failures = append(cost.Failures, v.Failure)
		}
		cost.Simplified += v.Simplified
		cost.PrunedGuards += v.PrunedGuards
		if v.DecidedByAbsint {
			cost.AbsintDecided++
			if v.DecidedByStride {
				cost.AbsintStride++
			}
			if v.DecidedByZone {
				cost.AbsintZone++
			}
		} else {
			cost.SolverCalls++
		}
	}
	cost.UnitFailures = len(cost.Failures)
	for _, b := range sub.GT.ByChecker(spec.Name) {
		if reportedLines[b.SinkLine] {
			if b.Feasible {
				cost.TP++
			} else {
				cost.FP++
			}
		}
	}
	return cost
}

func mb(n int64) float64 { return float64(n) / (1 << 20) }

// Table is a minimal text-table formatter.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// AddRow appends a row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	return b.String()
}

func fd(d time.Duration) string {
	return fmt.Sprintf("%.3fs", d.Seconds())
}

func fmb(v float64) string {
	return fmt.Sprintf("%.2fMB", v)
}

func speedup(base, ours float64) string {
	if ours <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.1fx", base/ours)
}
