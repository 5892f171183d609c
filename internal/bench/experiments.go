package bench

import (
	"context"
	"fmt"
	"os"
	"strings"
	"time"

	"fusion/internal/checker"
	"fusion/internal/cond"
	"fusion/internal/driver"
	"fusion/internal/engines"
	"fusion/internal/fusioncore"
	"fusion/internal/pdg"
	"fusion/internal/progen"
	"fusion/internal/sat"
	"fusion/internal/smt"
	"fusion/internal/solver"
	"fusion/internal/sparse"
	"fusion/internal/telemetry"
)

// Options configure an experiment run.
type Options struct {
	// Scale shrinks the paper's subject sizes; see DESIGN.md. The default
	// used by cmd/fusionbench is 0.002.
	Scale float64
	// Subjects restricts the run; nil means the experiment's default set.
	Subjects []progen.Subject
	// Budget bounds each engine run.
	Budget Budget
	// Workers is the worker count for subject compilation, candidate
	// enumeration, and engine checking (the paper runs its analyses with
	// fifteen threads); 0 or 1 means sequential. Output is deterministic
	// regardless of the worker count.
	Workers int
	// Absint is the abstract-interpretation tier mode of every fused
	// engine the experiments construct (the zero value is the full
	// tier, like `-absint=on`); the absint ablation overrides it per row.
	Absint driver.AbsintMode
	// OnCost observes every scored engine run, in completion order. The
	// command-line harness uses it to tally contained unit failures and
	// degraded verdicts for its exit status. Replayed journal records are
	// observed too, so exit-status accounting survives a resume.
	OnCost func(Cost)
	// Retries is the retry-ladder height for every engine the experiments
	// construct. It may not change verdicts when no fault fires (a clean
	// first attempt never re-runs), so it does not enter checkpoint keys.
	Retries int
	// Journal, when non-nil, checkpoints every scored engine run at two
	// granularities: each candidate's verdict as it settles (kind "unit")
	// and the whole run's summary when it completes. Completed records
	// are replayed instead of re-run, so a crash mid-subject resumes at
	// the first unchecked candidate. Experiment names the experiment
	// currently running, scoping the journal keys.
	Journal    *Journal
	Experiment string
	// Telemetry, when non-nil, records compile-stage spans, solve spans,
	// and counters for every run the experiment issues (the -metrics and
	// -trace artifacts).
	Telemetry *telemetry.Recorder
}

func (o Options) scale() float64 {
	if o.Scale <= 0 {
		return 0.002
	}
	return o.Scale
}

func (o Options) workers() int {
	if o.Workers < 1 {
		return 1
	}
	return o.Workers
}

func (o Options) fusion() *engines.Fusion {
	e := engines.NewFusion()
	e.Parallel = o.workers()
	e.Opts.DisableAbsintSimplify = o.Absint == driver.AbsintNoSimplify
	e.Cfg.Retries = o.Retries
	return e
}

func (o Options) pinpoint(v engines.Variant) *engines.Pinpoint {
	e := engines.NewPinpoint(v)
	e.Cfg.Retries = o.Retries
	return e
}

func (o Options) subjects(def []progen.Subject) []progen.Subject {
	if len(o.Subjects) > 0 {
		return o.Subjects
	}
	return def
}

// compileAll compiles the experiment's subject set once, on the options'
// worker pool. With telemetry enabled, each compile's stage spans land
// on its worker's trace track.
func (o Options) compileAll(ctx context.Context, infos []progen.Subject) ([]*Subject, error) {
	return compileAll(ctx, infos, o.scale(), o.workers(), o.Telemetry)
}

// run executes one engine run with the options' workers.
func (o Options) run(ctx context.Context, sub *Subject, spec *sparse.Spec, eng engines.Engine) Cost {
	return o.runBudget(ctx, sub, spec, eng, o.Budget)
}

// runBudget is run with an explicit budget override (some experiments
// tighten the per-variant budget below o.Budget). With a journal, a run
// a previous (crashed) process completed is replayed from its record —
// including its recorded times, so replayed table rows are byte-identical
// to the original's — and a freshly completed run is checkpointed before
// the next one starts. A run cut short by cancellation is never recorded:
// its partial Unknown verdicts must not masquerade as the real result on
// resume.
func (o Options) runBudget(ctx context.Context, sub *Subject, spec *sparse.Spec, eng engines.Engine, budget Budget) Cost {
	if o.Telemetry != nil {
		engines.SetTelemetry(eng, o.Telemetry)
	}
	var key, desc string
	if o.Journal != nil {
		// Key occurrence counters advance on replay and live runs alike,
		// keeping the key sequence identical between a fresh run and a
		// resumed one.
		key, desc = o.Journal.Key(o.runDesc(sub, spec, eng, budget))
		if c, ok := o.Journal.Lookup(key); ok {
			if o.OnCost != nil {
				o.OnCost(c)
			}
			return c
		}
	}
	c := runWorkers(ctx, sub, spec, eng, budget, o.workers(), o.Absint, o.Journal, key)
	if o.Journal != nil && ctx.Err() == nil {
		// Best-effort: a full disk must not kill the run it checkpoints.
		_ = o.Journal.Record(key, desc, c)
	}
	if o.OnCost != nil {
		o.OnCost(c)
	}
	return c
}

// Table2 reports the subject inventory: generated size and dependence
// graph statistics, the reproduction of the paper's Table 2.
func Table2(ctx context.Context, opts Options) (string, error) {
	t := &Table{
		Title:  fmt.Sprintf("Table 2: subjects (scale %.4g of the paper's sizes)", opts.scale()),
		Header: []string{"ID", "Program", "Lines", "#Functions", "#Vertices", "#Edges"},
	}
	subs, err := opts.compileAll(ctx, opts.subjects(progen.Subjects))
	if err != nil {
		return "", err
	}
	for _, sub := range subs {
		t.AddRow(
			fmt.Sprintf("%d", sub.Info.ID), sub.Info.Name,
			fmt.Sprintf("%d", sub.GenLines),
			fmt.Sprintf("%d", sub.Stats.Functions),
			fmt.Sprintf("%d", sub.Stats.Vertices),
			fmt.Sprintf("%d", sub.Stats.Edges()),
		)
	}
	return t.String(), nil
}

// Table3 compares Fusion to the conventional engine on null-exception
// checking across all subjects: time and retained condition memory, with
// speedup columns — the paper's Table 3.
func Table3(ctx context.Context, opts Options) (string, error) {
	t := &Table{
		Title: "Table 3: Fusion vs Pinpoint (null exceptions)",
		Header: []string{"ID", "Program", "Fusion-Mem", "Pinpoint-Mem", "Mem-Ratio",
			"Fusion-Time", "Pinpoint-Time", "Speedup"},
	}
	spec := checker.NullDeref()
	subs, err := opts.compileAll(ctx, opts.subjects(progen.Subjects))
	if err != nil {
		return "", err
	}
	for _, sub := range subs {
		fc := opts.run(ctx, sub, spec, opts.fusion())
		pc := opts.run(ctx, sub, spec, opts.pinpoint(engines.Plain))
		t.AddRow(
			fmt.Sprintf("%d", sub.Info.ID), sub.Info.Name,
			fmb(fc.CondMB), fmb(pc.CondMB),
			speedup(pc.CondMB, fc.CondMB),
			fd(fc.Time), fd(pc.Time),
			speedup(pc.Time.Seconds(), fc.Time.Seconds()),
		)
	}
	return t.String(), nil
}

// Fig10 compares Fusion to Pinpoint and its formula-simplification
// variants across subjects (time and memory series), and reports the QE
// and AR variants' fates on the smallest subjects — the paper's Figure 10
// plus the §5.1 discussion.
func Fig10(ctx context.Context, opts Options) (string, error) {
	var b strings.Builder
	spec := checker.NullDeref()
	t := &Table{
		Title:  "Figure 10: time/memory per engine",
		Header: []string{"ID", "Program", "Engine", "Time", "Cond-Mem", "Status"},
	}
	variantBudget := opts.Budget
	if variantBudget.Time == 0 {
		variantBudget = Budget{Time: 30 * time.Second, CondBytes: 512 << 20}
	}
	subs, err := opts.compileAll(ctx, opts.subjects(progen.Subjects))
	if err != nil {
		return "", err
	}
	for _, sub := range subs {
		runs := []engines.Engine{
			opts.fusion(),
			opts.pinpoint(engines.Plain),
			opts.pinpoint(engines.LFS),
			opts.pinpoint(engines.HFS),
		}
		for _, eng := range runs {
			c := opts.runBudget(ctx, sub, spec, eng, variantBudget)
			status := "ok"
			if c.Failed {
				status = c.FailNote
			}
			t.AddRow(fmt.Sprintf("%d", sub.Info.ID), sub.Info.Name, c.Engine,
				fd(c.Time), fmb(c.CondMB), status)
		}
	}
	b.WriteString(t.String())

	// QE and AR on the smallest subjects only (they fail beyond that).
	b.WriteString("\nQE and AR variants (small subjects; budgeted):\n")
	t2 := &Table{Header: []string{"Program", "Engine", "Time", "Cond-Mem", "Status"}}
	small := subs
	if len(small) > 3 {
		small = small[:3]
	}
	for _, sub := range small {
		for _, eng := range []engines.Engine{
			opts.pinpoint(engines.QE),
			opts.pinpoint(engines.AR),
		} {
			c := opts.runBudget(ctx, sub, spec, eng, variantBudget)
			status := "ok"
			if c.Failed {
				status = c.FailNote
			}
			t2.AddRow(sub.Info.Name, c.Engine, fd(c.Time), fmb(c.CondMB), status)
		}
	}
	b.WriteString(t2.String())
	return b.String(), nil
}

// Instance is one SMT query's cost under both solving designs, a point of
// the Figure 11 scatter plot.
type Instance struct {
	Subject    string
	Fused      time.Duration
	Standalone time.Duration
	Sat        bool
	// Preprocessed reports the fused solve was decided by preprocessing.
	Preprocessed bool
	// Absint reports the fused solve was refuted by the abstract tiers.
	Absint bool
	// Stride reports the refutation needed the congruence (stride)
	// product but not the zone tier.
	Stride bool
	// Zone reports the refutation needed the zone relational tier.
	Zone bool
}

// Fig11Instances collects per-instance solving times: every candidate's
// feasibility is decided once by the fused graph-based solver and once by
// the standalone solver on the eagerly-translated condition.
func Fig11Instances(ctx context.Context, opts Options) ([]Instance, error) {
	var out []Instance
	spec := checker.NullDeref()
	subs, err := opts.compileAll(ctx, opts.subjects(progen.Subjects))
	if err != nil {
		return nil, err
	}
	for _, sub := range subs {
		senge := sparse.NewEngine(sub.Graph)
		senge.Workers = opts.workers()
		cands := senge.RunContext(ctx, spec)
		an := driver.Analyze(sub.Graph, opts.Absint)
		for _, c := range cands {
			paths := []pdg.Path{c.Path}

			fb := smt.NewBuilder()
			t0 := time.Now()
			fr := fusioncore.Solve(ctx, fb, sub.Graph, paths, fusioncore.Options{
				Absint: an, DisableAbsintSimplify: opts.Absint == driver.AbsintNoSimplify,
			})
			fused := time.Since(t0)

			eb := smt.NewBuilder()
			t1 := time.Now()
			sl := pdg.ComputeSlice(sub.Graph, paths)
			tr := cond.Translate(eb, sl)
			sr := solver.Solve(eb, tr.Phi, solver.Options{Ctx: ctx, Timeout: 10 * time.Second})
			standalone := time.Since(t1)

			if fr.Status == sat.Unknown || sr.Status == sat.Unknown {
				continue
			}
			out = append(out, Instance{
				Subject: sub.Info.Name, Fused: fused, Standalone: standalone,
				Sat: fr.Status == sat.Sat, Preprocessed: fr.Preprocessed,
				Absint: fr.DecidedByAbsint, Stride: fr.DecidedByStride,
				Zone: fr.DecidedByZone,
			})
		}
	}
	return out, nil
}

// DumpSMT2 writes every null-checking SMT instance of the given subjects
// as an SMT-LIB v2 file (the eagerly translated condition), so the
// instances can be fed to external solvers for cross-validation.
func DumpSMT2(ctx context.Context, opts Options, dir string) (int, error) {
	spec := checker.NullDeref()
	n := 0
	subs, err := opts.compileAll(ctx, opts.subjects(progen.Subjects))
	if err != nil {
		return n, err
	}
	for _, sub := range subs {
		cands := sparse.NewEngine(sub.Graph).RunContext(ctx, spec)
		for i, c := range cands {
			b := smt.NewBuilder()
			sl := pdg.ComputeSlice(sub.Graph, []pdg.Path{c.Path})
			c.ApplyConstraint(sl, 0)
			tr := cond.Translate(b, sl)
			name := fmt.Sprintf("%s/%s_%03d.smt2", dir, sub.Info.Name, i)
			if err := os.WriteFile(name, []byte(smt.ToSMTLIB(tr.Phi)), 0o644); err != nil {
				return n, err
			}
			n++
		}
	}
	return n, nil
}

// Fig11 summarizes the per-instance comparison: sat/unsat shares, the
// fraction decided during preprocessing, and the speedup aggregates the
// paper reports (3.0x sat, 1.8x unsat, 2.5x overall).
func Fig11(ctx context.Context, opts Options) (string, error) {
	insts, err := Fig11Instances(ctx, opts)
	if err != nil {
		return "", err
	}
	if len(insts) == 0 {
		return "no instances", nil
	}
	var nSat, nPre, nAbs, nStride, nZone int
	var satF, satS, unsatF, unsatS float64
	for _, in := range insts {
		if in.Sat {
			nSat++
			satF += in.Fused.Seconds()
			satS += in.Standalone.Seconds()
		} else {
			unsatF += in.Fused.Seconds()
			unsatS += in.Standalone.Seconds()
		}
		if in.Preprocessed {
			nPre++
		}
		if in.Absint {
			nAbs++
		}
		if in.Stride {
			nStride++
		}
		if in.Zone {
			nZone++
		}
	}
	n := len(insts)
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 11: %d SMT instances\n", n)
	fmt.Fprintf(&b, "  sat: %d (%.0f%%), unsat: %d (%.0f%%)\n",
		nSat, 100*float64(nSat)/float64(n), n-nSat, 100*float64(n-nSat)/float64(n))
	fmt.Fprintf(&b, "  decided in preprocessing: %d (%.0f%%)\n",
		nPre, 100*float64(nPre)/float64(n))
	fmt.Fprintf(&b, "  absint decision rate: %d (%.0f%%)\n",
		nAbs, 100*float64(nAbs)/float64(n))
	fmt.Fprintf(&b, "  stride decision rate: %d (%.0f%%)\n",
		nStride, 100*float64(nStride)/float64(n))
	fmt.Fprintf(&b, "  zone decision rate: %d (%.0f%%)\n",
		nZone, 100*float64(nZone)/float64(n))
	if satF > 0 {
		fmt.Fprintf(&b, "  sat speedup (standalone/fused): %.1fx\n", satS/satF)
	}
	if unsatF > 0 {
		fmt.Fprintf(&b, "  unsat speedup (standalone/fused): %.1fx\n", unsatS/unsatF)
	}
	if satF+unsatF > 0 {
		fmt.Fprintf(&b, "  overall speedup: %.1fx\n", (satS+unsatS)/(satF+unsatF))
	}
	return b.String(), nil
}

// Table4 runs the two taint analyses over the industrial-sized subjects,
// comparing Fusion to the conventional engine — the paper's Table 4. The
// subjects are compiled once and shared across both specs.
func Table4(ctx context.Context, opts Options) (string, error) {
	t := &Table{
		Title: "Table 4: taint analyses on the industrial-sized subjects",
		Header: []string{"Issue", "Program", "Fusion-Mem", "Fusion-Time",
			"Pinpoint-Mem", "Pinpoint-Time", "Mem-Ratio", "Speedup"},
	}
	subs, err := opts.compileAll(ctx, opts.subjects(largeSubjects()))
	if err != nil {
		return "", err
	}
	for _, spec := range []*sparse.Spec{checker.PathTraversal(), checker.PrivateLeak()} {
		issue := "CWE-23"
		if spec.Name == "cwe-402" {
			issue = "CWE-402"
		}
		for _, sub := range subs {
			fc := opts.run(ctx, sub, spec, opts.fusion())
			pc := opts.run(ctx, sub, spec, opts.pinpoint(engines.Plain))
			t.AddRow(issue, sub.Info.Name,
				fmb(fc.CondMB), fd(fc.Time),
				fmb(pc.CondMB), fd(pc.Time),
				speedup(pc.CondMB, fc.CondMB),
				speedup(pc.Time.Seconds(), fc.Time.Seconds()))
		}
	}
	return t.String(), nil
}

// Table5 compares Fusion to the Infer-like compositional analyzer on the
// industrial-sized subjects: cost plus report quality against ground truth
// — the paper's Table 5.
func Table5(ctx context.Context, opts Options) (string, error) {
	t := &Table{
		Title:  "Table 5: Fusion vs Infer (null exceptions, industrial subjects)",
		Header: []string{"Program", "Engine", "Mem", "Time", "#Report", "#TP", "#FP"},
	}
	spec := checker.NullDeref()
	var fTP, fFP, iTP, iFP int
	subs, err := opts.compileAll(ctx, opts.subjects(largeSubjects()))
	if err != nil {
		return "", err
	}
	for _, sub := range subs {
		fc := opts.run(ctx, sub, spec, opts.fusion())
		ic := opts.run(ctx, sub, spec, engines.NewInfer())
		fTP += fc.TP
		fFP += fc.FP
		iTP += ic.TP
		iFP += ic.FP
		t.AddRow(sub.Info.Name, fc.Engine, fmb(fc.CondMB), fd(fc.Time),
			fmt.Sprintf("%d", fc.Reports), fmt.Sprintf("%d", fc.TP), fmt.Sprintf("%d", fc.FP))
		t.AddRow(sub.Info.Name, ic.Engine, fmb(ic.CondMB), fd(ic.Time),
			fmt.Sprintf("%d", ic.Reports), fmt.Sprintf("%d", ic.TP), fmt.Sprintf("%d", ic.FP))
	}
	s := t.String()
	s += fmt.Sprintf("\nFP rate: fusion %.1f%%, infer %.1f%%\n",
		rate(fFP, fTP+fFP), rate(iFP, iTP+iFP))
	return s, nil
}

func rate(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return 100 * float64(num) / float64(den)
}

// Fig1c measures what fraction of the conventional analysis's memory is
// spent on path conditions, on the industrial-sized subjects — the paper's
// Figure 1(c), which motivates the whole design.
func Fig1c(ctx context.Context, opts Options) (string, error) {
	t := &Table{
		Title:  "Figure 1(c): memory share of path conditions (conventional design)",
		Header: []string{"Program", "Cond-Mem", "Graph-Mem", "Cond-Share"},
	}
	spec := checker.NullDeref()
	subs, err := opts.compileAll(ctx, opts.subjects(largeSubjects()))
	if err != nil {
		return "", err
	}
	for _, sub := range subs {
		eng := opts.pinpoint(engines.Plain)
		c := opts.run(ctx, sub, spec, eng)
		// Estimate of the dependence graph's own memory: the other major
		// retained structure of the analysis.
		graphBytes := int64(sub.Stats.Vertices)*96 + int64(sub.Stats.Edges())*16
		condBytes := int64(c.CondMB * (1 << 20))
		share := 100 * float64(condBytes) / float64(condBytes+graphBytes)
		t.AddRow(sub.Info.Name, fmb(c.CondMB), fmb(mb(graphBytes)),
			fmt.Sprintf("%.0f%%", share))
	}
	return t.String(), nil
}

// CWE369 is an extension experiment beyond the paper's evaluation: the
// division-by-zero checker (value-constrained sinks) over the
// industrial-sized subjects, Fusion vs the conventional engine, scored
// against injected ground truth.
func CWE369(ctx context.Context, opts Options) (string, error) {
	t := &Table{
		Title:  "Extension: CWE-369 (division by zero) on the industrial subjects",
		Header: []string{"Program", "Engine", "Time", "Cond-Mem", "#Report", "#TP", "#FP"},
	}
	spec := checker.DivByZero()
	subs, err := opts.compileAll(ctx, opts.subjects(largeSubjects()))
	if err != nil {
		return "", err
	}
	for _, sub := range subs {
		for _, eng := range []engines.Engine{opts.fusion(), opts.pinpoint(engines.Plain)} {
			c := opts.run(ctx, sub, spec, eng)
			t.AddRow(sub.Info.Name, c.Engine, fd(c.Time), fmb(c.CondMB),
				fmt.Sprintf("%d", c.Reports), fmt.Sprintf("%d", c.TP), fmt.Sprintf("%d", c.FP))
		}
	}
	return t.String(), nil
}

// AblationAbsint measures the abstract-interpretation tiers' contribution
// on the industrial-sized subjects: the value-constrained checkers
// (CWE-369, CWE-125) run with the tier off, with intervals alone, with
// the congruence (stride) domain disabled, with pre-simplification
// disabled, and with the full interval×stride+zone product. The tiers
// must never change the report set — they only refute queries the solver
// would also refute, and the pre-simplification only folds values the
// equation system already forces — while strictly reducing the number of
// bit-precise solver calls; the #Stride column counts refutations the
// congruence product decided without the zone tier, #Zone those the zone
// relational tier had to decide, and #Simplified the vertices the
// pre-simplification folded into local conditions before the quick-path
// search (zero in nosimplify mode, by construction).
func AblationAbsint(ctx context.Context, opts Options) (string, error) {
	costs, identical, err := ablationCosts(ctx, opts)
	if err != nil {
		return "", err
	}
	t := &Table{
		Title: "Ablation: abstract-interpretation tiers (absint)",
		Header: []string{"Program", "Checker", "Absint", "Time", "#Report",
			"#Decided", "#Stride", "#Zone", "#Pruned", "#Simplified", "#SolverCalls"},
	}
	for _, c := range costs {
		t.AddRow(c.Subject, c.Checker, c.Mode, fd(c.Time),
			fmt.Sprintf("%d", c.Reports),
			fmt.Sprintf("%d", c.AbsintDecided),
			fmt.Sprintf("%d", c.AbsintStride),
			fmt.Sprintf("%d", c.AbsintZone),
			fmt.Sprintf("%d", c.AbsintPruned),
			fmt.Sprintf("%d", c.Simplified),
			fmt.Sprintf("%d", c.SolverCalls))
	}
	s := t.String()
	if identical {
		s += "\nreport sets identical across off/intervals/nostride/nosimplify/on\n"
	} else {
		s += "\nWARNING: report sets differ across absint modes\n"
	}
	return s, nil
}

// AblationCost is one engine run of the absint ablation, tagged with its
// tier mode ("off", "intervals", "nostride", "nosimplify", "on").
type AblationCost struct {
	Mode string
	Cost
}

// ablationCosts runs the five-mode ablation and reports whether every
// mode produced the identical report count per (subject, checker).
func ablationCosts(ctx context.Context, opts Options) ([]AblationCost, bool, error) {
	var out []AblationCost
	identical := true
	subs, err := opts.compileAll(ctx, opts.subjects(largeSubjects()))
	if err != nil {
		return nil, false, err
	}
	for _, sub := range subs {
		for _, spec := range []*sparse.Spec{checker.DivByZero(), checker.IndexOOB()} {
			// One mode per row: the ablation overrides Options.Absint.
			var reports []int
			for _, mode := range []driver.AbsintMode{driver.AbsintOff, driver.AbsintIntervals,
				driver.AbsintNoStride, driver.AbsintNoSimplify, driver.AbsintOn} {
				o := opts
				o.Absint = mode
				c := o.run(ctx, sub, spec, o.fusion())
				reports = append(reports, c.Reports)
				out = append(out, AblationCost{Mode: mode.String(), Cost: c})
			}
			for _, r := range reports[1:] {
				if r != reports[0] {
					identical = false
				}
			}
		}
	}
	return out, identical, nil
}

// largeSubjects returns the four industrial-sized subjects (ffmpeg, v8,
// mysql, wine).
func largeSubjects() []progen.Subject {
	var out []progen.Subject
	for _, s := range progen.Subjects {
		if s.Large() {
			out = append(out, s)
		}
	}
	return out
}
