// Package driver owns the analysis lifecycle. It compiles source text
// through the whole front-end pipeline — parse → sema → unroll → ssa →
// pdg → (optional) abstract interpretation — into an immutable Program
// artifact that engines, checkers, benches, and tools share, and it
// provides the parallel orchestration helper every engine runs on.
//
// The paper runs all of its analyses "with fifteen threads" under a hard
// time/memory budget (§5); the driver is where that discipline lives:
// compilation and checking take a context.Context and stop cooperatively
// when it is cancelled, and ParallelCheck fans work out over a worker
// pool with index-stable results so parallel runs are byte-identical to
// sequential ones.
package driver

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"fusion/internal/absint"
	"fusion/internal/checker"
	"fusion/internal/failure"
	"fusion/internal/faultinject"
	"fusion/internal/lang"
	"fusion/internal/pdg"
	"fusion/internal/sema"
	"fusion/internal/sparse"
	"fusion/internal/ssa"
	"fusion/internal/telemetry"
	"fusion/internal/unroll"
)

// AbsintMode selects the abstract-interpretation tier configuration of a
// compiled program: the full interval×stride+zone product, the same
// without the congruence (stride) domain (the `-absint=nostride`
// ablation), intervals alone (`-absint=intervals`), no tier at all, or
// the full product with the absint-guided pre-simplification of local
// conditions disabled (`-absint=nosimplify` — an engine ablation; the
// analysis itself is the full product).
type AbsintMode int

// Absint tier modes. The zero value is the full tier, matching the
// default of the command-line `-absint=on`.
const (
	AbsintOn         AbsintMode = iota // intervals × stride + zone relational domain
	AbsintIntervals                    // zone and stride disabled
	AbsintOff                          // no abstract tier
	AbsintNoStride                     // stride disabled, zone kept
	AbsintNoSimplify                   // full product, pre-simplification disabled
)

func (m AbsintMode) String() string {
	switch m {
	case AbsintIntervals:
		return "intervals"
	case AbsintNoStride:
		return "nostride"
	case AbsintNoSimplify:
		return "nosimplify"
	case AbsintOff:
		return "off"
	default:
		return "on"
	}
}

// ParseAbsintMode parses the command-line form used by the `-absint`
// flags: on, nostride, nosimplify, intervals, or off.
func ParseAbsintMode(s string) (AbsintMode, error) {
	switch s {
	case "on":
		return AbsintOn, nil
	case "nostride":
		return AbsintNoStride, nil
	case "nosimplify":
		return AbsintNoSimplify, nil
	case "intervals":
		return AbsintIntervals, nil
	case "off":
		return AbsintOff, nil
	}
	return AbsintOn, fmt.Errorf("driver: -absint must be on, nostride, nosimplify, intervals, or off, got %q", s)
}

// Source is one program to compile.
type Source struct {
	// Name labels errors and reports (a file path or subject name).
	Name string
	// Text is the program text, without the prelude.
	Text string
}

// Options configure compilation.
type Options struct {
	// Prelude prepends the standard extern declarations (checker.Prelude)
	// before parsing.
	Prelude bool
	// Unroll configures normalization (loop unrolling, recursion
	// elimination).
	Unroll unroll.Options
	// Absint selects the abstract-interpretation tier mode backing
	// Program.Absint, Program.Oracle, and Program.DOT annotations.
	Absint AbsintMode
	// Telemetry, when non-nil, receives per-stage compile spans
	// (parse/sema/unroll/ssa/pdg and the lazy absint build). Nil — the
	// default — costs one pointer check per stage.
	Telemetry *telemetry.Recorder
	// TelemetryTrack is the trace track compile spans land on: 0 (the
	// pipeline track) for a single compile, the worker slot + 1 when a
	// pool compiles many subjects.
	TelemetryTrack int
}

// SemaErrors wraps every semantic error of a compilation so callers that
// want the full list (e.g. the CLI) can unwrap it; Error renders the
// first one with a count.
type SemaErrors struct {
	Name string
	Errs []error
}

func (e *SemaErrors) Error() string {
	if len(e.Errs) == 1 {
		return fmt.Sprintf("driver: %s: %v", e.Name, e.Errs[0])
	}
	return fmt.Sprintf("driver: %s: %v (and %d more semantic errors)",
		e.Name, e.Errs[0], len(e.Errs)-1)
}

// Program is the immutable compiled artifact: every representation the
// analysis stack consumes, built exactly once. The abstract
// interpretation is computed lazily on first use and cached; everything
// else is safe for concurrent readers as-is.
type Program struct {
	Name string
	// AST is the parsed and semantically checked program (prelude
	// included when Options.Prelude was set).
	AST *lang.Program
	// SSA is the normalized SSA form.
	SSA *ssa.Program
	// Graph is the program dependence graph all engines analyze.
	Graph *pdg.Graph
	// Stats summarizes the graph.
	Stats pdg.Stats

	opts    Options
	absOnce sync.Once
	abs     *absint.Analysis
	absFail *failure.UnitFailure
}

// Compile runs the front-end pipeline once and returns the shared
// Program artifact. It checks ctx between stages, so a cancelled compile
// returns promptly with the context's error.
//
// Every stage runs under recover: a panic anywhere in the front end is
// contained and returned as a *failure.UnitFailure error naming the
// stage that crashed, so one malformed source degrades one unit and
// never the batch.
func Compile(ctx context.Context, src Source, opts Options) (p *Program, err error) {
	stage := "parse"
	defer func() {
		if v := recover(); v != nil {
			p, err = nil, failure.FromPanicAt(src.Name, stage, v, "driver.Compile")
		}
	}()
	// Per-stage telemetry spans: one pointer check per boundary when the
	// recorder is off, a clock read and a span append when it is on. The
	// stage variable above stays the containment label; the span names
	// split unroll from ssa for cost attribution.
	rec, track := opts.Telemetry, opts.TelemetryTrack
	var tStart, tStage time.Time
	if rec != nil {
		tStart = time.Now()
		tStage = tStart
	}
	mark := func(name string) {
		if rec == nil {
			return
		}
		now := time.Now()
		rec.StageSpan(track, "compile", name, tStage, now)
		tStage = now
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("driver: %s: %w", src.Name, err)
	}
	text := src.Text
	if opts.Prelude {
		text = checker.Prelude + text
	}
	faultinject.Fire("panic.parse", src.Name)
	prog, err := lang.Parse(text)
	if err != nil {
		return nil, fmt.Errorf("driver: %s: %w", src.Name, err)
	}
	mark("parse")
	stage = "sema"
	faultinject.Fire("panic.sema", src.Name)
	if errs := sema.Check(prog); len(errs) > 0 {
		return nil, &SemaErrors{Name: src.Name, Errs: errs}
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("driver: %s: %w", src.Name, err)
	}
	mark("sema")
	stage = "ssa"
	faultinject.Fire("panic.ssa", src.Name)
	norm := unroll.Normalize(prog, opts.Unroll)
	mark("unroll")
	sp, err := ssa.Build(norm)
	if err != nil {
		return nil, fmt.Errorf("driver: %s: %w", src.Name, err)
	}
	mark("ssa")
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("driver: %s: %w", src.Name, err)
	}
	stage = "pdg"
	faultinject.Fire("panic.pdg", src.Name)
	g := pdg.Build(sp)
	prg := &Program{
		Name: src.Name, AST: prog, SSA: sp, Graph: g,
		Stats: pdg.ComputeStats(g), opts: opts,
	}
	mark("pdg")
	if rec != nil {
		// Enclosing span: the whole compile, parenting the stage spans
		// above by time containment on the same track.
		rec.StageSpan(track, "compile", "compile "+src.Name, tStart, time.Now())
	}
	return prg, nil
}

// CompileAll compiles every source on a worker pool, preserving input
// order. The first failing source (in input order) decides the returned
// error; a cancelled ctx stops the remaining compilations.
func CompileAll(ctx context.Context, srcs []Source, opts Options, workers int) ([]*Program, error) {
	type result struct {
		prog *Program
		err  error
	}
	rs, fails := ParallelCheck(ctx, len(srcs), workers, func(i int) result {
		p, err := Compile(ctx, srcs[i], opts)
		return result{p, err}
	})
	out := make([]*Program, len(rs))
	for i, r := range rs {
		if f := fails[i]; f != nil {
			// Compile contains its own panics, so this only fires for a
			// crash outside it; name the source instead of the slot.
			f.Unit, f.Stage = srcs[i].Name, "compile"
			return nil, f
		}
		if r.err != nil {
			return nil, r.err
		}
		out[i] = r.prog
	}
	return out, nil
}

// Absint returns the program's abstract-interpretation analysis,
// building and caching it on first use. Nil when the program was
// compiled with AbsintOff. The returned analysis is read-only after
// construction and safe for concurrent use.
//
// A crash inside the analysis is contained: Absint then returns nil —
// callers already treat that as "tier off", which is sound — and
// AbsintFailure reports what happened. The failure is recorded inside
// the sync.Once (a panicking Do still counts as done), so the analysis
// is never retried.
func (p *Program) Absint() *absint.Analysis {
	if p.opts.Absint == AbsintOff {
		return nil
	}
	p.absOnce.Do(func() {
		defer func() {
			if v := recover(); v != nil {
				p.abs = nil
				p.absFail = failure.FromPanicAt(p.Name, "absint", v, "driver.(*Program).Absint")
			}
		}()
		if rec := p.opts.Telemetry; rec != nil {
			t0 := time.Now()
			// Registered after the recover defer, so the span is recorded
			// (first, by LIFO order) even when the build panics.
			defer func() {
				rec.StageSpan(p.opts.TelemetryTrack, "compile", "absint", t0, time.Now())
			}()
		}
		faultinject.Fire("panic.absint", p.Name)
		p.abs = Analyze(p.Graph, p.opts.Absint)
	})
	return p.abs
}

// Analyze builds the abstract interpretation a tier mode asks for: nil
// for AbsintOff, intervals alone for AbsintIntervals, the product without
// stride for AbsintNoStride, and the full interval×stride+zone product
// for AbsintOn and AbsintNoSimplify (whose ablation lives in the engine,
// not the analysis). It is the one place a mode becomes domains; unlike
// Program.Absint it neither caches nor contains a crash.
func Analyze(g *pdg.Graph, m AbsintMode) *absint.Analysis {
	if m == AbsintOff {
		return nil
	}
	return absint.AnalyzeWith(g, absint.Config{
		DisableZone:   m == AbsintIntervals,
		DisableStride: m == AbsintIntervals || m == AbsintNoStride,
	})
}

// AbsintFailure reports the contained crash of the lazy abstract
// interpretation, if any. It only returns non-nil after an Absint call
// has observed the crash.
func (p *Program) AbsintFailure() *failure.UnitFailure { return p.absFail }

// AbsintMode reports the tier mode the program was compiled with.
func (p *Program) AbsintMode() AbsintMode { return p.opts.Absint }

// Oracle returns the enumeration pruning oracle backed by the program's
// abstract invariants, or nil when the tier is off.
func (p *Program) Oracle() func(sparse.Candidate) bool {
	an := p.Absint()
	if an == nil {
		return nil
	}
	return func(c sparse.Candidate) bool {
		return an.PrunePath(c.Path, c.Constraints(0)...)
	}
}

// DOT renders the dependence graph in Graphviz form, annotated with the
// abstract invariants when the tier is enabled.
func (p *Program) DOT() string {
	if an := p.Absint(); an != nil {
		return pdg.ToDOTAnnotated(p.Graph, an.Annotation)
	}
	return pdg.ToDOT(p.Graph)
}

// Prelude reports whether the program was compiled with the standard
// prelude.
func (p *Program) Prelude() bool { return p.opts.Prelude }

// Describe renders the compile summary line used by tools.
func (p *Program) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d functions, %d vertices, %d edges",
		p.Name, p.Stats.Functions, p.Stats.Vertices, p.Stats.Edges())
	return b.String()
}
