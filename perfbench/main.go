// Command perfbench runs one iteration of a benchmark workload in a fresh
// process and prints its measurements as one JSON object on stdout.
//
// It drives the analysis the way cmd/fusion does, through public
// functions only: each industrial subject is generated with
// progen.Generate (the workload seed renames its functions), compiled
// with driver.Compile, and analysed with one engine per subject — the
// absint tier and its pruning oracle built once, then for each checker in
// turn sparse enumeration followed by Engine.Check. Enumeration and
// checking run with one worker. Every verdict is scored against the
// generator's ground truth.
//
// With -trace the iteration also attaches a telemetry recorder to the
// driver and the engine, times each front-end stage by calling it
// directly, records the benchmark's own calls into each layer as spans,
// and writes a Chrome trace (loadable in Perfetto) to -trace-file.
//
// perfbench/run.py loops this program for a fixed time and aggregates the
// iterations; see perfbench/README.md.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"fusion/internal/checker"
	"fusion/internal/driver"
	"fusion/internal/engines"
	"fusion/internal/lang"
	"fusion/internal/pdg"
	"fusion/internal/progen"
	"fusion/internal/sat"
	"fusion/internal/sema"
	"fusion/internal/sparse"
	"fusion/internal/ssa"
	"fusion/internal/telemetry"
	"fusion/internal/unroll"
)

// workload fixes the engine and checkers; the inputs are the same four
// subjects for every workload.
type workload struct {
	engine   string
	checkers []string
}

var workloads = map[string]workload{
	"null-fusion":   {"fusion", []string{"null-deref"}},
	"null-pinpoint": {"pinpoint", []string{"null-deref"}},
	"value-fusion":  {"fusion", []string{"cwe-369", "cwe-125"}},
}

// subjects are the four industrial subjects of the paper's Table 2,
// generated at scale.
var subjects = []string{"ffmpeg", "v8", "mysql", "wine"}

const scale = 0.01

// setupReps is how many times the subjects are compiled; setup_s is the
// median of the totals.
const setupReps = 3

// input is one generated subject: the source text the analysis sees and
// the ground truth the benchmark scores against.
type input struct {
	name string
	src  string
	gt   progen.GroundTruth
}

// generate builds every subject at its own generator seed, the one the
// repository's experiments use, and renames its functions after the
// workload seed (see rename); seed 0 keeps the generated text as is. Sink
// lines are shifted past the prelude the driver prepends.
func generate(seed int64) ([]input, error) {
	offset := strings.Count(checker.Prelude, "\n")
	var out []input
	for _, name := range subjects {
		s, err := progen.SubjectByName(name)
		if err != nil {
			return nil, err
		}
		src, gt := progen.Generate(s.Config(scale))
		if seed != 0 {
			src = rename(src, gt, fmt.Sprintf("s%x_", uint64(seed)))
		}
		for i := range gt.Bugs {
			gt.Bugs[i].SinkLine += offset
		}
		out = append(out, input{name: name, src: src, gt: gt})
	}
	return out, nil
}

var ident = regexp.MustCompile(`[A-Za-z_][A-Za-z0-9_]*`)

// rename puts prefix in front of the name of every function src defines,
// at its declaration and every call, and in gt's records (updated in
// place). The same prefix on every name keeps their sorted order, and no
// line moves, so the analysis does the same work on a different text.
func rename(src string, gt progen.GroundTruth, prefix string) string {
	defined := map[string]bool{}
	for _, line := range strings.Split(src, "\n") {
		if header, ok := strings.CutPrefix(line, "fun "); ok {
			name, _, _ := strings.Cut(header, "(")
			defined[name] = true
		}
	}
	for i, b := range gt.Bugs {
		if defined[b.Func] {
			gt.Bugs[i].Func = prefix + b.Func
		}
	}
	return ident.ReplaceAllStringFunc(src, func(tok string) string {
		if defined[tok] {
			return prefix + tok
		}
		return tok
	})
}

// result is one iteration's measurements. Times are seconds, sizes MiB.
type result struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Traced   bool   `json:"traced"`
	// SetupS is the median over the set-up repetitions of the CPU time
	// driver.Compile takes for the four subjects, SetupWallS the median
	// wall time.
	SetupS     float64 `json:"setup_s"`
	SetupWallS float64 `json:"setup_wall_s"`
	// AnalysisCPUS and AnalysisWallS are the CPU and wall time from the
	// absint build to the last verdict, summed over subjects.
	AnalysisCPUS  float64 `json:"analysis_cpu_s"`
	AnalysisWallS float64 `json:"analysis_wall_s"`
	Candidates    int     `json:"candidates"`
	// LatenciesMs is every candidate's Verdict.SolveTime in ms, in the
	// order the candidates were checked.
	LatenciesMs []float64 `json:"latencies_ms"`
	PeakRSSMB   float64   `json:"peak_rss_mb"`
	CondMB      float64   `json:"cond_mb"`
	// VerdictErrors counts ground-truth sink lines whose reported status
	// is wrong: a feasible bug not reported or an infeasible one reported.
	VerdictErrors int `json:"verdict_errors"`
	// Failed counts Unknown, crashed and degraded verdicts plus contained
	// enumeration and absint failures.
	Failed int `json:"failed"`
	// Sinks lists every reported sink as "subject:checker:line", sorted.
	Sinks []string `json:"sinks"`
	// Layers holds the per-layer metrics of a traced iteration.
	Layers    map[string]float64 `json:"layers,omitempty"`
	GoVersion string             `json:"go_version"`
	MaxProcs  int                `json:"gomaxprocs"`
	NumCPU    int                `json:"nproc"`
}

func main() {
	name := flag.String("workload", "", "workload: null-fusion, null-pinpoint or value-fusion")
	seed := flag.Int64("seed", 0, "workload seed: n != 0 prefixes every generated function name with s<n in hex>_")
	traced := flag.Bool("trace", false, "record per-layer metrics and a trace")
	traceFile := flag.String("trace-file", "", "with -trace, write the Chrome trace here")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintln(os.Stderr, "usage: perfbench -workload null-fusion|null-pinpoint|value-fusion [-seed N] [-trace [-trace-file F]]")
		os.Exit(2)
	}
	res, err := run(*name, w, *seed, *traced, *traceFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	data, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(data))
}

func run(name string, w workload, seed int64, traced bool, traceFile string) (*result, error) {
	ctx := context.Background()
	res := &result{
		Workload: name, Seed: seed, Traced: traced,
		GoVersion: runtime.Version(), MaxProcs: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
	}
	ins, err := generate(seed)
	if err != nil {
		return nil, err
	}
	specs := make([]*sparse.Spec, len(w.checkers))
	for i, c := range w.checkers {
		if specs[i], err = checker.ByName(c); err != nil {
			return nil, err
		}
	}
	var rec *telemetry.Recorder
	layers := map[string]float64{}
	if traced {
		rec = telemetry.New()
		v, e, err := frontEnd(rec, ins)
		if err != nil {
			return nil, err
		}
		layers["pdg.vertices"], layers["pdg.edges"] = float64(v), float64(e)
	}

	// Set-up: driver.Compile over every subject, repeated; the programs
	// of the last repetition are analysed.
	var progs []*driver.Program
	var compileAlloc uint64
	var setupCPU, setupWall []float64
	for rep := 0; rep < setupReps; rep++ {
		runtime.GC()
		opts := driver.Options{Prelude: true}
		if rep == setupReps-1 {
			opts.Telemetry = rec
		}
		progs = progs[:0]
		a0, c0, t0 := readMetric(allocBytes), cpuSeconds(), time.Now()
		for _, in := range ins {
			p, err := driver.Compile(ctx, driver.Source{Name: in.name, Text: in.src}, opts)
			if err != nil {
				return nil, err
			}
			progs = append(progs, p)
		}
		setupWall = append(setupWall, time.Since(t0).Seconds())
		setupCPU = append(setupCPU, cpuSeconds()-c0)
		compileAlloc = readMetric(allocBytes) - a0
	}
	res.SetupS, res.SetupWallS = median(setupCPU), median(setupWall)
	// peak_rss_mb is the analysis's peak: return the set-up repetitions'
	// garbage to the OS and restart the kernel's high-water mark.
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return nil, fmt.Errorf("reset peak RSS: %w", err)
	}

	var t tally
	for i := range progs {
		// Each subject starts on a collected heap and is dropped once
		// analysed, as if each ran in its own cmd/fusion process.
		runtime.GC()
		gc0, c0, t0 := readMetricF(gcCPU), cpuSeconds(), time.Now()
		analyse(ctx, w.engine, specs, progs[i], ins[i], rec, res, &t)
		res.AnalysisWallS += time.Since(t0).Seconds()
		res.AnalysisCPUS += cpuSeconds() - c0
		rec.Span(0, "analysis", ins[i].name, t0, time.Now())
		t.gcCPU += readMetricF(gcCPU) - gc0
		progs[i] = nil
	}
	sort.Strings(res.Sinks)
	res.Candidates = len(t.lat)
	if res.Candidates == 0 {
		return nil, fmt.Errorf("workload %s enumerated no candidates", name)
	}
	res.LatenciesMs = t.lat
	res.PeakRSSMB, err = peakRSSMB()
	if err != nil {
		return nil, err
	}
	if rec == nil {
		return res, nil
	}

	snap := rec.Snapshot()
	sec := func(key string) float64 { return float64(snap.WallNS[key]) / 1e9 }
	layers["lang.parse_s"] = sec("lang.parse")
	layers["sema.check_s"] = sec("sema.check")
	layers["unroll.normalize_s"] = sec("unroll.normalize")
	layers["ssa.build_s"] = sec("ssa.build")
	layers["pdg.build_s"] = sec("pdg.build")
	layers["driver.alloc_mb"] = mib(compileAlloc)
	layers["absint.build_s"] = sec("absint.build")
	layers["absint.alloc_mb"] = mib(t.absAlloc)
	layers["absint.decided"] = float64(t.decided)
	layers["sparse.pruned"] = float64(t.pruned)
	layers["sparse.enumerate_s"] = sec("sparse.enumerate")
	layers["sparse.candidates"] = float64(res.Candidates)
	layers["fusioncore.build_s"] = sec("solve.build")
	layers["fusioncore.local_preprocess_s"] = sec("solve.local_preprocess")
	layers["fusioncore.simplified"] = float64(snap.Counters["simplify.vertices"])
	layers["solver.probe_s"] = sec("solve.probe")
	layers["sat.search_s"] = sec("solve.search")
	layers["sat.conflicts"] = float64(snap.Sched["sat.conflicts"])
	layers["sat.decisions"] = float64(snap.Sched["sat.decisions"])
	layers["sat.propagations"] = float64(snap.Sched["sat.propagations"])
	layers["smt.preprocess_s"] = sec("solve.preprocess")
	layers["solver.preprocessed"] = float64(snap.Counters["solve.preprocessed"])
	layers["solver.session_cache_hits"] = float64(snap.Sched["session.cache_hits"])
	layers["solver.reused_clauses"] = float64(snap.Sched["session.reused_clauses"])
	layers["engines.check_s"] = sec("engines.check")
	attributed := 0.0
	for _, k := range []string{"solve.build", "solve.local_preprocess", "solve.preprocess", "solve.search", "solve.probe"} {
		attributed += sec(k)
	}
	layers["engines.unattributed_s"] = layers["engines.check_s"] - attributed
	layers["engines.alloc_mb"] = mib(t.checkAlloc)
	layers["runtime.gc_cpu_s"] = t.gcCPU
	res.Layers = layers
	if traceFile != "" {
		if err := rec.WriteTrace(traceFile); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// tally accumulates an iteration's per-candidate latencies and layer
// counters over its subjects.
type tally struct {
	lat                  []float64
	pruned, decided      int
	absAlloc, checkAlloc uint64
	gcCPU                float64
}

// analyse runs one subject the way cmd/fusion does: build the absint
// tier once (Fusion only), then per checker enumerate and check with one
// worker, scoring each verdict against the ground truth into res.
func analyse(ctx context.Context, engine string, specs []*sparse.Spec, p *driver.Program, in input, rec *telemetry.Recorder, res *result, t *tally) {
	eng := newEngine(engine)
	engines.SetParallel(eng, 1)
	if rec != nil {
		engines.SetTelemetry(eng, rec)
	}
	var oracle func(sparse.Candidate) bool
	if f, ok := eng.(*engines.Fusion); ok {
		a0, t0 := readMetric(allocBytes), time.Now()
		f.Opts.Absint = p.Absint()
		rec.StageSpan(0, "absint", "build", t0, time.Now())
		t.absAlloc += readMetric(allocBytes) - a0
		oracle = p.Oracle()
	}
	for _, spec := range specs {
		t0 := time.Now()
		se := sparse.NewEngine(p.Graph)
		se.Workers = 1
		se.Oracle = oracle
		cands := se.RunContext(ctx, spec)
		rec.StageSpan(0, "sparse", "enumerate", t0, time.Now())
		t.pruned += se.Pruned
		res.Failed += len(se.Failures)

		a0, t1 := readMetric(allocBytes), time.Now()
		vs := eng.Check(ctx, p.Graph, cands)
		rec.StageSpan(0, "engines", "check", t1, time.Now())
		t.checkAlloc += readMetric(allocBytes) - a0

		reported := map[int]bool{}
		for _, v := range vs {
			t.lat = append(t.lat, float64(v.SolveTime.Nanoseconds())/1e6)
			if v.Status == sat.Unknown || v.Failure != nil || v.Degraded {
				res.Failed++
			}
			if v.DecidedByAbsint {
				t.decided++
			}
			if v.Status == sat.Sat && !reported[v.Cand.Sink.Pos.Line] {
				reported[v.Cand.Sink.Pos.Line] = true
				res.Sinks = append(res.Sinks, fmt.Sprintf("%s:%s:%d", in.name, spec.Name, v.Cand.Sink.Pos.Line))
			}
		}
		for _, b := range in.gt.ByChecker(spec.Name) {
			if b.Feasible != reported[b.SinkLine] {
				res.VerdictErrors++
			}
		}
	}
	if p.AbsintFailure() != nil {
		res.Failed++
	}
	res.CondMB += float64(eng.ConditionBytes()) / (1 << 20)
}

// frontEnd runs each compile stage of every subject directly, the way
// driver.Compile chains them, recording one span per stage, and returns
// the total dependence-graph size.
func frontEnd(rec *telemetry.Recorder, ins []input) (vertices, edges int, err error) {
	for _, in := range ins {
		t := time.Now()
		mark := func(layer, stage string) {
			now := time.Now()
			rec.StageSpan(0, layer, stage, t, now)
			t = now
		}
		ast, err := lang.Parse(checker.Prelude + in.src)
		if err != nil {
			return 0, 0, fmt.Errorf("%s: %w", in.name, err)
		}
		mark("lang", "parse")
		if errs := sema.Check(ast); len(errs) > 0 {
			return 0, 0, fmt.Errorf("%s: %w", in.name, errs[0])
		}
		mark("sema", "check")
		norm := unroll.Normalize(ast, unroll.Options{})
		mark("unroll", "normalize")
		sp, err := ssa.Build(norm)
		if err != nil {
			return 0, 0, fmt.Errorf("%s: %w", in.name, err)
		}
		mark("ssa", "build")
		g := pdg.Build(sp)
		mark("pdg", "build")
		st := pdg.ComputeStats(g)
		vertices += st.Vertices
		edges += st.Edges()
	}
	return vertices, edges, nil
}

func newEngine(name string) engines.Engine {
	if name == "pinpoint" {
		return engines.NewPinpoint(engines.Plain)
	}
	return engines.NewFusion()
}

const (
	allocBytes = "/gc/heap/allocs:bytes"
	gcCPU      = "/cpu/classes/gc/total:cpu-seconds"
)

func readMetric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func readMetricF(name string) float64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value.Float64()
}

// cpuSeconds is the user plus system CPU time of every thread of the
// process. The kernel leaves out time the hypervisor stole from the VM.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	// Getrusage fails only for an invalid "who"; RUSAGE_SELF is valid.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

func mib(n uint64) float64 { return float64(n) / (1 << 20) }

// peakRSSMB reads the process's peak resident set (VmHWM) from procfs.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 3 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
