package progen_test

import (
	"context"
	"math/rand"
	"testing"

	"fusion/internal/absint"
	"fusion/internal/checker"
	"fusion/internal/driver"
	"fusion/internal/engines"
	"fusion/internal/interp"
	"fusion/internal/lang"
	"fusion/internal/progen"
	"fusion/internal/sat"
	"fusion/internal/sparse"
)

// flowKey identifies a source-to-sink flow by source positions, which are
// stable between the raw program (interpreted) and the normalized one
// (analyzed).
type flowKey struct {
	source lang.Pos
	sink   lang.Pos
	argIdx int
}

// specInterpOpts derives interpreter taint options from a checker spec.
func specInterpOpts(spec *sparse.Spec, seed int64) interp.Options {
	var sources []string
	switch spec.Name {
	case "cwe-23":
		sources = checker.TaintInputSources
	case "cwe-402":
		sources = checker.SecretSources
	case "cwe-369", "cwe-125":
		sources = checker.TaintInputSources
	}
	var sinks []string
	for s := range spec.SinkCalls {
		sinks = append(sinks, s)
	}
	o := interp.SpecOptions(seed, spec.Name == "null-deref", sources, sinks, spec.TaintThroughExtern)
	o.ObserveDivZero = spec.SinkDivisors
	if len(spec.SinkBounds) > 0 {
		o.SinkBounds = map[string]interp.SinkBound{}
		for name, is := range spec.SinkBounds {
			o.SinkBounds[name] = interp.SinkBound{
				Arg: is.Arg, Size: is.Size,
				DynBound: is.DynBound, BoundArg: is.BoundArg,
			}
		}
	}
	return o
}

// TestAnalysisSoundAgainstConcreteExecutions is the end-to-end soundness
// fuzz: every flow witnessed by a concrete execution (the tracked value
// observably reaching a sink) must be found by the sparse analysis and
// judged feasible by both engines — the execution is a satisfying witness
// of the path condition.
func TestAnalysisSoundAgainstConcreteExecutions(t *testing.T) {
	for _, subIdx := range []int{2, 5, 9} {
		info := progen.Subjects[subIdx]
		src, _, _ := info.Build(0.05)
		pr, err := driver.Compile(context.Background(), driver.Source{Name: info.Name, Text: src}, driver.Options{})
		if err != nil {
			t.Fatal(err)
		}
		raw, g := pr.AST, pr.Graph
		eng := sparse.NewEngine(g)
		an := absint.Analyze(g)
		rng := rand.New(rand.NewSource(int64(subIdx) * 77))

		for _, spec := range checker.All() {
			// Static side: verdicts per flow key, with and without the
			// interval tier, plus which flows the oracle would prune.
			cands := eng.Run(spec)
			fus := engines.NewFusion().Check(context.Background(), g, cands)
			fa := engines.NewFusion()
			fa.Opts.Absint = an
			fusAbs := fa.Check(context.Background(), g, cands)
			pin := engines.NewPinpoint(engines.Plain).Check(context.Background(), g, cands)
			verdictF := map[flowKey]sat.Status{}
			verdictA := map[flowKey]sat.Status{}
			verdictP := map[flowKey]sat.Status{}
			prunedK := map[flowKey]bool{}
			for i, v := range fus {
				k := flowKey{v.Cand.Source.Pos, v.Cand.Sink.Pos, v.Cand.ArgIdx}
				verdictF[k] = v.Status
				verdictA[k] = fusAbs[i].Status
				verdictP[k] = pin[i].Status
				if an.PrunePath(v.Cand.Path, v.Cand.Constraints(0)...) {
					prunedK[k] = true
				}
			}

			// Dynamic side: execute every root bug function on random and
			// targeted inputs, collecting witnessed flows.
			for _, f := range raw.Funcs {
				if f.Extern || len(f.Params) == 0 || f.Name[:3] != "bug" {
					continue
				}
				for trial := 0; trial < 30; trial++ {
					args := make([]interp.Value, len(f.Params))
					for i := range args {
						switch trial % 3 {
						case 0:
							args[i] = interp.Value{V: rng.Uint32() % 8}
						case 1:
							args[i] = interp.Value{V: rng.Uint32() % 64}
						default:
							args[i] = interp.Value{V: rng.Uint32()}
						}
					}
					opts := specInterpOpts(spec, int64(trial))
					opts.MaxLoopIters = 2 // match the analysis's loop unrolling
					r, err := interp.New(raw, opts).Run(f.Name, args)
					if err != nil {
						t.Fatalf("%s/%s: interp: %v", info.Name, f.Name, err)
					}
					for _, hit := range r.Hits {
						for srcPos := range hit.Taint {
							k := flowKey{srcPos, hit.CallPos, hit.ArgIdx}
							st, found := verdictF[k]
							if !found {
								t.Errorf("%s/%s/%s: witnessed flow %v not found by the sparse analysis",
									info.Name, spec.Name, f.Name, k)
								continue
							}
							if st != sat.Sat {
								t.Errorf("%s/%s/%s: witnessed flow %v judged %s by fusion",
									info.Name, spec.Name, f.Name, k, st)
							}
							if verdictA[k] != sat.Sat {
								t.Errorf("%s/%s/%s: witnessed flow %v judged %s by fusion+absint",
									info.Name, spec.Name, f.Name, k, verdictA[k])
							}
							if verdictP[k] != sat.Sat {
								t.Errorf("%s/%s/%s: witnessed flow %v judged %s by pinpoint",
									info.Name, spec.Name, f.Name, k, verdictP[k])
							}
							if prunedK[k] {
								t.Errorf("%s/%s/%s: witnessed flow %v pruned by the absint oracle",
									info.Name, spec.Name, f.Name, k)
							}
						}
					}
				}
			}
		}
	}
}
