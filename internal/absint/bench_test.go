package absint_test

import (
	"context"
	"testing"

	"fusion/internal/absint"
	"fusion/internal/driver"
	"fusion/internal/pdg"
	"fusion/internal/progen"
)

// BenchmarkAnalyze measures the whole-program build of the tier, the
// full product, over the four industrial subjects at scale 0.01: one op
// analyses all four.
func BenchmarkAnalyze(b *testing.B) {
	var graphs []*pdg.Graph
	for _, name := range []string{"ffmpeg", "v8", "mysql", "wine"} {
		info, err := progen.SubjectByName(name)
		if err != nil {
			b.Fatal(err)
		}
		src, _, _ := info.Build(0.01)
		pr, err := driver.Compile(context.Background(), driver.Source{Name: name, Text: src}, driver.Options{})
		if err != nil {
			b.Fatal(err)
		}
		graphs = append(graphs, pr.Graph)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, g := range graphs {
			analyzeSink = driver.Analyze(g, driver.AbsintOn)
		}
	}
}

var analyzeSink *absint.Analysis
