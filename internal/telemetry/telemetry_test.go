package telemetry

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestNilRecorderSafe exercises every method on a nil Recorder: the off
// path must be a silent no-op, never a nil-map write or deref.
func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	r.Count("a", 1)
	r.Sched("b", 2)
	r.Wall("d", time.Second)
	r.StageSpan(0, "compile", "parse", time.Now(), time.Now())
	r.Span(1, "candidate", "u", time.Now(), time.Now())
	r.SolveSpan(1, time.Now(), time.Now(), SolveInfo{Unit: "u"})
	s := r.Snapshot()
	if len(s.Counters) != 0 || len(s.Sched) != 0 || len(s.WallNS) != 0 || s.Spans != 0 {
		t.Fatalf("nil recorder snapshot not empty: %+v", s)
	}
	path := filepath.Join(t.TempDir(), "m.json")
	if err := r.WriteMetrics(path); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteTrace(path); err != nil {
		t.Fatal(err)
	}
}

// TestNilRecorderNoAllocs is the flags-off overhead guard: with a nil
// Recorder, the instrumentation sites on the solve hot path must add
// zero allocations.
func TestNilRecorderNoAllocs(t *testing.T) {
	var r *Recorder
	var t0 time.Time
	n := testing.AllocsPerRun(1000, func() {
		r.Count("verdicts.total", 1)
		r.Sched("sat.conflicts", 42)
		r.Wall("solve.search", time.Millisecond)
		r.StageSpan(0, "compile", "parse", t0, t0)
		r.Span(1, "candidate", "u", t0, t0)
		r.SolveSpan(1, t0, t0, SolveInfo{Unit: "u", Engine: "fusion"})
	})
	if n != 0 {
		t.Fatalf("nil-Recorder path allocates: %.1f allocs/op, want 0", n)
	}
}

// BenchmarkNilRecorder reports the off path's cost; the test above is
// the hard gate, this is the number to eyeball.
func BenchmarkNilRecorder(b *testing.B) {
	var r *Recorder
	var t0 time.Time
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Count("verdicts.total", 1)
		r.SolveSpan(1, t0, t0, SolveInfo{Unit: "u"})
	}
}

// TestSnapshotStableOrdering writes the same counters recorded in two
// different orders and requires byte-identical metrics files.
func TestSnapshotStableOrdering(t *testing.T) {
	render := func(names []string) []byte {
		r := New()
		for _, n := range names {
			r.Count(n, 1)
			r.Sched("s."+n, 2)
			r.Wall("w."+n, time.Millisecond)
		}
		path := filepath.Join(t.TempDir(), "m.json")
		if err := r.WriteMetrics(path); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a := render([]string{"zeta", "alpha", "mid"})
	b := render([]string{"mid", "zeta", "alpha"})
	if !bytes.Equal(a, b) {
		t.Fatalf("metrics not stable across recording order:\n%s\nvs\n%s", a, b)
	}
	var snap Snapshot
	if err := json.Unmarshal(a, &snap); err != nil {
		t.Fatalf("metrics not valid JSON: %v", err)
	}
	if snap.Schema != SchemaVersion {
		t.Fatalf("schema = %q, want %q", snap.Schema, SchemaVersion)
	}
}

// TestWriteTraceShape validates the trace-event JSON: a traceEvents
// array whose complete events carry ph/ts/pid/tid, with one metadata
// thread-name event per track — the shape Perfetto loads.
func TestWriteTraceShape(t *testing.T) {
	r := New()
	base := r.start
	r.StageSpan(0, "compile", "parse", base, base.Add(time.Millisecond))
	r.StageSpan(0, "compile", "sema", base.Add(time.Millisecond), base.Add(2*time.Millisecond))
	r.SolveSpan(1, base.Add(2*time.Millisecond), base.Add(5*time.Millisecond),
		SolveInfo{Unit: "null-deref f.fl:3:5", Engine: "fusion", Tier: "exact", Status: "sat"})
	r.SolveSpan(2, base.Add(2*time.Millisecond), base.Add(4*time.Millisecond),
		SolveInfo{Unit: "null-deref f.fl:9:5", Engine: "fusion", Tier: "unknown", Status: "unknown"})

	path := filepath.Join(t.TempDir(), "trace.json")
	if err := r.WriteTrace(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatalf("trace not valid JSON: %v", err)
	}
	meta, complete := 0, 0
	tids := map[float64]bool{}
	for _, ev := range tf.TraceEvents {
		ph, _ := ev["ph"].(string)
		if _, ok := ev["pid"]; !ok {
			t.Fatalf("event missing pid: %v", ev)
		}
		tid, ok := ev["tid"].(float64)
		if !ok {
			t.Fatalf("event missing tid: %v", ev)
		}
		switch ph {
		case "M":
			meta++
		case "X":
			complete++
			tids[tid] = true
			if _, ok := ev["ts"]; !ok {
				t.Fatalf("complete event missing ts: %v", ev)
			}
		default:
			t.Fatalf("unexpected phase %q", ph)
		}
	}
	if meta != 3 { // tracks 0, 1, 2
		t.Fatalf("thread_name metadata events = %d, want 3", meta)
	}
	if complete != 4 || len(tids) != 3 {
		t.Fatalf("complete events = %d on %d tracks, want 4 on 3", complete, len(tids))
	}
}
