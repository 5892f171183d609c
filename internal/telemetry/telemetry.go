// Package telemetry is the pipeline's zero-dependency metrics-and-spans
// subsystem: a Recorder collects monotonic counters and timed spans from
// the compile and solve stages and exports them as a stable-ordered JSON
// snapshot (-metrics) and a Chrome trace-event file (-trace).
//
// Every Recorder method is nil-receiver safe, so the off path — no
// -metrics, no -trace — costs exactly one pointer check and zero
// allocations at each instrumentation site. Hot paths therefore thread a
// possibly-nil *Recorder instead of guarding with a separate enabled
// flag.
//
// Counters live in three deliberately separate sections:
//
//   - Counters: verdict-derived tallies that are a pure function of the
//     input program and engine configuration. The pipeline's determinism
//     contract (parallel runs byte-identical to sequential ones) extends
//     to this section: its JSON rendering is byte-identical for any
//     -workers value.
//   - Sched: monotonic cost counters that depend on how candidates were
//     batched onto workers — SAT conflicts/decisions/propagations. Real,
//     useful, but not worker-invariant; never compare them across worker
//     counts.
//   - Wall: accumulated wall-clock nanoseconds per stage. Never
//     deterministic; segregated so tests can compare the Counters
//     section alone.
package telemetry

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// Recorder collects counters and spans. The zero value is not usable;
// call New. A nil *Recorder is valid everywhere and records nothing.
type Recorder struct {
	start time.Time

	mu       sync.Mutex
	counters map[string]int64
	sched    map[string]int64
	wall     map[string]int64
	spans    []span
}

// span is one recorded interval, stored relative to the Recorder's
// start so trace timestamps begin at zero.
type span struct {
	cat, name  string
	track      int
	start, dur time.Duration
	info       SolveInfo // zero for plain stage spans
	solve      bool
}

// New returns an empty Recorder whose trace clock starts now.
func New() *Recorder {
	return &Recorder{
		start:    time.Now(),
		counters: map[string]int64{},
		sched:    map[string]int64{},
		wall:     map[string]int64{},
	}
}

// Count adds delta to a deterministic counter. Only record values here
// that are worker-count-invariant (verdict-derived tallies); anything
// that depends on scheduling belongs in Sched.
func (r *Recorder) Count(name string, delta int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counters[name] += delta
	r.mu.Unlock()
}

// Sched adds delta to a scheduling-dependent monotonic counter.
func (r *Recorder) Sched(name string, delta int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.sched[name] += delta
	r.mu.Unlock()
}

// SchedMax raises a scheduling-dependent high-water mark to v.
func (r *Recorder) SchedMax(name string, v int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if v > r.sched[name] {
		r.sched[name] = v
	}
	r.mu.Unlock()
}

// Wall accumulates a wall-clock duration under name.
func (r *Recorder) Wall(name string, d time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.wall[name] += d.Nanoseconds()
	r.mu.Unlock()
}

// StageSpan records one pipeline-stage interval on a trace track and
// accumulates its duration under the wall counter "cat.name". Track 0 is
// the pipeline's own track; solve workers use their worker slot + 1.
func (r *Recorder) StageSpan(track int, cat, name string, t0, t1 time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{
		cat: cat, name: name, track: track,
		start: t0.Sub(r.start), dur: t1.Sub(t0),
	})
	r.wall[cat+"."+name] += t1.Sub(t0).Nanoseconds()
	r.mu.Unlock()
}

// Span records one interval on a trace track, accumulating its duration
// under the wall counter named by cat alone. For span families whose
// names are per-unit (the candidate spans): a wall key per unit
// would bloat the snapshot, so they share the category's key.
func (r *Recorder) Span(track int, cat, name string, t0, t1 time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{
		cat: cat, name: name, track: track,
		start: t0.Sub(r.start), dur: t1.Sub(t0),
	})
	r.wall[cat] += t1.Sub(t0).Nanoseconds()
	r.mu.Unlock()
}

// SolveInfo labels one solve-attempt span. Passed by value so a nil
// Recorder call allocates nothing.
type SolveInfo struct {
	// Unit is the candidate's unit label; Engine the engine name.
	Unit, Engine string
	// Tier is the precision tier the attempt's verdict came from; Status
	// its sat status.
	Tier, Status string
}

// SolveSpan records one solve-attempt interval on a worker track, carrying
// the attempt's SolveInfo into the trace args, and accumulates the
// duration under the wall counter "solve.attempt".
func (r *Recorder) SolveSpan(track int, t0, t1 time.Time, info SolveInfo) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{
		cat: "solve", name: info.Unit, track: track,
		start: t0.Sub(r.start), dur: t1.Sub(t0),
		info: info, solve: true,
	})
	r.wall["solve.attempt"] += t1.Sub(t0).Nanoseconds()
	r.mu.Unlock()
}

// Snapshot is the -metrics artifact. Maps marshal with sorted keys, so
// the rendering is stable; the Counters section is additionally
// byte-identical for any worker count (see the package comment for the
// section contract).
type Snapshot struct {
	Schema   string           `json:"schema"`
	Counters map[string]int64 `json:"counters"`
	Sched    map[string]int64 `json:"sched"`
	WallNS   map[string]int64 `json:"wall_ns"`
	Spans    int              `json:"spans"`
}

// SchemaVersion identifies the snapshot layout for downstream tooling.
const SchemaVersion = "fusion-metrics/1"

// Snapshot copies the current state into a marshalable Snapshot.
func (r *Recorder) Snapshot() Snapshot {
	s := Snapshot{
		Schema:   SchemaVersion,
		Counters: map[string]int64{},
		Sched:    map[string]int64{},
		WallNS:   map[string]int64{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for k, v := range r.counters {
		s.Counters[k] = v
	}
	for k, v := range r.sched {
		s.Sched[k] = v
	}
	for k, v := range r.wall {
		s.WallNS[k] = v
	}
	s.Spans = len(r.spans)
	return s
}

// CountersJSON renders the deterministic counters section alone, for
// byte-comparison across worker counts.
func (r *Recorder) CountersJSON() ([]byte, error) {
	return json.MarshalIndent(r.Snapshot().Counters, "", "  ")
}

// WriteMetrics writes the stable-ordered JSON snapshot to path.
func (r *Recorder) WriteMetrics(path string) error {
	data, err := json.MarshalIndent(r.Snapshot(), "", "  ")
	if err != nil {
		return fmt.Errorf("telemetry: %w", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("telemetry: %w", err)
	}
	return nil
}
