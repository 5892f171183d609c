package telemetry

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
)

// traceEvent is one Chrome trace-event JSON object. Complete ("X")
// events carry ts+dur in microseconds; metadata ("M") events name the
// tracks. Perfetto and chrome://tracing both load this shape.
type traceEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"`
	Dur  float64           `json:"dur,omitempty"`
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

type traceFile struct {
	TraceEvents []traceEvent `json:"traceEvents"`
}

// WriteTrace writes the recorded spans as Chrome trace-event JSON to
// path: one track (tid) per worker slot plus track 0 for the pipeline's
// own phases, spans nested by time containment (a solve span sits
// under its candidate's span, compile stages under the compile span). Events are sorted by track then start time so the output is
// stable for a fixed recording.
func (r *Recorder) WriteTrace(path string) error {
	var spans []span
	if r != nil {
		r.mu.Lock()
		spans = append(spans, r.spans...)
		r.mu.Unlock()
	}
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].track != spans[j].track {
			return spans[i].track < spans[j].track
		}
		if spans[i].start != spans[j].start {
			return spans[i].start < spans[j].start
		}
		// Longer first: a parent span sorts before the children it
		// encloses when they share a start.
		return spans[i].dur > spans[j].dur
	})

	tf := traceFile{TraceEvents: []traceEvent{}}
	seen := map[int]bool{}
	for _, s := range spans {
		if !seen[s.track] {
			seen[s.track] = true
			name := "pipeline"
			if s.track > 0 {
				name = "worker " + strconv.Itoa(s.track-1)
			}
			tf.TraceEvents = append(tf.TraceEvents, traceEvent{
				Name: "thread_name", Ph: "M", PID: 1, TID: s.track,
				Args: map[string]string{"name": name},
			})
		}
	}
	for _, s := range spans {
		ev := traceEvent{
			Name: s.name, Cat: s.cat, Ph: "X",
			TS:  float64(s.start.Nanoseconds()) / 1e3,
			Dur: float64(s.dur.Nanoseconds()) / 1e3,
			PID: 1, TID: s.track,
		}
		if s.solve {
			ev.Args = map[string]string{
				"engine": s.info.Engine,
				"tier":   s.info.Tier,
				"status": s.info.Status,
			}
		}
		tf.TraceEvents = append(tf.TraceEvents, ev)
	}
	data, err := json.MarshalIndent(tf, "", " ")
	if err != nil {
		return fmt.Errorf("telemetry: %w", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("telemetry: %w", err)
	}
	return nil
}
