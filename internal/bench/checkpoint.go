// Crash-safe checkpointing for corpus runs: an append-only JSONL journal
// of scored engine runs, fsync'd per record, so a run killed mid-corpus
// (OOM, kill -9, power loss) resumes by replaying completed records
// instead of re-solving them. Records are keyed by a digest over
// everything that determines a run's verdicts — experiment, subject,
// checker, engine configuration, scale, budget — plus a per-key
// occurrence counter; worker count is deliberately excluded, since it
// may only change cost, never verdicts. Replayed Costs feed the same table renderers as live
// ones, so a resumed run's merged output is byte-identical to the
// original's.
//
// The journal holds two record kinds. Run summaries (the original
// format, kind absent) checkpoint a whole (subject, checker, engine)
// run. Unit records (kind "unit") checkpoint one candidate's verdict
// within a run, keyed by (run digest, candidate index), so a crash
// mid-subject resumes at the first unchecked candidate instead of
// re-solving the whole subject.
//
// Durability discipline: a record is written, fsync'd, and only then
// published to the in-memory replay maps. A failed write or sync rolls
// the file back to the last durable offset, so the maps never claim a
// record the disk may not have — a resume re-runs it instead. The
// containing directory is fsync'd once at open, covering the file's
// creation itself.

package bench

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"fusion/internal/driver"
	"fusion/internal/engines"
	"fusion/internal/failure"
	"fusion/internal/faultinject"
	"fusion/internal/sat"
	"fusion/internal/sparse"
)

// journalRecord is one journal entry, one JSON line in the file: a run
// summary (Kind empty, Cost set) or a unit verdict (Kind "unit", Unit
// set).
type journalRecord struct {
	// Key is the record digest; Desc its readable form, for debugging a
	// journal by eye (summaries only).
	Key  string      `json:"key"`
	Desc string      `json:"desc,omitempty"`
	Kind string      `json:"kind,omitempty"`
	Cost *Cost       `json:"cost,omitempty"`
	Unit *unitRecord `json:"unit,omitempty"`
}

// unitRecord is one candidate's completed verdict, minus the candidate
// itself: on replay the verdict is re-synthesized around the candidate
// at the same index, whose label must match Unit. Cost-only counters
// ride along so replayed summaries fold identically. Records written by
// older versions may carry retired keys (aband, hits, vars, reused,
// att), which decoding ignores.
type unitRecord struct {
	Idx  int    `json:"idx"`
	Unit string `json:"u"`
	// Status is the sat.Status integer; Tier the engines.Tier integer.
	Status int `json:"st"`
	Tier   int `json:"tier,omitempty"`

	Preprocessed    bool `json:"pre,omitempty"`
	DecidedByAbsint bool `json:"abs,omitempty"`
	DecidedByStride bool `json:"stride,omitempty"`
	DecidedByZone   bool `json:"zone,omitempty"`
	Degraded        bool `json:"deg,omitempty"`

	Simplified    int   `json:"simp,omitempty"`
	PrunedGuards  int   `json:"guards,omitempty"`
	ConditionSize int   `json:"cond,omitempty"`
	Conflicts     int64 `json:"confl,omitempty"`
	Decisions     int64 `json:"decis,omitempty"`
	Props         int64 `json:"props,omitempty"`
	SatVars       int   `json:"satv,omitempty"`
	SatClauses    int   `json:"satc,omitempty"`
	SolveNS       int64 `json:"ns,omitempty"`

	Failure *failure.UnitFailure `json:"fail,omitempty"`
}

// unitRecordOf flattens a verdict into its persisted form.
func unitRecordOf(idx int, v engines.Verdict) unitRecord {
	return unitRecord{
		Idx: idx, Unit: engines.UnitLabel(v.Cand),
		Status: int(v.Status), Tier: int(v.Tier),
		Preprocessed:    v.Preprocessed,
		DecidedByAbsint: v.DecidedByAbsint,
		DecidedByStride: v.DecidedByStride,
		DecidedByZone:   v.DecidedByZone,
		Degraded:        v.Degraded,
		Simplified:      v.Simplified,
		PrunedGuards:    v.PrunedGuards,
		ConditionSize:   v.ConditionSize,
		Conflicts:       v.Conflicts,
		Decisions:       v.Decisions,
		Props:           v.Props,
		SatVars:         v.Vars,
		SatClauses:      v.Clauses,
		SolveNS:         v.SolveTime.Nanoseconds(),
		Failure:         v.Failure,
	}
}

// verdict re-synthesizes the recorded verdict around the candidate it
// was checked against.
func (u *unitRecord) verdict(c sparse.Candidate) engines.Verdict {
	return engines.Verdict{
		Cand: c, Status: sat.Status(u.Status), Tier: engines.Tier(u.Tier),
		Preprocessed:    u.Preprocessed,
		DecidedByAbsint: u.DecidedByAbsint,
		DecidedByStride: u.DecidedByStride,
		DecidedByZone:   u.DecidedByZone,
		Degraded:        u.Degraded,
		Simplified:      u.Simplified,
		PrunedGuards:    u.PrunedGuards,
		ConditionSize:   u.ConditionSize,
		Conflicts:       u.Conflicts,
		Decisions:       u.Decisions,
		Props:           u.Props,
		Vars:            u.SatVars,
		Clauses:         u.SatClauses,
		SolveTime:       time.Duration(u.SolveNS),
		Failure:         u.Failure,
	}
}

// maxRecordLine bounds one journal line on load. Records are bounded on
// the write side (failure payloads carry digests, not stacks; summary
// failure lists are capped), so a longer line is corruption — it is
// treated like a torn tail, not an error.
const maxRecordLine = 8 << 20

// maxRecordedFailures caps the failure details one summary record
// persists. The count (Cost.UnitFailures) is preserved; only the
// per-failure detail list is truncated.
const maxRecordedFailures = 64

// Journal is an append-only checkpoint of completed engine runs. Safe
// for concurrent use; each record is flushed and fsync'd before it is
// published, so a record either survives a crash whole or is re-run on
// resume.
type Journal struct {
	mu    sync.Mutex
	f     *os.File
	good  int64 // durable offset: whole, fsync'd records end here
	done  map[string]Cost
	units map[string]unitRecord
	seen  map[string]int
}

// OpenJournal opens (creating if needed) a journal at path and loads any
// records a previous run completed. A torn trailing line — the record
// being written when the process died, or one exceeding the bounded
// record size — is tolerated and dropped, along with anything after it.
func OpenJournal(path string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("bench: checkpoint: %w", err)
	}
	// Make the file's existence itself durable: fsync the containing
	// directory, so a crash right after creation cannot leave records in
	// a file whose directory entry was never written.
	if err := syncDir(path); err != nil {
		f.Close()
		return nil, err
	}
	j := &Journal{f: f, done: map[string]Cost{}, units: map[string]unitRecord{}, seen: map[string]int{}}
	br := bufio.NewReader(f)
	var good int64 // bytes of whole leading records
	torn := false
	for {
		line, err := readBoundedLine(br)
		if err == io.EOF && len(line) == 0 {
			break
		}
		if err != nil && err != io.EOF {
			// Oversized or unterminated line: treat as a torn tail.
			torn = true
			break
		}
		var rec journalRecord
		if json.Unmarshal(line, &rec) != nil {
			torn = true // the crash interrupted this write
			break
		}
		good += int64(len(line)) + 1
		switch rec.Kind {
		case "unit":
			if rec.Unit != nil {
				j.units[rec.Key] = *rec.Unit
			}
		default:
			if rec.Cost != nil {
				j.done[rec.Key] = *rec.Cost
			}
		}
		if err == io.EOF {
			// Final line had no newline but parsed whole; count it without
			// the separator. (Writes always append one, so this only
			// happens for hand-edited journals.)
			good--
			break
		}
	}
	// Truncate the torn tail away so this run's records follow the last
	// whole one — a later resume must never find garbage mid-file and
	// drop the records behind it.
	if torn {
		if err := f.Truncate(good); err != nil {
			f.Close()
			return nil, fmt.Errorf("bench: checkpoint: %w", err)
		}
	}
	if _, err := f.Seek(good, 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("bench: checkpoint: %w", err)
	}
	j.good = good
	return j, nil
}

// readBoundedLine reads one newline-terminated line of at most
// maxRecordLine bytes. io.EOF with a non-empty line means a final
// unterminated line; any other error means the line was oversized or
// the read failed.
func readBoundedLine(br *bufio.Reader) ([]byte, error) {
	var line []byte
	for {
		chunk, err := br.ReadSlice('\n')
		line = append(line, chunk...)
		if err == bufio.ErrBufferFull {
			if len(line) > maxRecordLine {
				return nil, fmt.Errorf("bench: checkpoint: record exceeds %d bytes", maxRecordLine)
			}
			continue
		}
		if err != nil {
			return line, err
		}
		if len(line) > maxRecordLine {
			return nil, fmt.Errorf("bench: checkpoint: record exceeds %d bytes", maxRecordLine)
		}
		return bytes.TrimSuffix(line, []byte("\n")), nil
	}
}

// syncDir fsyncs the directory containing path, making a just-created
// or just-truncated file durable in its parent.
func syncDir(path string) error {
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return fmt.Errorf("bench: checkpoint: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		// Some filesystems refuse directory fsync; the per-record file
		// fsync still holds, so degrade rather than fail the run.
		return nil
	}
	return nil
}

// Len reports how many completed run-summary records the journal holds.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.done)
}

// Units reports how many completed unit records the journal holds.
func (j *Journal) Units() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.units)
}

// Key digests a run description into a journal key, appending the
// per-description occurrence index: experiments that run the identical
// configuration more than once (ablation sweeps) get distinct keys in
// execution order, which is deterministic because experiments issue runs
// sequentially.
func (j *Journal) Key(desc string) (key, fullDesc string) {
	j.mu.Lock()
	occ := j.seen[desc]
	j.seen[desc]++
	j.mu.Unlock()
	fullDesc = fmt.Sprintf("%s #%d", desc, occ)
	h := fnv.New32a()
	h.Write([]byte(fullDesc))
	return fmt.Sprintf("%08x", h.Sum32()), fullDesc
}

// unitKey derives the journal key of one candidate's record within a
// run: the run digest plus the candidate's input index, which is stable
// under worker count because enumeration order is.
func unitKey(runKey string, idx int) string {
	return fmt.Sprintf("%s:u%d", runKey, idx)
}

// Lookup returns the recorded cost for key, if a previous run completed
// it.
func (j *Journal) Lookup(key string) (Cost, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	c, ok := j.done[key]
	return c, ok
}

// LookupUnit returns the recorded unit verdict for (runKey, idx), if a
// previous run completed that candidate.
func (j *Journal) LookupUnit(runKey string, idx int) (unitRecord, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	u, ok := j.units[unitKey(runKey, idx)]
	return u, ok
}

// Record appends one completed run summary and fsyncs before returning:
// after Record, the run survives any crash. The persisted failure list
// is capped at maxRecordedFailures entries (the count is preserved).
func (j *Journal) Record(key, desc string, c Cost) error {
	if len(c.Failures) > maxRecordedFailures {
		c.Failures = c.Failures[:maxRecordedFailures]
	}
	return j.append(journalRecord{Key: key, Desc: desc, Cost: &c},
		func() { j.done[key] = c })
}

// RecordUnit appends one candidate's completed verdict and fsyncs
// before returning.
func (j *Journal) RecordUnit(runKey string, idx int, v engines.Verdict) error {
	u := unitRecordOf(idx, v)
	return j.append(journalRecord{Key: unitKey(runKey, idx), Kind: "unit", Unit: &u},
		func() { j.units[unitKey(runKey, idx)] = u })
}

// append writes one record under the journal's durability discipline:
// marshal, write, fsync, and only then publish to the in-memory maps.
// Any failure rolls the file back to the last durable offset, so a
// record the disk may not hold is never replayed — a resume re-runs it.
func (j *Journal) append(rec journalRecord, publish func()) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("bench: checkpoint: %w", err)
	}
	line = append(line, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	rollback := func(err error) error {
		_ = j.f.Truncate(j.good)
		_, _ = j.f.Seek(j.good, 0)
		return fmt.Errorf("bench: checkpoint: %w", err)
	}
	if _, err := j.f.Write(line); err != nil {
		return rollback(err)
	}
	if faultinject.Armed("journal.sync", rec.Key) {
		return rollback(fmt.Errorf("injected fault journal.sync at %q", rec.Key))
	}
	if err := j.f.Sync(); err != nil {
		return rollback(err)
	}
	j.good += int64(len(line))
	publish()
	return nil
}

// Close closes the journal file. Recorded state stays on disk.
func (j *Journal) Close() error { return j.f.Close() }

// engineFingerprint renders the verdict-relevant configuration of an
// engine run under an absint tier mode (which only Fusion consults).
// Worker counts are excluded: they may only change cost. Unknown engine
// types fall back to their name, which is correct as long as they carry
// no ablation knobs. The mode renders as the four flags earlier journals
// were keyed by, and retired knobs — `-session`, the QE cube budget, and
// Infer's summary depth and spec budget — as the literals they always
// rendered, so those journals still resume.
func engineFingerprint(eng engines.Engine, mode driver.AbsintMode) string {
	switch x := eng.(type) {
	case *engines.Fusion:
		return fmt.Sprintf("fusion absint=%t intervals=%t nostride=%t nosimplify=%t nosession=false budget=%s",
			mode != driver.AbsintOff, mode == driver.AbsintIntervals,
			mode == driver.AbsintNoStride, mode == driver.AbsintNoSimplify,
			budgetFingerprint(x.Budget))
	case *engines.Pinpoint:
		return fmt.Sprintf("%s nosession=false qe=0 budget=%s", x.Name(), budgetFingerprint(x.Budget))
	case *engines.Infer:
		return "infer depth=3 specbudget=0"
	default:
		return eng.Name()
	}
}

// budgetFingerprint renders a per-candidate budget as journal keys have
// always rendered it.
func budgetFingerprint(b engines.Budget) string {
	return fmt.Sprintf("%d/%d/%s/%d", b.Steps, b.Conflicts, b.Deadline, b.MaxHeapDelta)
}

// runDesc renders the full readable run description the journal keys
// digest.
func (o Options) runDesc(sub *Subject, spec *sparse.Spec, eng engines.Engine, budget Budget) string {
	return fmt.Sprintf("%s | %s | %s | scale=%g | budget=%s/%d | %s",
		o.Experiment, sub.Info.Name, spec.Name, o.scale(),
		budget.Time, budget.CondBytes, engineFingerprint(eng, o.Absint))
}
