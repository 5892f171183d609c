package bench

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"fusion/internal/checker"
	"fusion/internal/driver"
	"fusion/internal/engines"
	"fusion/internal/failure"
	"fusion/internal/faultinject"
	"fusion/internal/progen"
	"fusion/internal/sat"
	"fusion/internal/sparse"
	"fusion/internal/telemetry"
)

// TestJournalSyncFault arms the journal.sync fault point: a record whose
// fsync fails must surface the error, never publish to the in-memory
// replay maps, and be re-run on resume — the write-fsync-publish
// discipline, proven end to end.
func TestJournalSyncFault(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	k1, d1 := j.Key("before")
	if err := j.Record(k1, d1, Cost{Reports: 1}); err != nil {
		t.Fatal(err)
	}

	if err := faultinject.ArmSpec("journal.sync"); err != nil {
		t.Fatal(err)
	}
	k2, d2 := j.Key("lost")
	recErr := j.Record(k2, d2, Cost{Reports: 2})
	faultinject.Reset()
	if recErr == nil {
		t.Fatal("Record with a failed fsync returned nil")
	}
	if _, ok := j.Lookup(k2); ok {
		t.Error("record published despite failed fsync: a crash now would replay a record the disk never held")
	}
	if j.Len() != 1 {
		t.Errorf("Len = %d after failed record, want 1", j.Len())
	}

	// The rollback must leave the file appendable: the failed record's
	// bytes are truncated away, so the next append starts a whole line.
	k3, d3 := j.Key("after")
	if err := j.Record(k3, d3, Cost{Reports: 3}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Len() != 2 {
		t.Fatalf("resumed journal holds %d records, want 2", j2.Len())
	}
	if _, ok := j2.Lookup(k2); ok {
		t.Error("failed record resurfaced on resume: it must be re-run instead")
	}
	for _, k := range []string{k1, k3} {
		if _, ok := j2.Lookup(k); !ok {
			t.Errorf("durable record %s lost", k)
		}
	}
}

// TestJournalOversizedRecordDropped: records are bounded on the write
// side, so a line exceeding the load bound is corruption — it must be
// dropped like a torn tail (truncated away, earlier records intact),
// never ballooning OpenJournal's memory or erroring the resume.
func TestJournalOversizedRecordDropped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	k1, d1 := j.Key("one")
	if err := j.Record(k1, d1, Cost{Reports: 1}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Valid JSON, but past the bound — the size alone condemns it.
	fmt.Fprintf(f, `{"key":"cafebabe","desc":"%s","cost":{}}`+"\n",
		strings.Repeat("x", maxRecordLine))
	f.Close()

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if j2.Len() != 1 {
		t.Fatalf("journal with oversized tail loaded %d records, want 1", j2.Len())
	}
	if _, ok := j2.Lookup("cafebabe"); ok {
		t.Error("oversized record survived the load")
	}
	k2, d2 := j2.Key("two")
	if err := j2.Record(k2, d2, Cost{Reports: 2}); err != nil {
		t.Fatal(err)
	}
	j2.Close()

	if fi, err := os.Stat(path); err != nil || fi.Size() > maxRecordLine {
		t.Errorf("oversized tail not truncated: size %d, err %v", fi.Size(), err)
	}
	j3, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	if j3.Len() != 2 {
		t.Fatalf("after resume past an oversized tail: %d records, want 2", j3.Len())
	}
}

// TestUnitRecordRoundTrip persists one candidate's verdict and replays
// it through a reopened journal: every verdict-relevant and cost field
// survives; the failure payload comes back bounded — digest preserved,
// stack dropped, value truncated — and the record itself stays small.
func TestUnitRecordRoundTrip(t *testing.T) {
	ctx := context.Background()
	sub, err := Compile(ctx, progen.Subjects[5], 0.02)
	if err != nil {
		t.Fatal(err)
	}
	cands := sparse.NewEngine(sub.Graph).RunContext(ctx, checker.NullDeref())
	if len(cands) == 0 {
		t.Fatal("subject produced no candidates")
	}
	c := cands[0]

	fail := failure.FromPanic(engines.UnitLabel(c), "solve", strings.Repeat("v", 100<<10))
	fail.Attempts = 2
	orig := engines.Verdict{
		Cand: c, Status: sat.Sat, Tier: engines.TierExact,
		Preprocessed: true, Degraded: true,
		Simplified: 7, PrunedGuards: 3, ConditionSize: 41, Attempts: 2,
		Conflicts: 17, Decisions: 19, Props: 23,
		SolveTime: 42 * time.Millisecond,
		Failure:   fail,
	}

	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.RecordUnit("k1", 3, orig); err != nil {
		t.Fatal(err)
	}
	j.Close()
	if fi, err := os.Stat(path); err != nil || fi.Size() > 4<<10 {
		t.Errorf("unit record with a 100KB panic value not bounded: %d bytes, err %v", fi.Size(), err)
	}

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Units() != 1 {
		t.Fatalf("Units = %d, want 1", j2.Units())
	}
	if _, ok := j2.LookupUnit("k1", 0); ok {
		t.Error("LookupUnit hit on the wrong index")
	}
	u, ok := j2.LookupUnit("k1", 3)
	if !ok {
		t.Fatal("unit record lost across reopen")
	}
	if u.Unit != engines.UnitLabel(c) {
		t.Errorf("unit label %q, want %q", u.Unit, engines.UnitLabel(c))
	}
	got := u.verdict(c)

	// The failure comes back in its bounded wire form; compare it apart
	// and then the rest structurally.
	if got.Failure == nil {
		t.Fatal("failure dropped entirely")
	}
	if got.Failure.Digest() != fail.Digest() {
		t.Errorf("digest %s, want %s: grouping broken across replay", got.Failure.Digest(), fail.Digest())
	}
	if got.Failure.Stack != "" {
		t.Error("stack persisted: records must stay bounded")
	}
	if !strings.HasSuffix(got.Failure.Value, " [truncated]") || len(got.Failure.Value) > 1024 {
		t.Errorf("panic value not truncated: %d bytes", len(got.Failure.Value))
	}
	if got.Failure.Attempts != 2 || got.Failure.Unit != fail.Unit || got.Failure.Stage != fail.Stage {
		t.Errorf("failure fields lost: %+v", got.Failure)
	}
	got.Failure, orig.Failure = nil, nil
	if !reflect.DeepEqual(got, orig) {
		t.Errorf("replayed verdict differs:\n%+v\nvs\n%+v", got, orig)
	}
}

// TestRunWorkersResumesMidSubject simulates a crash mid-subject: run
// once journaling every unit, throw away the second half of the unit
// records (the crash), and re-run under the same run key. The resumed
// run must re-check only the missing candidates and fold to the same
// verdict-derived cost.
func TestRunWorkersResumesMidSubject(t *testing.T) {
	ctx := context.Background()
	sub, err := Compile(ctx, progen.Subjects[5], 0.02)
	if err != nil {
		t.Fatal(err)
	}
	spec := checker.NullDeref()
	budget := Budget{Time: 2 * time.Minute, CondBytes: 1 << 30}
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")

	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	live := runWorkers(ctx, sub, spec, engines.NewFusion(), budget, 0, driver.AbsintOff, j, "run1")
	total := j.Units()
	j.Close()
	if total < 2 {
		t.Fatalf("subject too small to split: %d unit records", total)
	}

	// Keep the first half of the records: everything after the "crash"
	// point is as if it was never written.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	keep, cut := total/2, 0
	for i := 0; i < keep; i++ {
		cut += bytes.IndexByte(data[cut:], '\n') + 1
	}
	if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if j2.Units() != keep {
		t.Fatalf("truncated journal holds %d unit records, want %d", j2.Units(), keep)
	}
	resumed := runWorkers(ctx, sub, spec, engines.NewFusion(), budget, 0, driver.AbsintOff, j2, "run1")
	if j2.Units() != total {
		t.Errorf("resumed journal holds %d unit records, want %d", j2.Units(), total)
	}
	j2.Close()

	// Every checked candidate appends exactly one record, so the file
	// growing by exactly the missing half proves the replayed candidates
	// were never re-solved.
	data, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(data, []byte("\n")); n != total {
		t.Errorf("journal has %d records after resume, want %d: replayed units were re-checked", n, total)
	}

	// Wall time and heap are cost-only and legitimately differ; every
	// verdict-derived field must fold identically.
	norm := func(c Cost) Cost {
		c.Time, c.HeapMB, c.CondMB = 0, 0, 0
		return c
	}
	if !reflect.DeepEqual(norm(live), norm(resumed)) {
		t.Errorf("resumed cost differs from live:\n%+v\nvs\n%+v", norm(resumed), norm(live))
	}
}

// TestMetricsCountersWorkerInvariant: the counters section of the
// metrics snapshot is derived from verdicts only, so its rendered bytes
// must be identical whatever the worker count — the contract that lets
// CI diff metrics files across configurations.
func TestMetricsCountersWorkerInvariant(t *testing.T) {
	ctx := context.Background()
	sub, err := Compile(ctx, progen.Subjects[5], 0.02)
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) []byte {
		rec := telemetry.New()
		o := Options{Absint: driver.AbsintOff, Scale: 0.02, Budget: Budget{Time: 2 * time.Minute, CondBytes: 1 << 30},
			Workers: workers, Experiment: "test", Telemetry: rec}
		o.run(ctx, sub, checker.NullDeref(), engines.NewFusion())
		b, err := rec.CountersJSON()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	seq, par := run(1), run(8)
	if !bytes.Equal(seq, par) {
		t.Fatalf("counters differ between workers 1 and 8:\n%s\nvs\n%s", seq, par)
	}
}

// TestJournalReplaysRecordsWithRetiredFields: journals written before the
// abandonment flag was removed carry an "aband" key in their unit
// records, and those written before warm solver sessions were removed
// carry their "hits", "vars" and "reused" counters; they must still load
// and replay the rest of the record.
func TestJournalReplaysRecordsWithRetiredFields(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.jsonl")
	lines := `{"key":"k1:u0","kind":"unit","unit":{"idx":0,"u":"null-deref 9:5<-3:9#0","st":2,"deg":true,"aband":true,"att":1}}` + "\n" +
		`{"key":"k1:u1","kind":"unit","unit":{"idx":1,"u":"null-deref 12:5<-3:9#0","st":1,"att":1,"hits":11,"vars":5,"reused":13,"confl":17}}` + "\n"
	if err := os.WriteFile(path, []byte(lines), 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	u, ok := j.LookupUnit("k1", 0)
	if !ok {
		t.Fatal("a record with a retired field was dropped")
	}
	if u.Unit != "null-deref 9:5<-3:9#0" || u.Status != 2 || !u.Degraded || u.Attempts != 1 {
		t.Errorf("record fields lost: %+v", u)
	}
	u, ok = j.LookupUnit("k1", 1)
	if !ok {
		t.Fatal("a record with retired session counters was dropped")
	}
	if u.Unit != "null-deref 12:5<-3:9#0" || u.Status != 1 || u.Attempts != 1 || u.Conflicts != 17 {
		t.Errorf("record fields lost: %+v", u)
	}
}

// TestRunDescPinsAbsintModes pins the journal keys of the absint
// ablation's five rows to their literal text: the mode renders as the
// four absint flags journals have always been keyed by, so a journal
// written before the mode became one value still resumes.
func TestRunDescPinsAbsintModes(t *testing.T) {
	const prefix = "ablation-absint | ffmpeg | cwe-369 | scale=0.002 | budget=10m0s/1073741824 | "
	sub := &Subject{Info: progen.Subject{Name: "ffmpeg"}}
	budget := Budget{Time: DefaultBudget.Time, CondBytes: 1 << 30}
	for _, tc := range []struct {
		mode driver.AbsintMode
		want string
	}{
		{driver.AbsintOff, "fusion absint=false intervals=false nostride=false nosimplify=false nosession=false budget=0/0/0s/0"},
		{driver.AbsintIntervals, "fusion absint=true intervals=true nostride=false nosimplify=false nosession=false budget=0/0/0s/0"},
		{driver.AbsintNoStride, "fusion absint=true intervals=false nostride=true nosimplify=false nosession=false budget=0/0/0s/0"},
		{driver.AbsintNoSimplify, "fusion absint=true intervals=false nostride=false nosimplify=true nosession=false budget=0/0/0s/0"},
		{driver.AbsintOn, "fusion absint=true intervals=false nostride=false nosimplify=false nosession=false budget=0/0/0s/0"},
	} {
		o := Options{Scale: 0.002, Experiment: "ablation-absint", Absint: tc.mode}
		eng := o.fusion()
		if got := engineFingerprint(eng, tc.mode); got != tc.want {
			t.Errorf("%v: fingerprint\n got %q\nwant %q", tc.mode, got, tc.want)
		}
		if got := o.runDesc(sub, checker.DivByZero(), eng, budget); got != prefix+tc.want {
			t.Errorf("%v: run description\n got %q\nwant %q", tc.mode, got, prefix+tc.want)
		}
	}
}
