package driver

import (
	"strings"
	"testing"

	"fusion/internal/failure"
)

// TestSuperviseInline covers Contain: values pass through, panics are
// contained with the superviseRun boundary.
func TestSuperviseInline(t *testing.T) {
	v, fail := Contain("u", "check", func() int { return 42 })
	if v != 42 || fail != nil {
		t.Fatalf("got (%v, %v)", v, fail)
	}

	_, fail = Contain("u", "check", func() int { panic("boom") })
	if fail == nil {
		t.Fatal("panic not contained")
	}
	if fail.Unit != "u" || fail.Stage != "check" || fail.Value != "boom" {
		t.Errorf("failure fields: %+v", fail)
	}
	// The sanitized stack ends at the boundary: the panicking closure is
	// the deepest application frame, and Contain's own caller frames
	// below it are cut (the recovery closure above the panic is kept by
	// design — it is the same wherever Contain is called from).
	if !strings.Contains(fail.Stack, "TestSuperviseInline") {
		t.Errorf("panicking closure missing from stack:\n%s", fail.Stack)
	}
	if strings.Contains(fail.Stack, "driver.Contain") || strings.Contains(fail.Stack, "testing.tRunner") {
		t.Errorf("caller frames below the boundary leaked into stack:\n%s", fail.Stack)
	}
}

// TestSuperviseBoundaryInvariant: the same panic must produce the same
// sanitized stack (and so the same digest) whatever runs below the
// containment boundary — here the test goroutine versus a fresh worker
// goroutine — or crash grouping would depend on scheduling.
func TestSuperviseBoundaryInvariant(t *testing.T) {
	crash := func() int { panic("same crash") }
	_, inline := Contain("u", "check", crash)
	worker := make(chan *failure.UnitFailure)
	go func() {
		_, f := Contain("u", "check", crash)
		worker <- f
	}()
	pooled := <-worker
	if inline == nil || pooled == nil {
		t.Fatalf("missing failure: inline=%v pooled=%v", inline, pooled)
	}
	if inline.Digest() != pooled.Digest() {
		t.Errorf("digest differs between the caller's goroutine and a worker:\n%s\nvs\n%s",
			inline.Stack, pooled.Stack)
	}
}
