package failure

import (
	"strings"
	"testing"
)

func capture(unit, stage string) (f *UnitFailure) {
	defer func() {
		if v := recover(); v != nil {
			f = FromPanic(unit, stage, v)
		}
	}()
	panic("boom")
}

func TestFromPanic(t *testing.T) {
	f := capture("a.fl", "sema")
	if f == nil {
		t.Fatal("no failure captured")
	}
	if f.Unit != "a.fl" || f.Stage != "sema" || f.Value != "boom" {
		t.Errorf("wrong fields: %+v", f)
	}
	if want := "unit a.fl: stage sema: boom"; f.Error() != want {
		t.Errorf("Error() = %q, want %q", f.Error(), want)
	}
	if strings.Contains(f.Stack, "goroutine ") {
		t.Errorf("stack keeps goroutine header:\n%s", f.Stack)
	}
	if strings.Contains(f.Stack, "0x") {
		t.Errorf("stack keeps hex values:\n%s", f.Stack)
	}
	if !strings.Contains(f.Stack, "failure.capture") {
		t.Errorf("stack lost the panicking frame:\n%s", f.Stack)
	}
}

// The digest must be a pure function of stage and sanitized stack:
// capturing the same panic twice yields the same digest.
func TestDigestDeterministic(t *testing.T) {
	a, b := capture("a.fl", "sema"), capture("b.fl", "sema")
	if a.Digest() != b.Digest() {
		t.Errorf("same crash, different digests: %s vs %s\n%s\n---\n%s",
			a.Digest(), b.Digest(), a.Stack, b.Stack)
	}
	c := capture("a.fl", "parse")
	if c.Digest() == a.Digest() {
		t.Error("different stages share a digest")
	}
}

func TestSanitizeStack(t *testing.T) {
	in := "goroutine 7 [running]:\n" +
		"main.work(0xc000010250, 0x2)\n" +
		"\t/home/u/repo/main.go:42 +0x1a\n" +
		"runtime.gopanic({0x4f2a80?, 0xc0000142d0?})\n" +
		"\t/usr/local/go/src/runtime/panic.go:770 +0x132\n"
	got := SanitizeStack(in)
	want := "main.work\n\tmain.go:42"
	if got != want {
		t.Errorf("SanitizeStack:\n%q\nwant\n%q", got, want)
	}
}
