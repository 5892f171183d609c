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

	// A method frame keeps its receiver; only the argument list goes.
	in = "goroutine 7 [running]:\n" +
		"fusion/internal/sparse.(*Engine).fromSource(0xc000010250, {0x4f2a80?, 0x2})\n" +
		"\t/home/u/repo/internal/sparse/sparse.go:300 +0x1a\n"
	got = SanitizeStack(in)
	want = "fusion/internal/sparse.(*Engine).fromSource\n\tsparse.go:300"
	if got != want {
		t.Errorf("SanitizeStack method frame:\n%q\nwant\n%q", got, want)
	}

	// A method boundary cuts the frames below the panic: the recovery
	// closure above it stays, the caller's frames go.
	in = "goroutine 7 [running]:\n" +
		"fusion/internal/sparse.(*Engine).containedFromSource.func1()\n" +
		"\t/home/u/repo/internal/sparse/sparse.go:231 +0x1a\n" +
		"panic({0x4f2a80?, 0xc0000142d0?})\n" +
		"\t/usr/local/go/src/runtime/panic.go:770 +0x132\n" +
		"fusion/internal/sparse.(*Engine).fromSource(0xc000010250, 0x2)\n" +
		"\t/home/u/repo/internal/sparse/sparse.go:300 +0x1a\n" +
		"fusion/internal/sparse.(*Engine).containedFromSource(0xc000010250, 0x2)\n" +
		"\t/home/u/repo/internal/sparse/sparse.go:238 +0x1a\n" +
		"main.run(0x1)\n" +
		"\t/home/u/repo/cmd/fusion/main.go:280 +0x1a\n"
	got = sanitizeStack(in, "containedFromSource")
	want = "fusion/internal/sparse.(*Engine).containedFromSource.func1\n\tsparse.go:231\n" +
		"fusion/internal/sparse.(*Engine).fromSource\n\tsparse.go:300"
	if got != want {
		t.Errorf("sanitizeStack at a method boundary:\n%q\nwant\n%q", got, want)
	}
}
