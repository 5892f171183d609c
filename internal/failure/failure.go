// Package failure defines the structured record a contained panic or
// stage crash leaves behind. One analysis unit (a source file, a
// candidate, an enumeration source) that dies is converted into a
// *UnitFailure attached to its result slot, so a single bad input
// degrades one unit and never the batch.
//
// The package sits below driver, sparse, engines, and bench so all of
// them can attach failures without import cycles.
package failure

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"strings"
)

// UnitFailure records one contained crash: which unit died, in which
// pipeline stage, the recovered panic value, and a sanitized stack.
type UnitFailure struct {
	// Unit names the work item: a source file, a candidate like
	// "null-deref f.fl:12:9", or an enumeration source.
	Unit string
	// Stage is the pipeline stage that crashed: parse, sema, unroll,
	// ssa, pdg, absint, enum, check, solve.
	Stage string
	// Value is the recovered panic value, rendered with %v.
	Value string
	// Stack is the sanitized stack trace of the panicking goroutine:
	// the goroutine header and the hex argument lists are stripped so
	// the text is byte-identical across runs and worker counts.
	Stack string
}

// Error implements error.
func (f *UnitFailure) Error() string {
	return fmt.Sprintf("unit %s: stage %s: %s", f.Unit, f.Stage, f.Value)
}

// Digest returns a short stable identifier for the failure's stack,
// suitable for grouping identical crashes across units.
func (f *UnitFailure) Digest() string {
	h := fnv.New32a()
	h.Write([]byte(f.Stage))
	h.Write([]byte{0})
	h.Write([]byte(f.Stack))
	return fmt.Sprintf("%08x", h.Sum32())
}

// FromPanic builds a UnitFailure from a recovered panic value. Call it
// directly inside the deferred recover so the captured stack still
// contains the panicking frames.
func FromPanic(unit, stage string, v any) *UnitFailure {
	return FromPanicAt(unit, stage, v, "")
}

// FromPanicAt is FromPanic with a containment boundary: the sanitized
// stack is truncated before the first frame whose function name contains
// boundary. Containment layers pass their own function name so the
// frames below them — which differ between inline and pooled execution —
// never reach the stack or its digest, keeping both byte-identical for
// any worker count.
func FromPanicAt(unit, stage string, v any, boundary string) *UnitFailure {
	buf := make([]byte, 16<<10)
	buf = buf[:runtime.Stack(buf, false)]
	return &UnitFailure{
		Unit:  unit,
		Stage: stage,
		Value: fmt.Sprintf("%v", v),
		Stack: sanitizeStack(string(buf), boundary),
	}
}

// SanitizeStack rewrites a runtime.Stack dump into a deterministic
// form: the "goroutine N [running]:" header and "created by" trailer go
// away, each call frame keeps only the function name, receiver included
// (hex argument values vary run to run), and each source line keeps
// file:line but drops the "+0x..." program counter offset. Frames belonging to the
// runtime's panic machinery and to this package are dropped so the
// first line is the frame that actually panicked.
func SanitizeStack(s string) string { return sanitizeStack(s, "") }

func sanitizeStack(s, boundary string) string {
	lines := strings.Split(s, "\n")
	var out []string
	skipNext := false
	// The boundary only applies below the panic frame: above it sit the
	// recovery closures of the containment layer itself, whose names may
	// contain the boundary too.
	seenPanic := false
	for _, ln := range lines {
		if strings.HasPrefix(ln, "goroutine ") {
			continue
		}
		if skipNext {
			// Source position line belonging to a dropped frame.
			skipNext = false
			continue
		}
		if !strings.HasPrefix(ln, "\t") {
			// Function frame line: "pkg.(*T).fn(0x1, 0x2)" → "pkg.(*T).fn".
			// Only the trailing argument list goes (argument words never
			// hold parentheses); a method's receiver stays in the name.
			name := strings.TrimSpace(ln)
			if i := strings.LastIndexByte(name, '('); i > 0 && strings.HasSuffix(name, ")") {
				name = name[:i]
			}
			if name == "" {
				continue
			}
			if name == "panic" || strings.HasPrefix(name, "runtime.") ||
				strings.HasPrefix(name, "created by ") ||
				strings.HasPrefix(name, "fusion/internal/failure.FromPanic") {
				if name == "panic" || strings.HasPrefix(name, "runtime.") {
					seenPanic = true
				}
				skipNext = true
				continue
			}
			if seenPanic && boundary != "" && strings.Contains(name, boundary) {
				// The containment layer and everything below it varies
				// with scheduling mode and caller — cut here.
				break
			}
			out = append(out, name)
			continue
		}
		// Source line: "\t/path/file.go:123 +0x1a" → "\tfile.go:123".
		pos := strings.TrimSpace(ln)
		if i := strings.IndexByte(pos, ' '); i > 0 {
			pos = pos[:i]
		}
		if i := strings.LastIndexByte(pos, '/'); i >= 0 {
			pos = pos[i+1:]
		}
		out = append(out, "\t"+pos)
	}
	return strings.Join(out, "\n")
}
