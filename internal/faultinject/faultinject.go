// Package faultinject is a deterministic fault-injection harness. A
// test (or the FUSION_FAULT environment variable) arms named injection
// points; production code calls Fire/Exhaust/Delay at those points,
// which are no-ops unless armed. Matching is stateless — a point fires
// for every unit whose name contains the armed substring — so the set
// of injected faults is a pure function of the armed spec and the work
// items, independent of scheduling and worker count.
//
// Points:
//
//	panic.parse   panic.sema   panic.ssa   panic.pdg   panic.absint
//	panic.enum    panic.check  stall.solve
//	solver.exhaust  cancel.delay
//
// Spec syntax: comma-separated "point" or "point:match" entries, e.g.
//
//	FUSION_FAULT=panic.check:fig1.fl:9 fusion -checker all fig1.fl
//
// arms a forced panic only for candidates whose unit label contains
// "fig1.fl:9".
//
// "stall.solve[:match]" wedges every matching unit's solve at the entry
// of the SAT core until the solve's context is done — its per-candidate
// deadline expiring, or the run being torn down — or until a safety cap
// expires. Without a deadline the wedge holds its worker for the whole
// cap; with one, the deadline is the only thing that frees it.
package faultinject

import (
	"context"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"
)

// EnvVar is the environment variable ArmFromEnv reads.
const EnvVar = "FUSION_FAULT"

// Points is the closed set of valid injection-point names.
var Points = []string{
	"panic.parse",
	"panic.sema",
	"panic.ssa",
	"panic.pdg",
	"panic.absint",
	"panic.enum",
	"panic.check",
	"stall.solve",
	"solver.exhaust",
	"cancel.delay",
}

// Fault is the panic value raised by Fire, so containment layers can
// tell an injected crash from an organic one.
type Fault struct {
	Point string
	Unit  string
}

func (f Fault) String() string {
	return fmt.Sprintf("injected fault %s at %q", f.Point, f.Unit)
}

var (
	mu    sync.RWMutex
	armed map[string][]string // point → unit substrings ("" = all units)
)

// ArmSpec arms the points named in spec ("point[:match],..."). An
// empty spec arms nothing. Unknown point names are an error so typos
// in CI matrices fail loudly instead of silently injecting nothing.
func ArmSpec(spec string) error {
	mu.Lock()
	defer mu.Unlock()
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		point, match := entry, ""
		if i := strings.IndexByte(entry, ':'); i >= 0 {
			point, match = entry[:i], entry[i+1:]
		}
		if !validPoint(point) {
			return fmt.Errorf("faultinject: unknown point %q (valid: %s)",
				point, strings.Join(Points, ", "))
		}
		if armed == nil {
			armed = map[string][]string{}
		}
		armed[point] = append(armed[point], match)
	}
	return nil
}

// ArmFromEnv arms from $FUSION_FAULT. Binaries call it at startup.
func ArmFromEnv() error { return ArmSpec(os.Getenv(EnvVar)) }

// Reset disarms every point. Tests defer it.
func Reset() {
	mu.Lock()
	armed = nil
	mu.Unlock()
}

// Enabled reports whether any point is armed. Hot paths may use it to
// skip per-item Fire calls entirely when the harness is idle.
func Enabled() bool {
	mu.RLock()
	defer mu.RUnlock()
	return len(armed) > 0
}

// armedFor reports whether point would fire for unit.
func armedFor(point, unit string) bool {
	mu.RLock()
	defer mu.RUnlock()
	for _, match := range armed[point] {
		if match == "" || strings.Contains(unit, match) {
			return true
		}
	}
	return false
}

// Fire panics with a Fault if point is armed for unit; otherwise it is
// a no-op. Place it at the top of the contained region for the stage.
func Fire(point, unit string) {
	if armedFor(point, unit) {
		panic(Fault{Point: point, Unit: unit})
	}
}

// Exhaust reports whether an artificial solver-budget exhaustion is
// armed for unit (point "solver.exhaust").
func Exhaust(unit string) bool { return armedFor("solver.exhaust", unit) }

var (
	stallMu  sync.Mutex
	stallCap = 30 * time.Second
)

// SetStallCap bounds how long StallSolve may block when its context is
// never done (a run without a deadline); tests shorten it. It
// returns the previous cap so a deferred call can restore it.
func SetStallCap(d time.Duration) time.Duration {
	stallMu.Lock()
	defer stallMu.Unlock()
	prev := stallCap
	stallCap = d
	return prev
}

// StallSolve blocks if "stall.solve" is armed for unit, simulating a
// solve that wedges in the SAT core. The stall ends when ctx is done — the
// solve's deadline expiring or the run being cancelled — or after the
// safety cap, whichever comes first.
func StallSolve(ctx context.Context, unit string) {
	if !armedFor("stall.solve", unit) {
		return
	}
	stallMu.Lock()
	cap := stallCap
	stallMu.Unlock()
	if ctx == nil {
		time.Sleep(cap)
		return
	}
	t := time.NewTimer(cap)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// Delay sleeps for d if "cancel.delay" is armed for unit, modeling a
// unit that keeps running for a while after cancellation was asked.
func Delay(unit string, d time.Duration) {
	if armedFor("cancel.delay", unit) {
		time.Sleep(d)
	}
}

func validPoint(p string) bool {
	for _, q := range Points {
		if p == q {
			return true
		}
	}
	return false
}
