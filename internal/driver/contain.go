package driver

import "fusion/internal/failure"

// Contain runs fn inline with panic containment: it returns fn's value,
// or T's zero value and the recovered panic as a *UnitFailure naming
// unit and stage. Supervision of a unit is otherwise its context: every
// solving phase polls it, so a per-unit deadline stops the unit without
// a monitor goroutine.
func Contain[T any](unit, stage string, fn func() T) (T, *failure.UnitFailure) {
	return superviseRun(unit, stage, fn)
}

// superviseRun is Contain's containment frame. The function name is the
// boundary FromPanicAt truncates stacks at, so the frames of whoever
// called Contain never reach a failure's stack or its digest; renaming it
// would change every crash digest.
func superviseRun[T any](unit, stage string, fn func() T) (v T, fail *failure.UnitFailure) {
	defer func() {
		if r := recover(); r != nil {
			fail = failure.FromPanicAt(unit, stage, r, "driver.superviseRun")
		}
	}()
	v = fn()
	return v, nil
}
