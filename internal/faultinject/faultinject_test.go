package faultinject

import (
	"context"
	"testing"
	"time"
)

func TestArmSpecAndFire(t *testing.T) {
	defer Reset()
	if Enabled() {
		t.Fatal("harness armed before ArmSpec")
	}
	if err := ArmSpec("panic.check:f.fl:3,solver.exhaust"); err != nil {
		t.Fatal(err)
	}
	if !Enabled() {
		t.Fatal("harness not enabled after ArmSpec")
	}
	if armedFor("panic.check", "null-deref g.fl:1:1") {
		t.Error("fired for a non-matching unit")
	}
	if !armedFor("panic.check", "null-deref f.fl:3:9") {
		t.Error("did not fire for a matching unit")
	}
	if !Exhaust("anything") {
		t.Error("solver.exhaust with no match must fire for every unit")
	}

	defer func() {
		v := recover()
		f, ok := v.(Fault)
		if !ok {
			t.Fatalf("Fire panicked with %T, want Fault", v)
		}
		if f.Point != "panic.check" {
			t.Errorf("wrong point: %+v", f)
		}
	}()
	Fire("panic.check", "null-deref f.fl:3:9")
	t.Fatal("Fire did not panic")
}

func TestArmSpecRejectsUnknownPoint(t *testing.T) {
	defer Reset()
	if err := ArmSpec("panic.nosuch"); err == nil {
		t.Error("unknown point accepted")
	}
}

func TestArmSpecEmpty(t *testing.T) {
	defer Reset()
	if err := ArmSpec(""); err != nil {
		t.Fatal(err)
	}
	if Enabled() {
		t.Error("empty spec armed something")
	}
}

func TestDelayNoopWhenDisarmed(t *testing.T) {
	defer Reset()
	start := time.Now()
	Delay("unit", time.Second)
	if time.Since(start) > 100*time.Millisecond {
		t.Error("Delay slept while disarmed")
	}
}

func TestStallSolveDisarmedIsNoop(t *testing.T) {
	defer Reset()
	start := time.Now()
	StallSolve(context.Background(), "unit")
	if time.Since(start) > 100*time.Millisecond {
		t.Error("StallSolve blocked while disarmed")
	}
}

func TestStallSolveReleasedByCancel(t *testing.T) {
	defer Reset()
	defer SetStallCap(SetStallCap(time.Minute))
	if err := ArmSpec("stall.solve"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	StallSolve(ctx, "unit")
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("StallSolve held for %v after cancellation", elapsed)
	}
}

func TestStallSolveRespectsCap(t *testing.T) {
	defer Reset()
	defer SetStallCap(SetStallCap(20 * time.Millisecond))
	if err := ArmSpec("stall.solve:wedge"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	StallSolve(context.Background(), "solve wedge #1")
	elapsed := time.Since(start)
	if elapsed < 10*time.Millisecond {
		t.Errorf("armed stall returned after %v, before the cap", elapsed)
	}
	if elapsed > 5*time.Second {
		t.Errorf("stall overran its cap: %v", elapsed)
	}
}
