package poll

import (
	"context"
	"testing"
)

func TestStopNeverCancellable(t *testing.T) {
	//lint:ignore SA1012 a nil context is the documented "never stop" input
	if Stop(nil, 1) != nil {
		t.Error("nil context must yield a nil predicate")
	}
	if Stop(context.Background(), 1) != nil {
		t.Error("a context that can never be cancelled must yield a nil predicate")
	}
}

func TestStopCadenceAndLatch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	stop := Stop(ctx, 4)
	for i := 0; i < 8; i++ {
		if stop() {
			t.Fatalf("call %d stopped a live context", i+1)
		}
	}
	cancel()
	// Calls 9-11 skip the context; call 12 consults it.
	for i := 9; i < 12; i++ {
		if stop() {
			t.Fatalf("call %d consulted the context off its cadence", i)
		}
	}
	if !stop() {
		t.Fatal("call 12 missed the cancellation")
	}
	if !stop() {
		t.Fatal("the predicate must latch once it has stopped")
	}
}
