package engine

import (
	"context"
	"testing"
	"time"

	"repro/internal/chaos"
)

// TestSubscribeCancelNoLeak: a reader that abandons a running sweep's
// event stream mid-flight must not strand anything — the sweep runs to
// completion, later readers still get the full replay, and after engine
// shutdown the goroutine census is back to its baseline.
func TestSubscribeCancelNoLeak(t *testing.T) {
	base := chaos.SnapshotGoroutines()
	e, err := New(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	id, err := e.Submit(Request{Arches: []string{"RCA"}, Widths: []int{8}, Patterns: 2000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	events, ok := e.Subscribe(context.Background(), id)
	if !ok {
		t.Fatal("Subscribe: unknown id")
	}
	for range events {
		break // prove the stream is live, then walk away mid-sweep
	}
	if _, err := e.Wait(context.Background(), id); err != nil {
		t.Fatal(err)
	}
	// The abandoned stream must not have blocked the publisher: a fresh
	// reader drains the full replay to the terminal event.
	replay, ok := e.Subscribe(context.Background(), id)
	if !ok {
		t.Fatal("re-Subscribe: unknown id")
	}
	terminal := false
	for ev := range replay {
		if ev.Type == EventDone || ev.Type == EventFailed || ev.Type == EventCanceled {
			terminal = true
		}
	}
	if !terminal {
		t.Fatal("replay stream closed without a terminal event")
	}
	e.Close()
	if leaked := base.CheckLeaks(5 * time.Second); len(leaked) > 0 {
		t.Fatalf("%d goroutine signature(s) leaked after Close:\n%s", len(leaked), leaked[0])
	}
}
