package engine

import (
	"context"
	"iter"
	"slices"
	"testing"
	"time"
)

type gatedJob = job[struct{}, struct{}, JobInfo, SweepEvent]

// gatedKind is a test-only job kind whose run waits on gate, then
// publishes n point events as fast as it can.
func gatedKind(gate <-chan struct{}, n int) *jobKind[struct{}, struct{}, JobInfo, SweepEvent] {
	return &jobKind[struct{}, struct{}, JobInfo, SweepEvent]{
		name: "gated", prefix: "g-", noun: "gated job",
		normalize: func(*struct{}) error { return nil },
		leaseSec:  func(*struct{}) int { return 0 },
		run: func(ctx context.Context, j *gatedJob) (struct{}, error) {
			select {
			case <-gate:
			case <-ctx.Done():
				return struct{}{}, ctx.Err()
			}
			j.running(n)
			for i := 0; i < n; i++ {
				j.point(false, func(ev *SweepEvent) { ev.Type = EventPoint })
			}
			return struct{}{}, nil
		},
		snapshot: func(h *JobInfo, _, _ struct{}) JobInfo { return *h },
		event: func(h *JobInfo, typ string) SweepEvent {
			return SweepEvent{Type: typ, SweepID: h.ID, Status: h.Status, Progress: h.Progress, Error: h.Error}
		},
	}
}

// countEvents tallies a stream's point and terminal events, calling
// first, when set, inside the first event.
func countEvents(events iter.Seq2[SweepEvent, bool], first func(SweepEvent)) (points, terminals int) {
	for ev := range events {
		if first != nil {
			first(ev)
			first = nil
		}
		switch {
		case ev.Type == EventPoint:
			points++
		case terminal(ev.Status):
			terminals++
		}
	}
	return points, terminals
}

// TestSlowReaderSeesEveryEvent: a reader that attaches while the job is
// still pending, then reads nothing more until the job has finished,
// must still receive every point event and the terminal event. A
// second reader of the same stream reads concurrently, as fast as it
// can, and must see the same events.
func TestSlowReaderSeesEveryEvent(t *testing.T) {
	const n = 5000
	e := newTestEngine(t, Options{Workers: 1})
	gate := make(chan struct{})
	r := newRegistry(e, gatedKind(gate, n))
	id, err := r.submit(struct{}{})
	if err != nil {
		t.Fatal(err)
	}
	j, _ := r.lookup(id)
	events, ok := r.subscribe(t.Context(), id)
	if !ok {
		t.Fatal("subscribe: unknown id")
	}
	fast := make(chan [2]int, 1)
	go func() {
		points, terminals := countEvents(events, nil)
		fast <- [2]int{points, terminals}
	}()
	points, terminals := countEvents(events, func(ev SweepEvent) {
		if ev.Type != EventProgress || ev.Status != StatusPending {
			t.Errorf("opening event %s/%s, want a pending snapshot", ev.Type, ev.Status)
		}
		close(gate)
		<-j.done
	})
	if points != n || terminals != 1 {
		t.Errorf("slow reader saw %d of %d point events and %d terminal events, want all and 1", points, n, terminals)
	}
	if got := <-fast; got != [2]int{n, 1} {
		t.Errorf("fast reader saw %d of %d point events and %d terminal events, want all and 1", got[0], n, got[1])
	}
}

// TestStreamWakesOnPublish: a reader that has caught up with a running
// job's history waits, and is woken by the next publish, not only by
// the terminal one. While the reader sits inside that event, the job
// must still be able to publish and finish: a stream holds no lock
// across a yield.
func TestStreamWakesOnPublish(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 1})
	gate := make(chan struct{})
	r := newRegistry(e, gatedKind(gate, 0))
	id, err := r.submit(struct{}{})
	if err != nil {
		t.Fatal(err)
	}
	j, _ := r.lookup(id)
	ctx, cancel := context.WithTimeout(t.Context(), 10*time.Second)
	defer cancel()
	events, ok := r.subscribe(ctx, id)
	if !ok {
		t.Fatal("subscribe: unknown id")
	}
	var got []string
	for ev := range events {
		got = append(got, ev.Type)
		switch {
		case len(got) == 1:
			// Publish a point once this reader has caught up and waits.
			go func() {
				for waiting := false; !waiting && ctx.Err() == nil; {
					j.mu.Lock()
					waiting = j.wake != nil
					j.mu.Unlock()
					time.Sleep(time.Millisecond)
				}
				j.point(false, func(ev *SweepEvent) { ev.Type = EventPoint })
			}()
		case ev.Type == EventPoint:
			close(gate)
			select {
			case <-j.done:
			case <-ctx.Done():
				t.Error("the job could not finish while a reader sat inside an event")
			}
		}
	}
	if want := []string{EventProgress, EventPoint, EventProgress, EventDone}; !slices.Equal(got, want) {
		t.Fatalf("stream read %v, want %v", got, want)
	}
}
