package engine

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"
)

// waitReady blocks until journal replay finishes (a bounded wait so a
// wedged recovery fails the test instead of hanging it).
func waitReady(t *testing.T, e *Engine) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := e.WaitReady(ctx); err != nil {
		t.Fatalf("engine never became ready: %v", err)
	}
}

// newDurableEngine builds an engine over the given journal and cache
// directories and waits out its replay.
func newDurableEngine(t *testing.T, jdir, cdir string, workers int) *Engine {
	t.Helper()
	e := newTestEngine(t, Options{Workers: workers, JournalDir: jdir, CacheDir: cdir})
	waitReady(t, e)
	return e
}

// normOperators deep-copies results with FromCache cleared: recovery
// changes provenance (replayed points are cache-served), never values.
func normOperators(ops []OperatorResult) []OperatorResult {
	out := append([]OperatorResult(nil), ops...)
	for i := range out {
		out[i].Points = append([]PointSummary(nil), out[i].Points...)
		for j := range out[i].Points {
			out[i].Points[j].FromCache = false
		}
	}
	return out
}

// TestJournalReplayTerminalJobs is the durability half of the journal
// contract: finished jobs survive restarts verbatim, replay is
// idempotent across repeated restarts (zero re-executions each time),
// and compaction keeps the directory bounded by live state rather than
// restart count.
func TestJournalReplayTerminalJobs(t *testing.T) {
	jdir, cdir := t.TempDir(), t.TempDir()
	req := Request{Arches: []string{"RCA"}, Widths: []int{4}, Patterns: 40, Seed: 7}
	mreq := mcTestRequest()

	e1 := newDurableEngine(t, jdir, cdir, 4)
	id, err := e1.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := e1.Wait(t.Context(), id)
	if err != nil || sw.Status != StatusDone {
		t.Fatalf("seed sweep: %v status=%v", err, sw.Status)
	}
	mj := runMCJob(t, e1, mreq)
	e1.Close()

	for round := 1; round <= 2; round++ {
		e := newDurableEngine(t, jdir, cdir, 4)
		got, ok := e.Get(id)
		if !ok || got.Status != StatusDone {
			t.Fatalf("restart %d: sweep %s gone or not done (%v %v)", round, id, ok, got.Status)
		}
		if !reflect.DeepEqual(normOperators(got.Results), normOperators(sw.Results)) {
			t.Fatalf("restart %d: sweep results drifted across replay", round)
		}
		gm, ok := e.GetMC(mj.ID)
		if !ok || gm.Status != StatusDone {
			t.Fatalf("restart %d: mc job %s gone or not done (%v %v)", round, mj.ID, ok, gm.Status)
		}
		if !reflect.DeepEqual(gm.Points, mj.Points) {
			t.Fatalf("restart %d: mc points drifted across replay", round)
		}
		// The no-duplicate-executions proof: replaying a finished
		// registry must touch the simulator zero times.
		if n := e.Executions(); n != 0 {
			t.Fatalf("restart %d executed %d sweep points, want 0", round, n)
		}
		if n := e.MCRepsExecuted(); n != 0 {
			t.Fatalf("restart %d executed %d mc reps, want 0", round, n)
		}
		jobs := e.Jobs()
		if len(jobs) != 2 {
			t.Fatalf("restart %d: %d jobs listed, want 2", round, len(jobs))
		}
		for _, j := range jobs {
			if !j.Recovered || j.Status != StatusDone {
				t.Fatalf("restart %d: job %s recovered=%v status=%v", round, j.ID, j.Recovered, j.Status)
			}
		}
		// A late subscriber must still get the synthesized replay: at
		// least one point event, then the done terminal.
		events, ok := e.Subscribe(t.Context(), id)
		if !ok {
			t.Fatalf("restart %d: subscribe failed", round)
		}
		points, terminals := 0, 0
		for ev := range events {
			switch ev.Type {
			case EventPoint:
				points++
			case EventDone:
				terminals++
			}
		}
		if points == 0 || terminals != 1 {
			t.Fatalf("restart %d: synthesized replay had %d points, %d terminals", round, points, terminals)
		}
		e.Close()
	}

	entries, err := os.ReadDir(jdir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) > 4 {
		t.Fatalf("journal holds %d segments after restarts, want compaction to bound it", len(entries))
	}
}

// TestJournalResumeAfterCrash kills an engine mid-sweep and checks the
// resume half of the contract: the job continues under its original ID,
// pre-crash completions are served from the cache instead of
// re-executing, and the final results match a clean uninterrupted run.
func TestJournalResumeAfterCrash(t *testing.T) {
	jdir, cdir := t.TempDir(), t.TempDir()
	req := Request{Arches: []string{"RCA"}, Widths: []int{4}, Patterns: 40, Seed: 7}

	ref := newTestEngine(t, Options{Workers: 4})
	refID, err := ref.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	refSw, err := ref.Wait(t.Context(), refID)
	if err != nil || refSw.Status != StatusDone {
		t.Fatalf("reference sweep: %v status=%v", err, refSw.Status)
	}
	total := ref.Executions()

	e1 := newDurableEngine(t, jdir, cdir, 2)
	id, err := e1.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	events, ok := e1.Subscribe(t.Context(), id)
	if !ok {
		t.Fatal("subscribe failed")
	}
	// Let at least one point complete (and hit the journal and cache),
	// then pull the plug mid-flight.
	for ev := range events {
		if ev.Type == EventPoint || terminal(ev.Status) {
			break
		}
	}
	// The graceful and crashed paths converge: draining refuses new
	// work, and neither writes a terminal record for the victim.
	e1.StartDrain()
	if got := e1.State(); got != StateDraining {
		t.Fatalf("state %q after StartDrain", got)
	}
	if _, err := e1.Submit(req); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit while draining: %v", err)
	}
	e1.Close()

	e2 := newDurableEngine(t, jdir, cdir, 2)
	sw, err := e2.Wait(t.Context(), id)
	if err != nil {
		t.Fatalf("re-adopted sweep %s not waitable: %v", id, err)
	}
	if sw.Status != StatusDone {
		t.Fatalf("re-adopted sweep: status %v (%s)", sw.Status, sw.Error)
	}
	if !reflect.DeepEqual(normOperators(sw.Results), normOperators(refSw.Results)) {
		t.Fatal("resumed sweep results differ from an uninterrupted run")
	}
	if got := e2.Executions(); got >= total {
		t.Errorf("resume executed %d points, want < %d (pre-crash completions must come from the cache)", got, total)
	}
	for _, j := range e2.Jobs() {
		if j.ID == id && !j.Recovered {
			t.Error("re-adopted job not flagged as recovered")
		}
	}
	e2.Close()

	// Third boot: the job is terminal in the journal now; nothing runs.
	e3 := newDurableEngine(t, jdir, cdir, 2)
	if got, ok := e3.Get(id); !ok || got.Status != StatusDone {
		t.Fatalf("third boot: sweep %s gone or not done", id)
	}
	if n := e3.Executions(); n != 0 {
		t.Fatalf("third boot executed %d points, want 0", n)
	}
}

// TestJournalMCCellsSurviveWithoutCache pins the Monte Carlo journal
// property the sweep path does not have: MC cells are not in the
// content-addressed cache, so the journal is their only durable copy —
// a finished job must replay byte-identical from the journal alone.
func TestJournalMCCellsSurviveWithoutCache(t *testing.T) {
	jdir := t.TempDir()
	e1 := newTestEngine(t, Options{Workers: 4, JournalDir: jdir})
	waitReady(t, e1)
	mj := runMCJob(t, e1, mcTestRequest())
	e1.Close()

	// Fresh memory-only cache: everything must come from the journal.
	e2 := newTestEngine(t, Options{Workers: 4, JournalDir: jdir})
	waitReady(t, e2)
	got, ok := e2.GetMC(mj.ID)
	if !ok || got.Status != StatusDone {
		t.Fatalf("mc job %s gone or not done after restart", mj.ID)
	}
	if !reflect.DeepEqual(got.Points, mj.Points) {
		t.Fatal("mc points reassembled from the journal differ from the live run")
	}
	if n := e2.MCRepsExecuted(); n != 0 {
		t.Fatalf("restart executed %d mc reps, want 0", n)
	}
}

// TestJournalResumeIncompleteMC crashes an engine after the first Monte
// Carlo cell and checks resumption: the journaled cell is re-served
// without recomputation (it counts as a cache hit), only the remaining
// cells execute, and the merged job matches a clean run.
func TestJournalResumeIncompleteMC(t *testing.T) {
	jdir := t.TempDir()
	req := mcTestRequest()
	req.Samples = 1 << 18 // slow enough that 4 cells never finish behind one worker before the kill

	ref := newTestEngine(t, Options{Workers: 4})
	refJob := runMCJob(t, ref, req)
	totalReps := ref.MCRepsExecuted()

	e1 := newTestEngine(t, Options{Workers: 1, JournalDir: jdir})
	waitReady(t, e1)
	id, err := e1.SubmitMC(req)
	if err != nil {
		t.Fatal(err)
	}
	events, ok := e1.SubscribeMC(t.Context(), id)
	if !ok {
		t.Fatal("subscribe failed")
	}
	for ev := range events {
		if ev.Type == EventPoint || terminal(ev.Status) {
			break
		}
	}
	e1.Close()

	e2 := newTestEngine(t, Options{Workers: 2, JournalDir: jdir})
	waitReady(t, e2)
	job, err := e2.WaitMC(t.Context(), id)
	if err != nil {
		t.Fatalf("re-adopted mc job %s not waitable: %v", id, err)
	}
	if job.Status != StatusDone {
		t.Fatalf("re-adopted mc job: status %v (%s)", job.Status, job.Error)
	}
	if !reflect.DeepEqual(job.Points, refJob.Points) {
		t.Fatal("resumed mc points differ from an uninterrupted run")
	}
	if executed := e2.MCRepsExecuted(); executed == 0 || executed >= totalReps {
		t.Errorf("resume executed %d reps, want in (0, %d): journaled cells re-serve, the rest recompute",
			executed, totalReps)
	}
	if job.Progress.CacheHits == 0 {
		t.Error("no cell was served from the journal on resume")
	}
}

// TestRecoveringStateObservable holds replay open on the RecoveryGate
// seam and pins the recovering lifecycle: submissions refuse with
// ErrRecovering, WaitReady blocks, and releasing the gate flips the
// engine ready.
func TestRecoveringStateObservable(t *testing.T) {
	jdir := t.TempDir()
	req := Request{Arches: []string{"RCA"}, Widths: []int{4}, Patterns: 40, Seed: 7}
	e1 := newTestEngine(t, Options{Workers: 2, JournalDir: jdir})
	waitReady(t, e1)
	if _, err := e1.Submit(req); err != nil {
		t.Fatal(err)
	}
	e1.Close()

	release := make(chan struct{})
	var released bool
	defer func() {
		if !released {
			close(release)
		}
	}()
	e2, err := New(Options{Workers: 2, JournalDir: jdir, RecoveryGate: func() { <-release }})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e2.Close)

	if got := e2.State(); got != StateRecovering {
		t.Fatalf("state %q during gated replay, want %q", got, StateRecovering)
	}
	if _, err := e2.Submit(req); !errors.Is(err, ErrRecovering) {
		t.Fatalf("submit during replay: %v, want ErrRecovering", err)
	}
	if _, err := e2.SubmitMC(mcTestRequest()); !errors.Is(err, ErrRecovering) {
		t.Fatalf("mc submit during replay: %v, want ErrRecovering", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	err = e2.WaitReady(ctx)
	cancel()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("WaitReady during gated replay: %v, want deadline", err)
	}

	close(release)
	released = true
	waitReady(t, e2)
	if got := e2.State(); got != StateReady {
		t.Fatalf("state %q after replay, want %q", got, StateReady)
	}
	if _, err := e2.Submit(req); err != nil {
		t.Fatalf("submit after replay: %v", err)
	}
}

// TestLeaseReaping drives reapLeases directly (no wall-clock coupling):
// an unobserved leased job is canceled once its lease lapses, while an
// event stream whose iteration is in progress or the absence of a lease
// keeps a job alive.
func TestLeaseReaping(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 2})
	// Hold both pool workers on a gate so no sweep can finish before the
	// reap, however fast the machine: e.jobs is unbuffered, so every
	// sweep's exec stays queued until its context is canceled. The gate
	// opens before the engine closes.
	gate := make(chan struct{})
	started := make(chan struct{})
	held := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			held <- e.exec(context.Background(), func() {
				started <- struct{}{}
				<-gate
			})
		}()
	}
	defer func() {
		close(gate)
		for i := 0; i < 2; i++ {
			if err := <-held; err != nil {
				t.Errorf("gate job: %v", err)
			}
		}
	}()
	for i := 0; i < 2; i++ {
		<-started
	}
	big := Request{Arches: []string{"RCA"}, Widths: []int{8}, Patterns: 5000, Seed: 3}

	leased := big
	leased.LeaseSec = 1
	leasedID, err := e.Submit(leased)
	if err != nil {
		t.Fatal(err)
	}
	watched := big
	watched.Seed = 4
	watched.LeaseSec = 1
	watchedID, err := e.Submit(watched)
	if err != nil {
		t.Fatal(err)
	}
	events, ok := e.Subscribe(t.Context(), watchedID)
	if !ok {
		t.Fatal("subscribe failed")
	}
	// Pulling one event leaves the iteration in progress until stop.
	next, stopIter := iter.Pull2(events)
	defer stopIter()
	if _, _, ok := next(); !ok {
		t.Fatal("stream ended before its first event")
	}
	free := big
	free.Seed = 5
	freeID, err := e.Submit(free)
	if err != nil {
		t.Fatal(err)
	}

	e.reapLeases(time.Now().Add(2 * time.Second))

	// Bounded: with the workers held, a job the reaper missed would
	// otherwise block here forever.
	ctx, cancel := context.WithTimeout(t.Context(), time.Minute)
	defer cancel()
	sw, err := e.Wait(ctx, leasedID)
	if err != nil {
		t.Fatal(err)
	}
	if sw.Status != StatusCanceled {
		t.Fatalf("unobserved leased job: status %v, want canceled", sw.Status)
	}
	if got, _ := e.Get(watchedID); got.Status == StatusCanceled {
		t.Fatal("leased job with a stream being iterated was reaped")
	}
	if got, _ := e.Get(freeID); got.Status == StatusCanceled {
		t.Fatal("lease-free job was reaped")
	}
	// A fresh observation resets the clock: a touch now outlives a
	// sub-lease horizon.
	if _, ok := e.Get(watchedID); !ok {
		t.Fatal("watched job vanished")
	}
	stopIter()
	e.reapLeases(time.Now().Add(500 * time.Millisecond))
	if got, _ := e.Get(watchedID); got.Status == StatusCanceled {
		t.Fatal("job reaped inside its lease window")
	}
	for _, id := range []string{watchedID, freeID} {
		if err := e.Cancel(id); err != nil && !errors.Is(err, ErrAlreadyDone) {
			t.Fatal(err)
		}
	}
}

// TestPruneRetainsLiveSubscribers: the retention cap may evict a
// finished job while a reader is still replaying its stream. The stream
// holds the job itself, not its ID, so it still reads through to the
// terminal event. White-box: fills the registry with finished sweeps and
// prunes from inside the reader's first event.
func TestPruneRetainsLiveSubscribers(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 1})
	r := e.sweeps
	e.jobsMu.Lock()
	for i := 1; i <= maxRetainedJobs+1; i++ {
		id := fmt.Sprintf("s-%06d", i)
		j := &sweepJob{
			head:   JobInfo{ID: id, Status: StatusDone},
			cancel: func() {},
			done:   make(chan struct{}),
			history: []SweepEvent{
				{Type: EventPoint, SweepID: id, Status: StatusDone},
				{Type: EventPoint, SweepID: id, Status: StatusDone},
				{Type: EventDone, SweepID: id, Status: StatusDone},
			},
		}
		close(j.done)
		r.jobs[id] = j
	}
	e.jobsMu.Unlock()

	events, ok := e.Subscribe(t.Context(), "s-000001")
	if !ok {
		t.Fatal("subscribe: unknown id")
	}
	var got []string
	for ev := range events {
		if len(got) == 0 {
			e.jobsMu.Lock()
			r.pruneLocked()
			_, kept := r.jobs["s-000001"]
			n := len(r.jobs)
			e.jobsMu.Unlock()
			if kept || n != maxRetainedJobs {
				t.Fatalf("prune left the oldest finished sweep retained=%v and %d sweeps, want it evicted and %d",
					kept, n, maxRetainedJobs)
			}
		}
		got = append(got, ev.Type)
	}
	if want := []string{EventPoint, EventPoint, EventDone}; !slices.Equal(got, want) {
		t.Fatalf("stream over an evicted sweep read %v, want %v", got, want)
	}
}

// TestPruneEvictsOldestFinishedWithoutAllocating: every insert into a
// full registry evicts exactly the oldest finished job and allocates
// nothing, and a running job older than every finished one is never
// evicted. White-box: a bare registry (no engine, so no background
// goroutine allocates during the count) fed prebuilt jobs.
func TestPruneEvictsOldestFinishedWithoutAllocating(t *testing.T) {
	r := newRegistry[Request, []OperatorResult, Sweep, SweepEvent](nil, nil)
	const inserts = 100
	jobs := make([]*sweepJob, maxRetainedJobs+inserts)
	for i := range jobs {
		j := &sweepJob{head: JobInfo{ID: fmt.Sprintf("s-%06d", i+1), Status: StatusDone},
			cancel: func() {}, done: make(chan struct{})}
		if i == 0 {
			j.head.Status = StatusRunning
		} else {
			close(j.done)
		}
		jobs[i] = j
	}
	for _, j := range jobs[:maxRetainedJobs] {
		r.insertLocked(j)
	}
	next := maxRetainedJobs
	allocs := testing.AllocsPerRun(inserts-1, func() { // one warm-up call, then inserts-1
		r.insertLocked(jobs[next])
		next++
		if len(r.jobs) != maxRetainedJobs {
			t.Fatalf("registry holds %d jobs after an insert, want %d", len(r.jobs), maxRetainedJobs)
		}
	})
	if allocs != 0 {
		t.Errorf("pruning a full registry allocated %v times per insert, want 0", allocs)
	}
	if _, ok := r.jobs["s-000001"]; !ok {
		t.Fatal("the running job was evicted")
	}
	// Kept: the running job and the newest maxRetainedJobs-1 finished ones.
	for i, j := range jobs[1:] {
		_, kept := r.jobs[j.head.ID]
		if want := i+1 > inserts; kept != want {
			t.Fatalf("%s retained=%v, want %v", j.head.ID, kept, want)
		}
	}
}

// TestCancelErrorCodes pins the cancel error surface both registries
// share: unknown IDs and already-terminal jobs fail distinctly.
func TestCancelErrorCodes(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 2})
	if err := e.Cancel("s-404404"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("cancel unknown sweep: %v, want ErrUnknownJob", err)
	}
	if err := e.CancelMC("mc-404404"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("cancel unknown mc job: %v, want ErrUnknownJob", err)
	}

	id, err := e.Submit(Request{Arches: []string{"RCA"}, Widths: []int{4}, Patterns: 40, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if sw, err := e.Wait(t.Context(), id); err != nil || sw.Status != StatusDone {
		t.Fatalf("sweep: %v status=%v", err, sw.Status)
	}
	if err := e.Cancel(id); !errors.Is(err, ErrAlreadyDone) {
		t.Fatalf("cancel finished sweep: %v, want ErrAlreadyDone", err)
	}

	mj := runMCJob(t, e, mcTestRequest())
	if err := e.CancelMC(mj.ID); !errors.Is(err, ErrAlreadyDone) {
		t.Fatalf("cancel finished mc job: %v, want ErrAlreadyDone", err)
	}
}

// failingJournalFaults fails every journal append outright — the
// worst-case write path.
type failingJournalFaults struct{}

func (failingJournalFaults) WriteFault(string) (int, bool) { return 0, true }
func (failingJournalFaults) RenameFault(string) bool       { return false }
func (failingJournalFaults) ReadFault(string) bool         { return false }

// TestJournalFaultsDegradeToNonDurable pins the failure policy: a dead
// journal never fails jobs, it silently downgrades the engine to
// non-durable serving and counts the losses.
func TestJournalFaultsDegradeToNonDurable(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 2, JournalDir: t.TempDir(), JournalFaults: failingJournalFaults{}})
	waitReady(t, e)
	id, err := e.Submit(Request{Arches: []string{"RCA"}, Widths: []int{4}, Patterns: 40, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if sw, err := e.Wait(t.Context(), id); err != nil || sw.Status != StatusDone {
		t.Fatalf("sweep under journal faults: %v status=%v", err, sw.Status)
	}
	if e.JournalErrors() == 0 {
		t.Fatal("faulted journal writes were not counted")
	}
}

// TestJournalFixtureReplay is the upgrade-safety check: it replays a
// journal directory written by an earlier engine build and never
// regenerated. testdata/journal holds a done sweep (s-000001), a
// canceled sweep (s-000002), a done Monte Carlo job (mc-000001), an
// unfinished streaming sweep with per-point records (s-000003) and an
// unfinished Monte Carlo job with one journaled cell (mc-000002).
// Replay compacts in place, so the test works on a copy.
func TestJournalFixtureReplay(t *testing.T) {
	jdir := t.TempDir()
	src := filepath.Join("testdata", "journal")
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		data, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(jdir, ent.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	e := newDurableEngine(t, jdir, t.TempDir(), 2)
	fresh := newTestEngine(t, Options{Workers: 2})

	freshSweep := func(req Request) []OperatorResult {
		t.Helper()
		id, err := fresh.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		sw, err := fresh.Wait(t.Context(), id)
		if err != nil || sw.Status != StatusDone {
			t.Fatalf("fresh sweep: %v status=%v", err, sw.Status)
		}
		return normOperators(sw.Results)
	}

	done, ok := e.Get("s-000001")
	if !ok || done.Status != StatusDone {
		t.Fatalf("s-000001: ok=%v status=%v, want done", ok, done.Status)
	}
	if !reflect.DeepEqual(normOperators(done.Results), freshSweep(done.Request)) {
		t.Error("s-000001: replayed results differ from a fresh run")
	}
	if sw, ok := e.Get("s-000002"); !ok || sw.Status != StatusCanceled || sw.Results != nil {
		t.Errorf("s-000002: ok=%v status=%v results=%d, want canceled without results", ok, sw.Status, len(sw.Results))
	}
	mcDone, ok := e.GetMC("mc-000001")
	if !ok || mcDone.Status != StatusDone {
		t.Fatalf("mc-000001: ok=%v status=%v, want done", ok, mcDone.Status)
	}
	if !reflect.DeepEqual(mcDone.Points, runMCJob(t, fresh, mcDone.Request).Points) {
		t.Error("mc-000001: replayed points differ from a fresh run")
	}

	resumed, err := e.Wait(t.Context(), "s-000003")
	if err != nil || resumed.Status != StatusDone {
		t.Fatalf("s-000003: %v status=%v (%s), want resumed to done", err, resumed.Status, resumed.Error)
	}
	if !reflect.DeepEqual(normOperators(resumed.Results), freshSweep(resumed.Request)) {
		t.Error("s-000003: resumed results differ from a fresh run")
	}
	mcResumed, err := e.WaitMC(t.Context(), "mc-000002")
	if err != nil || mcResumed.Status != StatusDone {
		t.Fatalf("mc-000002: %v status=%v (%s), want resumed to done", err, mcResumed.Status, mcResumed.Error)
	}
	if !reflect.DeepEqual(mcResumed.Points, runMCJob(t, fresh, mcResumed.Request).Points) {
		t.Error("mc-000002: resumed points differ from a fresh run")
	}
	if mcResumed.Progress.CacheHits != 1 {
		t.Errorf("mc-000002: %d cells served from the journal, want 1", mcResumed.Progress.CacheHits)
	}

	type entry struct {
		id, kind  string
		status    Status
		recovered bool
	}
	var got []entry
	for _, j := range e.Jobs() {
		got = append(got, entry{j.ID, j.Kind, j.Status, j.Recovered})
	}
	want := []entry{
		{"s-000001", JobKindSweep, StatusDone, true},
		{"s-000002", JobKindSweep, StatusCanceled, true},
		{"s-000003", JobKindSweep, StatusDone, true},
		{"mc-000001", JobKindMC, StatusDone, true},
		{"mc-000002", JobKindMC, StatusDone, true},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Jobs() = %+v, want %+v", got, want)
	}

	if id, err := e.Submit(done.Request); err != nil || id != "s-000004" {
		t.Errorf("next sweep id %q (%v), want s-000004", id, err)
	}
	if id, err := e.SubmitMC(mcDone.Request); err != nil || id != "mc-000003" {
		t.Errorf("next mc id %q (%v), want mc-000003", id, err)
	}
	if n := e.JournalErrors(); n != 0 {
		t.Errorf("replay counted %d journal errors, want 0", n)
	}
}
