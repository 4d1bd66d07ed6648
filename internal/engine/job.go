package engine

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// jobKind is what one job kind supplies to its registry. R is its
// request type, O the output a done job carries, S the public snapshot
// and E the event wire type.
type jobKind[R, O, S, E any] struct {
	// name is the JobInfo.Kind and the journal record prefix; prefix
	// starts every ID; noun names one job in error messages.
	name, prefix, noun string
	// normalize validates a request and fills its defaults; leaseSec
	// reads its coordinator lease.
	normalize func(*R) error
	leaseSec  func(*R) int
	// run executes a job — reporting through running, point and fanOut —
	// and returns a done job's output or the first error.
	run func(ctx context.Context, j *job[R, O, S, E]) (O, error)
	// snapshot and event build the wire types from the shared state;
	// pointEvents lists a done job's point events, for the history
	// synthesized on replay.
	snapshot    func(h *JobInfo, req R, out O) S
	event       func(h *JobInfo, typ string) E
	pointEvents func(h *JobInfo, out O) []E
	// walReq points at the journal record field carrying the request,
	// walOut (when set) at the end record field carrying a done job's
	// output. A kind without walOut journals its output per cell and
	// fromCells reassembles it.
	walReq    func(*walRec) **R
	walOut    func(*walRec) *O
	fromCells func(cells []*MCPoint) O
}

// job is the engine-internal mutable record of one job. mu serializes
// state changes and event publication, so every stream sees events in
// state order.
type job[R, O, S, E any] struct {
	kind   *jobKind[R, O, S, E]
	req    R // normalized; immutable after creation
	cancel context.CancelFunc
	done   chan struct{}

	mu   sync.Mutex
	head JobInfo
	out  O
	// history is the job's append-only event log, the one store every
	// stream reads (see subscribe). wake, when non-nil, is closed by the
	// next publish to wake the streams waiting past the end of history;
	// readers counts the streams being iterated.
	history []E
	wake    chan struct{}
	readers atomic.Int32
	// lastTouch is the lease clock: the last time anyone observed the
	// job (see reap). cells holds completed cell payloads by cell index
	// for a kind whose work the result cache does not hold (Monte Carlo):
	// journaled as they complete, prefilled on re-adoption so the run
	// serves them without recomputation, and carried into compaction
	// snapshots.
	lastTouch time.Time
	cells     map[int]*MCPoint
}

// publish applies a state change and emits the resulting event — a
// progress event, or the terminal event once the status is final,
// adjusted by decorate when set — in the same critical section.
func (j *job[R, O, S, E]) publish(f func(h *JobInfo), decorate func(*E)) {
	j.mu.Lock()
	defer j.mu.Unlock()
	f(&j.head)
	typ := EventProgress
	if terminal(j.head.Status) {
		typ = terminalEventType(j.head.Status)
	}
	ev := j.kind.event(&j.head, typ)
	if decorate != nil {
		decorate(&ev)
	}
	j.history = append(j.history, ev)
	if j.wake != nil {
		close(j.wake)
		j.wake = nil
	}
}

// running publishes the pending→running transition with the planned
// point count.
func (j *job[R, O, S, E]) running(total int) {
	j.publish(func(h *JobInfo) {
		h.Status = StatusRunning
		h.Started = time.Now()
		h.Progress.TotalPoints = total
	}, nil)
}

// point counts one completed point — served without execution when
// cached — and publishes its point event, which decorate fills in: one
// funnel, so events and counters look the same however a point was
// obtained (simulated, cache- or journal-served, streamed from a shard).
func (j *job[R, O, S, E]) point(cached bool, decorate func(*E)) {
	j.publish(func(h *JobInfo) {
		h.Progress.Completed++
		if cached {
			h.Progress.CacheHits++
		} else {
			h.Progress.Executed++
		}
	}, decorate)
}

// fanOut runs the tasks concurrently and returns the first error. The
// first failure cancels the job, so the remaining tasks fail fast
// instead of burning the pool for a job that will be reported failed
// anyway.
func (j *job[R, O, S, E]) fanOut(tasks []func() error) error {
	var wg sync.WaitGroup
	var once sync.Once
	var first error
	for _, task := range tasks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := task(); err != nil {
				once.Do(func() {
					first = err
					j.cancel()
				})
			}
		}()
	}
	wg.Wait()
	return first
}

// snapshot returns the public snapshot; the kind copies the output
// slice, so callers cannot race the runner.
func (j *job[R, O, S, E]) snapshot() S {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.kind.snapshot(&j.head, j.req, j.out)
}

func (j *job[R, O, S, E]) touch() {
	j.mu.Lock()
	j.lastTouch = time.Now()
	j.mu.Unlock()
}

// registry holds the jobs of one kind. The engine's jobsMu guards every
// registry's map and ID sequence, together with the closed flag they
// share.
type registry[R, O, S, E any] struct {
	e    *Engine
	kind *jobKind[R, O, S, E]
	jobs map[string]*job[R, O, S, E]
	seq  uint64
}

func newRegistry[R, O, S, E any](e *Engine, kind *jobKind[R, O, S, E]) *registry[R, O, S, E] {
	return &registry[R, O, S, E]{e: e, kind: kind, jobs: make(map[string]*job[R, O, S, E])}
}

// maxRetainedJobs bounds each registry: a long-running daemon would
// otherwise accumulate every finished job's results forever.
const maxRetainedJobs = 256

// submit, get, cancelJob, wait and subscribe implement the public
// Engine methods of every kind (Submit/SubmitMC, Get/GetMC, …), whose
// docs give their contracts.
func (r *registry[R, O, S, E]) submit(req R) (string, error) {
	if err := r.kind.normalize(&req); err != nil {
		return "", err
	}
	switch r.e.life.Load() {
	case lifeRecovering:
		return "", ErrRecovering
	case lifeDraining:
		return "", ErrDraining
	}
	return r.start(&job[R, O, S, E]{kind: r.kind, req: req, done: make(chan struct{})})
}

// start registers a job and runs it, unless Close began. A new job (no
// ID yet) gets the next ID under the registry lock and its acceptance
// journaled before it runs: once the caller holds the ID, a crash must
// not lose the job. Re-adopted jobs keep their ID and journal entry.
func (r *registry[R, O, S, E]) start(j *job[R, O, S, E]) (string, error) {
	ctx, cancel := context.WithCancel(r.e.ctx)
	j.cancel, j.lastTouch = cancel, time.Now()
	fresh := j.head.ID == ""
	r.e.jobsMu.Lock()
	if r.e.closed {
		r.e.jobsMu.Unlock()
		cancel()
		return "", ErrClosed
	}
	if fresh {
		r.seq++
		j.head = JobInfo{ID: fmt.Sprintf("%s%06d", r.kind.prefix, r.seq), Kind: r.kind.name,
			Status: StatusPending, Created: time.Now()}
	}
	r.e.jobWg.Add(1)
	r.insertLocked(j)
	r.e.jobsMu.Unlock()
	if fresh && r.e.journal != nil {
		r.e.journalAppend(r.acceptRecord(j), true)
	}
	go func() {
		defer r.e.jobWg.Done()
		defer close(j.done)
		defer j.cancel()
		out, err := r.kind.run(ctx, j)
		r.finish(j, out, err)
	}()
	return j.head.ID, nil
}

// insertLocked adds a job under the retention cap. Callers hold jobsMu.
func (r *registry[R, O, S, E]) insertLocked(j *job[R, O, S, E]) {
	r.jobs[j.head.ID] = j
	r.pruneLocked()
}

// pruneLocked evicts the oldest finished jobs beyond the retention cap.
// Running jobs are never evicted. An evicted job's open streams read on:
// a stream holds its job, not the job's ID. Callers hold jobsMu.
func (r *registry[R, O, S, E]) pruneLocked() {
	if len(r.jobs) <= maxRetainedJobs {
		return
	}
	ids := make([]string, 0, len(r.jobs))
	for id := range r.jobs {
		ids = append(ids, id)
	}
	sort.Strings(ids) // zero-padded sequence numbers: lexicographic = chronological
	for _, id := range ids {
		if len(r.jobs) <= maxRetainedJobs {
			return
		}
		select {
		case <-r.jobs[id].done:
			delete(r.jobs, id)
		default:
		}
	}
}

// finish records a job's terminal state and publishes its terminal
// event. The status derives from the first error itself, not from the
// job's context: a failure cancels the context to stop the remaining
// work fast, and must still be reported as failed. Engine shutdown
// counts as cancellation — the job was stopped, it did not break.
func (r *registry[R, O, S, E]) finish(j *job[R, O, S, E], out O, err error) {
	j.publish(func(h *JobInfo) {
		h.Finished = time.Now()
		switch {
		case err == nil:
			h.Status = StatusDone
			j.out = out
		case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded), errors.Is(err, ErrClosed):
			h.Status, h.Error = StatusCanceled, err.Error()
		default:
			h.Status, h.Error = StatusFailed, err.Error()
		}
	}, nil)
	if r.e.journal == nil {
		return
	}
	if rec, ok := r.endRecord(j, r.e.ctx.Err() != nil); ok {
		r.e.journalAppend(rec, true)
		r.e.maybeCompact()
	}
}

func (r *registry[R, O, S, E]) lookup(id string) (*job[R, O, S, E], bool) {
	r.e.jobsMu.Lock()
	defer r.e.jobsMu.Unlock()
	j, ok := r.jobs[id]
	return j, ok
}

// all returns the registered jobs in ID order.
func (r *registry[R, O, S, E]) all() []*job[R, O, S, E] {
	r.e.jobsMu.Lock()
	out := make([]*job[R, O, S, E], 0, len(r.jobs))
	for _, j := range r.jobs {
		out = append(out, j)
	}
	r.e.jobsMu.Unlock()
	sort.Slice(out, func(a, b int) bool { return out[a].head.ID < out[b].head.ID })
	return out
}

func (r *registry[R, O, S, E]) get(id string) (S, bool) {
	j, ok := r.lookup(id)
	if !ok {
		var zero S
		return zero, false
	}
	j.touch()
	return j.snapshot(), true
}

func (r *registry[R, O, S, E]) list() []S {
	jobs := r.all()
	out := make([]S, len(jobs))
	for i, j := range jobs {
		out[i] = j.snapshot()
	}
	return out
}

func (r *registry[R, O, S, E]) cancelJob(id string) error {
	j, ok := r.lookup(id)
	if !ok {
		return fmt.Errorf("%w: %s %q", ErrUnknownJob, r.kind.noun, id)
	}
	j.mu.Lock()
	finished := terminal(j.head.Status)
	j.mu.Unlock()
	if finished {
		return fmt.Errorf("%w: %s %q", ErrAlreadyDone, r.kind.noun, id)
	}
	j.cancel()
	return nil
}

func (r *registry[R, O, S, E]) wait(ctx context.Context, id string) (S, error) {
	j, ok := r.lookup(id)
	if !ok {
		var zero S
		return zero, fmt.Errorf("engine: unknown %s %q", r.kind.noun, id)
	}
	j.touch()
	select {
	case <-j.done:
		return j.snapshot(), nil
	case <-ctx.Done():
		return j.snapshot(), ctx.Err()
	}
}

// subscribe returns the job's event stream: a cursor over its history
// from the first event, which then waits for each new event and ends
// after the terminal event, or once ctx is done. A job that has
// published nothing yet (it is still planning) opens with a snapshot
// built now, so every stream shows the current state at once. Each
// event comes with whether the stream has caught up with the job after
// it: true on the last event published so far of a job still going,
// after which the stream waits for the next publish. A reader that
// batches its writes flushes there. While it is being iterated, a stream
// counts as observing the job for its coordinator lease (see reap).
func (r *registry[R, O, S, E]) subscribe(ctx context.Context, id string) (iter.Seq2[E, bool], bool) {
	j, ok := r.lookup(id)
	if !ok {
		return nil, false
	}
	j.touch()
	j.mu.Lock()
	var opening []E
	if len(j.history) == 0 {
		opening = []E{j.kind.event(&j.head, EventProgress)}
	}
	j.mu.Unlock()
	return func(yield func(E, bool) bool) {
		j.readers.Add(1)
		defer j.readers.Add(-1)
		emit := func(evs []E, caughtUp bool) bool {
			for i, ev := range evs {
				if !yield(ev, caughtUp && i == len(evs)-1) {
					return false
				}
			}
			return true
		}
		// j.mu is never held across yield: a yield can block on a
		// network write. Published events never change, so the slice
		// taken under the lock is safe to read without it, and wake,
		// taken with it, is closed by the first publish after it.
		first := opening
		for next := 0; ; {
			j.mu.Lock()
			evs, finished := j.history[next:], terminal(j.head.Status)
			if j.wake == nil && !finished {
				j.wake = make(chan struct{})
			}
			wake := j.wake
			j.mu.Unlock()
			if !emit(first, !finished && len(evs) == 0) || !emit(evs, !finished) {
				return
			}
			if finished {
				return
			}
			first = nil
			next += len(evs)
			select {
			case <-wake:
			case <-ctx.Done():
				return
			}
		}
	}, true
}

// jobRegistry is the kind-independent face of a registry, for the engine
// code that walks every kind: listing, lease reaping, compaction and
// replay.
type jobRegistry interface {
	kindName() string
	infos() []JobInfo
	reap(now time.Time) []context.CancelFunc
	records(shuttingDown bool) []walRec
	restore(wal map[string]*walJob)
}

func (r *registry[R, O, S, E]) kindName() string { return r.kind.name }

func (r *registry[R, O, S, E]) infos() []JobInfo {
	jobs := r.all()
	out := make([]JobInfo, len(jobs))
	for i, j := range jobs {
		j.mu.Lock()
		out[i] = j.head
		j.mu.Unlock()
	}
	return out
}

// reap returns the cancel functions of leased jobs whose coordinator
// stopped watching: a job submitted with a lease must be observed — a
// stream being iterated, or a get/wait touch — at least once per lease
// window.
func (r *registry[R, O, S, E]) reap(now time.Time) []context.CancelFunc {
	var cancels []context.CancelFunc
	for _, j := range r.all() {
		lease := time.Duration(r.kind.leaseSec(&j.req)) * time.Second
		j.mu.Lock()
		if lease > 0 && !terminal(j.head.Status) && j.readers.Load() == 0 && now.Sub(j.lastTouch) > lease {
			cancels = append(cancels, j.cancel)
		}
		j.mu.Unlock()
	}
	return cancels
}

// --- Journal records ---

func (r *registry[R, O, S, E]) acceptRecord(j *job[R, O, S, E]) walRec {
	rec := walRec{T: r.kind.name + recAccept, ID: j.head.ID, Created: j.head.Created}
	req := j.req
	*r.kind.walReq(&rec) = &req
	return rec
}

// endRecord builds a job's end record. A job still running has none, and
// neither has one canceled by engine shutdown: its journal entry stays
// unfinished, so the next boot re-adopts it (the drain/crash
// unification).
func (r *registry[R, O, S, E]) endRecord(j *job[R, O, S, E], shuttingDown bool) (walRec, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	h := j.head
	if !terminal(h.Status) || (h.Status == StatusCanceled && shuttingDown) {
		return walRec{}, false
	}
	rec := walRec{T: r.kind.name + recEnd, ID: h.ID, Status: h.Status, Error: h.Error,
		Started: h.Started, Finished: h.Finished, Progress: &h.Progress}
	if h.Status == StatusDone && r.kind.walOut != nil {
		*r.kind.walOut(&rec) = j.out
	}
	return rec, true
}

// journalCell records a completed cell payload, flushed: the journal is
// the only restart-surviving copy of it, and cells are few and
// expensive — a group-commit fsync per cell is noise next to computing
// one.
func (r *registry[R, O, S, E]) journalCell(j *job[R, O, S, E], ci int, pt *MCPoint) {
	if r.e.journal == nil {
		return
	}
	cp := *pt
	j.mu.Lock()
	if j.cells == nil {
		j.cells = make(map[int]*MCPoint)
	}
	j.cells[ci] = &cp
	j.mu.Unlock()
	r.e.journalAppend(walRec{T: r.kind.name + recPoint, ID: j.head.ID, CI: ci, Point: pt}, true)
}

// records serializes the registry for a compaction snapshot: every job's
// accept record, its cells, and its end record when it has one.
func (r *registry[R, O, S, E]) records(shuttingDown bool) []walRec {
	var recs []walRec
	for _, j := range r.all() {
		recs = append(recs, r.acceptRecord(j))
		j.mu.Lock()
		cis, cells := sortedCells(j.cells)
		j.mu.Unlock()
		for i, ci := range cis {
			p := *cells[i]
			recs = append(recs, walRec{T: r.kind.name + recPoint, ID: j.head.ID, CI: ci, Point: &p})
		}
		if rec, ok := r.endRecord(j, shuttingDown); ok {
			recs = append(recs, rec)
		}
	}
	return recs
}

// sortedCells lists a cell map in cell order.
func sortedCells(m map[int]*MCPoint) ([]int, []*MCPoint) {
	cis := make([]int, 0, len(m))
	for ci := range m {
		cis = append(cis, ci)
	}
	sort.Ints(cis)
	cells := make([]*MCPoint, len(cis))
	for i, ci := range cis {
		cells[i] = m[ci]
	}
	return cis, cells
}

// restore re-inserts this kind's replayed jobs in ID order, after moving
// the ID sequence past every one of them so new jobs never collide with
// replayed ones. Finished jobs come back whole, with a synthesized event
// history; unfinished ones are re-adopted under their original ID and
// resumed. Both honor closed, so nothing resumes into a dying engine —
// the journal still holds the jobs for the next boot.
func (r *registry[R, O, S, E]) restore(wal map[string]*walJob) {
	ids := make([]string, 0, len(wal))
	for id, w := range wal {
		if *r.kind.walReq(w.accept) != nil {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	r.e.jobsMu.Lock()
	for _, id := range ids {
		var n uint64
		if _, err := fmt.Sscanf(id, r.kind.prefix+"%06d", &n); err == nil && n > r.seq {
			r.seq = n
		}
	}
	r.e.jobsMu.Unlock()
	for _, id := range ids {
		w := wal[id]
		j := &job[R, O, S, E]{
			kind:  r.kind,
			req:   **r.kind.walReq(w.accept),
			done:  make(chan struct{}),
			head:  JobInfo{ID: id, Kind: r.kind.name, Status: StatusPending, Created: w.accept.Created, Recovered: true},
			cells: w.cells,
		}
		if w.end == nil {
			_, _ = r.start(j) // refused only once Close began; the journal keeps the job
			continue
		}
		j.head.Status, j.head.Error = w.end.Status, w.end.Error
		j.head.Started, j.head.Finished = w.end.Started, w.end.Finished
		if w.end.Progress != nil {
			j.head.Progress = *w.end.Progress
		}
		switch {
		case j.head.Status != StatusDone:
		case r.kind.walOut != nil:
			j.out = *r.kind.walOut(w.end)
		case len(w.cells) > 0:
			_, cells := sortedCells(w.cells)
			j.out = r.kind.fromCells(cells)
		}
		// The synthesized history keeps the subscribe invariant — every
		// point event, then the terminal event — though its point events
		// all carry the final counters: the original interleaving is
		// gone, the per-point payloads are not.
		j.history = append(r.kind.pointEvents(&j.head, j.out), r.kind.event(&j.head, terminalEventType(j.head.Status)))
		j.cancel = func() {}
		close(j.done)
		r.e.jobsMu.Lock()
		if !r.e.closed {
			r.insertLocked(j)
		}
		r.e.jobsMu.Unlock()
	}
}
