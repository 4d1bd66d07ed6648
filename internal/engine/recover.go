package engine

// Durable job fabric: the engine's write-ahead journal and its replay.
//
// When Options.JournalDir is set, every job's lifecycle is recorded as
// checksummed records in an internal/engine/journal log: the accepted
// (normalized) request, each completed Monte Carlo cell with its full
// payload — MC reps are cached nowhere else — and the terminal state
// with its results. On startup the engine replays the journal, re-inserts
// finished jobs (listing, results and event replay survive restarts) and
// re-adopts unfinished ones under their original IDs: a re-adopted sweep
// re-plans deterministically and its already-completed points are
// satisfied from the content-addressed result cache, so only the
// remainder re-executes and the final results are byte-identical to an
// uninterrupted run; a re-adopted Monte Carlo job skips the cells whose
// payloads the journal carried. The records themselves are written by
// the job kernel (job.go), once for every kind.
//
// Two shutdown paths share one mechanism. A crash (SIGKILL, power
// loss) simply never writes terminal records; a graceful drain
// (StartDrain + Close) stops accepting work and cancels what is
// running, but the cancellation is recognized as shutdown-caused and
// its terminal record suppressed — either way the journal shows an
// accepted, unfinished job that the next boot resumes. Only a user's
// explicit Cancel persists the canceled state.
//
// Lock discipline: journal appends are never made while holding
// jobsMu or a job's mu (records are built first), and compaction
// serializes against appenders with journalMu so a snapshot can never
// miss a racing record. Journal write errors degrade the engine to
// non-durable serving (counted by JournalErrors) — they never fail a
// request.

import (
	"context"
	"encoding/json"
	"strings"
	"time"

	"repro/internal/engine/journal"
)

// Engine lifecycle states reported by State.
const (
	// StateReady means the engine accepts submissions.
	StateReady = "ready"
	// StateRecovering means journal replay is still rebuilding the job
	// registries; submissions and job lookups are refused (the daemon
	// answers 503 + Retry-After) until replay finishes.
	StateRecovering = "recovering"
	// StateDraining means StartDrain was called: lookups keep working,
	// new submissions are refused.
	StateDraining = "draining"
)

const (
	lifeReady int32 = iota
	lifeRecovering
	lifeDraining
)

// State returns the engine lifecycle state: StateReady, StateRecovering
// or StateDraining.
func (e *Engine) State() string {
	switch e.life.Load() {
	case lifeRecovering:
		return StateRecovering
	case lifeDraining:
		return StateDraining
	default:
		return StateReady
	}
}

// StartDrain moves the engine to the draining state: Submit and
// SubmitMC refuse new work with ErrDraining while lookups, event
// streams and running jobs continue. Combined with a journal, drain
// followed by Close is the graceful half of the restart story: running
// jobs are canceled without a terminal journal record, so the next boot
// re-adopts and finishes them.
func (e *Engine) StartDrain() { e.life.Store(lifeDraining) }

// WaitReady blocks until journal replay (if any) has finished and the
// engine accepts work, or a context dies.
func (e *Engine) WaitReady(ctx context.Context) error {
	select {
	case <-e.readyCh:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-e.ctx.Done():
		return ErrClosed
	}
}

// JournalErrors returns how many journal writes failed over the
// engine's lifetime — each one a record the engine kept serving
// without durability.
func (e *Engine) JournalErrors() uint64 { return e.journalErrs.Load() }

// MCRepsExecuted returns how many Monte Carlo reps actually executed on
// this engine. The recovery tests assert it stays flat when a restarted
// job's cells are all satisfied from the journal.
func (e *Engine) MCRepsExecuted() uint64 { return e.mcRepsExecuted.Load() }

// Job kinds in JobInfo.
const (
	JobKindSweep = "sweep"
	JobKindMC    = "mc"
)

// JobInfo is one entry of the unified job listing (the daemon's
// GET /v1/jobs): both registries merged, with enough lifecycle state to
// audit what survived a restart.
type JobInfo struct {
	ID       string    `json:"id"`
	Kind     string    `json:"kind"`
	Status   Status    `json:"status"`
	Error    string    `json:"error,omitempty"`
	Created  time.Time `json:"created"`
	Started  time.Time `json:"started,omitzero"`
	Finished time.Time `json:"finished,omitzero"`
	Progress Progress  `json:"progress"`
	// Recovered marks jobs re-inserted or re-adopted from the journal by
	// this process (not carried across further restarts).
	Recovered bool `json:"recovered,omitempty"`
}

// Jobs returns every registered job of every kind, sweeps first, each
// kind oldest-first.
func (e *Engine) Jobs() []JobInfo {
	var out []JobInfo
	for _, r := range e.registries() {
		out = append(out, r.infos()...)
	}
	return out
}

// --- Journal records ---

// Journal record types are "<kind>" + one of these suffixes (see
// jobKind.name), e.g. "sweep.accept" or "mc.point". Replay is last-wins
// idempotent: duplicate accepts are ignored, duplicate point records
// overwrite with equal payloads, duplicate terminal records keep the
// latest — which is what makes the compaction crash window (snapshot and
// pre-compaction segments both on disk) harmless.
const (
	recAccept = ".accept"
	recPoint  = ".point"
	recEnd    = ".end"
)

// walRec is the one wire shape all journal records share.
type walRec struct {
	T        string    `json:"t"`
	ID       string    `json:"id"`
	Created  time.Time `json:"created,omitzero"`
	Started  time.Time `json:"started,omitzero"`
	Finished time.Time `json:"finished,omitzero"`
	// Req / MCReq carry the accepted (normalized) request of accept
	// records.
	Req   *Request   `json:"req,omitempty"`
	MCReq *MCRequest `json:"mcReq,omitempty"`
	// CI / Point carry a completed Monte Carlo cell: its index in the
	// job's deterministic cell order and the full payload (MC reps are
	// not cached, so the journal is their only restart-surviving copy).
	CI    int      `json:"ci,omitempty"`
	Point *MCPoint `json:"point,omitempty"`
	// Terminal state of end records; Results only on done sweeps.
	Status   Status           `json:"status,omitempty"`
	Error    string           `json:"error,omitempty"`
	Progress *Progress        `json:"progress,omitempty"`
	Results  []OperatorResult `json:"results,omitempty"`
}

// journalAppend marshals and appends one record. flush requests a
// group commit: the record is ordered on the OS immediately (so a
// process crash or kill loses nothing once Append returns) and the
// background flusher fsyncs the segment moments later, off the serving
// path — what a power cut can still lose is a trailing window of
// records, each of which replay treats as a job never accepted or never
// finished, states every client of a journaled engine must already
// handle. Callers must not hold jobsMu or any job's mu. Errors degrade
// to non-durable serving.
func (e *Engine) journalAppend(rec walRec, flush bool) {
	if e.journal == nil {
		return
	}
	data, err := json.Marshal(rec)
	if err != nil {
		e.journalErrs.Add(1)
		return
	}
	e.journalMu.RLock()
	err = e.journal.Append(data, false)
	e.journalMu.RUnlock()
	if err != nil {
		e.journalErrs.Add(1)
		return
	}
	if flush {
		select {
		case e.journalFlushC <- struct{}{}:
		default: // a flush is already pending; it covers this record too
		}
	}
}

// journalFlushDelay is how long the flusher lets flush requests pile up
// before the group-commit fsync, in the spirit of an appendfsync-everysec
// AOF policy. Every record is write()n inline — a process crash loses
// nothing — so the window bounds only power-loss exposure. It is sized
// generously because an fsync stalls concurrent appends to the same
// inode far longer than its own latency suggests; at this cadence the
// journal is invisible on the warm serving path.
const journalFlushDelay = 250 * time.Millisecond

// journalFlusher is the group-commit loop: it coalesces flush requests
// from journalAppend into one fsync per window, so a burst of accepts
// and terminals pays one disk sync instead of one apiece and the
// serving path never blocks on the disk. Engine.Close syncs once more
// through Journal.Close, so nothing stays unflushed past shutdown.
func (e *Engine) journalFlusher() {
	defer e.wg.Done()
	timer := time.NewTimer(journalFlushDelay)
	defer timer.Stop()
	for {
		select {
		case <-e.journalFlushC:
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
			timer.Reset(journalFlushDelay)
			select {
			case <-timer.C:
			case <-e.ctx.Done():
				return
			}
			e.journalMu.RLock()
			err := e.journal.Sync()
			e.journalMu.RUnlock()
			if err != nil {
				e.journalErrs.Add(1)
			}
		case <-e.ctx.Done():
			return
		}
	}
}

// maxJournalSegments is the compaction trigger: once a terminal record
// lands with more live segments than this, the registries are
// snapshotted into a fresh segment and the old ones retired.
const maxJournalSegments = 4

func (e *Engine) maybeCompact() {
	if e.journal == nil || e.ctx.Err() != nil {
		return
	}
	if e.journal.Segments() > maxJournalSegments {
		e.compactJournal()
	}
}

// compactJournal rewrites the journal as a snapshot of the live
// registries. journalMu (writer side) excludes concurrent appends, so
// the snapshot cannot miss a racing record; the registry locks are
// taken inside it, which is safe because appenders never hold them.
func (e *Engine) compactJournal() {
	e.journalMu.Lock()
	defer e.journalMu.Unlock()
	snap, err := e.snapshotRecords()
	if err != nil {
		e.journalErrs.Add(1)
		return
	}
	if err := e.journal.Compact(snap); err != nil {
		e.journalErrs.Add(1)
	}
}

// snapshotRecords serializes every registry as replayable records.
// Unfinished sweeps keep only their accept record — their completed
// points live in the content-addressed cache. Unfinished Monte Carlo
// jobs keep their completed cell payloads: those exist nowhere else.
func (e *Engine) snapshotRecords() ([][]byte, error) {
	shuttingDown := e.ctx.Err() != nil
	var out [][]byte
	for _, r := range e.registries() {
		for _, rec := range r.records(shuttingDown) {
			data, err := json.Marshal(rec)
			if err != nil {
				return nil, err
			}
			out = append(out, data)
		}
	}
	return out, nil
}

// --- Replay ---

// walJob accumulates one job's replayed records.
type walJob struct {
	accept, end *walRec
	cells       map[int]*MCPoint
}

// runRecovery replays the journal payloads into the registries, then
// flips the engine to ready. Runs once, registered on jobWg at New time;
// Close interrupts it cleanly.
func (e *Engine) runRecovery(payloads [][]byte, gate func()) {
	defer e.jobWg.Done()
	defer close(e.readyCh)
	defer e.life.CompareAndSwap(lifeRecovering, lifeReady)

	wal := make(map[string]map[string]*walJob) // kind → ID → records
	for _, r := range e.registries() {
		wal[r.kindName()] = make(map[string]*walJob)
	}
	for _, payload := range payloads {
		var rec walRec
		if err := json.Unmarshal(payload, &rec); err != nil {
			// A record that framed and checksummed correctly but does not
			// parse is from a different schema era; skip it rather than
			// refuse to boot.
			e.journalErrs.Add(1)
			continue
		}
		kind, action, _ := strings.Cut(rec.T, ".")
		jobs, ok := wal[kind]
		if !ok {
			e.journalErrs.Add(1)
			continue
		}
		w := jobs[rec.ID]
		switch "." + action {
		case recAccept:
			if w == nil {
				jobs[rec.ID] = &walJob{accept: &rec, cells: make(map[int]*MCPoint)}
			}
		case recPoint:
			// Older journals also hold sweep point records, which carry
			// only a cache key: a resumed sweep re-plans and finds those
			// points in the cache without them, so they restore nothing.
			if w != nil && rec.Point != nil {
				w.cells[rec.CI] = rec.Point
			}
		case recEnd:
			if w != nil {
				w.end = &rec
			}
		default:
			e.journalErrs.Add(1)
		}
	}
	for _, r := range e.registries() {
		r.restore(wal[r.kindName()])
	}

	// The replayed segments (plus this boot's fresh one) are now
	// redundant with the registries: compact so journal growth is
	// bounded by live state, not by restart count.
	if e.ctx.Err() == nil {
		e.compactJournal()
	}
	if gate != nil {
		gate()
	}
}

// --- Coordinator leases ---

// leaseCheckInterval paces the lease reaper; a variable so tests can
// tighten it.
var leaseCheckInterval = time.Second

// leaseReaper cancels leased jobs whose coordinator stopped watching:
// a job submitted with LeaseSec > 0 must be observed — an open event
// subscription, or a Get/Wait/Status touch — at least once per lease
// window, or it is canceled and garbage-collected like any canceled
// job. This is how shard peers shed explicit sub-sweeps orphaned by a
// dead coordinator without any cluster-wide death gossip.
func (e *Engine) leaseReaper() {
	defer e.wg.Done()
	t := time.NewTicker(leaseCheckInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			e.reapLeases(time.Now())
		case <-e.ctx.Done():
			return
		}
	}
}

func (e *Engine) reapLeases(now time.Time) {
	for _, r := range e.registries() {
		for _, cancel := range r.reap(now) {
			cancel()
		}
	}
}

// openJournal wires Options into the journal package.
func openJournal(opts Options) (*journal.Journal, [][]byte, error) {
	var faults journal.FaultInjector
	if opts.JournalFaults != nil {
		faults = opts.JournalFaults
	}
	return journal.Open(opts.JournalDir, journal.Options{Faults: faults})
}
