// Package engine is the concurrent characterization-sweep subsystem: it
// expands sweep requests over the (architecture × width × operating
// triad × backend × stimulus profile) configuration space into point
// jobs, executes them on a context-cancellable worker pool through the
// charz flow, and serves repeated points from a content-addressed result
// cache (memory + JSON-on-disk). The serving frontends — the vos SDK,
// cmd/voschar, cmd/vosd and the cluster — run their sweeps through one
// Engine, so each operating point they ask for is simulated at most once
// per cache. The offline studies (cmd/vosmodel, cmd/vosablate,
// cmd/vosspec) and the cold BenchmarkFig8Grouped call charz.Run, which
// simulates in process and caches nothing.
//
// Sweeps and Monte Carlo jobs are two kinds of one job kernel (job.go):
// a single registry implementation owns the job record and event log,
// submission and IDs, retention, lookup, cancellation, leases and the
// journal's records, replay and restore for every kind. A kind supplies
// only a jobKind — its request and wire types, ID prefix, journal fields
// and run function — so adding one costs a request type and a run
// function, not another lifecycle.
package engine

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/charz"
	"repro/internal/engine/journal"
	"repro/internal/model"
	"repro/internal/triad"
)

// ErrClosed is returned for work submitted after Close.
var ErrClosed = errors.New("engine: closed")

// ErrRecovering is returned for work submitted while journal replay is
// still rebuilding the job registries (see Options.JournalDir); callers
// should retry shortly.
var ErrRecovering = errors.New("engine: recovering")

// ErrDraining is returned for work submitted after StartDrain.
var ErrDraining = errors.New("engine: draining")

// ErrUnknownJob is returned by Cancel/CancelMC for an ID neither
// registry knows.
var ErrUnknownJob = errors.New("engine: unknown job")

// ErrAlreadyDone is returned by Cancel/CancelMC when the job already
// reached a terminal state: there is nothing left to cancel, and the
// caller learns so distinctly from a missing ID.
var ErrAlreadyDone = errors.New("engine: job already finished")

// Options configures a new Engine.
type Options struct {
	// Workers is the worker-pool size; ≤0 means runtime.NumCPU().
	Workers int
	// CacheDir is the on-disk cache layer's root; empty keeps the cache
	// memory-only. Ignored when Backend is set.
	CacheDir string
	// Backend overrides the result store: a *Cache shared by several
	// engines (or tests), or the cluster layer's peer-filling cache. The
	// engine does not own the backend's lifecycle; whoever supplied it
	// closes it after Close.
	Backend CacheBackend
	// Sharder, when set, distributes declarative sweeps' point groups
	// across a cluster instead of running every group on the local pool
	// (see the Sharder interface for the contract). Groups the memory
	// tier holds in full and explicit-triad sweeps are never offered to
	// it.
	Sharder Sharder
	// ModelDir, when set, persists every model the calibrator trains
	// (model-backend points, Monte Carlo jobs) as JSON artifacts in the
	// cmd/vosmodel store format. Serving never reads the directory —
	// models are always retrained deterministically — so a stale store
	// cannot change results; it is an export channel for offline tools.
	ModelDir string
	// JournalDir, when set, makes the job registries durable: every
	// job's lifecycle is recorded in a write-ahead journal there, and a
	// new Engine on the same directory replays it — re-inserting
	// finished jobs and re-adopting unfinished ones (see recover.go).
	// Empty keeps the registries memory-only.
	JournalDir string
	// JournalFaults, when non-nil, injects faults into the journal's
	// write path (the same seam shape Cache.SetFaults uses, so one chaos
	// injector drives both). Faulted writes degrade durability — they
	// are counted, never served as errors to submitters.
	JournalFaults CacheFaultInjector
	// RecoveryGate, when non-nil, is called after journal replay has
	// rebuilt the registries and resumed unfinished jobs, just before
	// the engine reports ready — a seam for tests that need to observe
	// the recovering state deterministically.
	RecoveryGate func()
}

// Engine schedules point jobs onto a bounded worker pool and memoizes
// their results.
type Engine struct {
	workers int
	cache   CacheBackend
	sharder Sharder
	// calib trains and memoizes the statistical error models behind the
	// model backend and the Monte Carlo service (fixed DefaultSpec
	// recipe, so every node of a cluster trains identical tables).
	calib *model.Calibrator

	ctx    context.Context
	cancel context.CancelFunc
	jobs   chan func()
	wg     sync.WaitGroup
	// jobWg tracks job goroutines (and journal replay) so Close can wait
	// for full quiescence, not just the worker pool.
	jobWg sync.WaitGroup

	// preps memoizes synthesized operators by prepKey, prepOrder holding
	// its keys in insertion order for FIFO eviction (rememberPrep).
	prepMu    sync.Mutex
	preps     map[string]*prepEntry
	prepOrder []string

	// inflight deduplicates concurrent executions of the same point, so a
	// sweep whose plan visits one triad twice (e.g. Fig. 5 sharing a grid
	// point with the Table III set) simulates it once.
	flightMu sync.Mutex
	inflight map[string]*flight

	// executions counts points that actually reached the simulator (cache
	// misses, whether simulated solo or as part of an electrical group).
	// The cache-effectiveness tests assert this stays flat across
	// repeated identical sweeps.
	executions atomic.Uint64

	// stores counts results this engine has put into the cache. A point
	// group reads it before its cache pass; if it moved by the time the
	// group claims its misses, another caller may have stored one of them
	// meanwhile (see runPointGroup).
	stores atomic.Uint64

	// groupedPoints counts points simulated as members of a multi-point
	// electrical group — one trace simulation serving several Tclk values
	// — reported through CacheStats so the stats distinguish group
	// ride-alongs from per-triad cache hits.
	groupedPoints atomic.Uint64

	// The sweep and Monte Carlo job registries (job.go) — separate ID
	// spaces under one lock. closed gates submission and re-adoption so
	// no job goroutine can start once Close begins waiting.
	jobsMu sync.Mutex
	sweeps *registry[Request, []OperatorResult, Sweep, SweepEvent]
	mcs    *registry[MCRequest, []MCPoint, MCJob, MCEvent]
	closed bool

	// Durability (recover.go): the write-ahead journal, the RW lock
	// that serializes compaction snapshots against appenders, the
	// group-commit flush channel its flusher goroutine drains, the
	// degraded-write counter, the lifecycle state (ready / recovering /
	// draining) and the channel closed when replay finishes.
	journal       *journal.Journal
	journalMu     sync.RWMutex
	journalFlushC chan struct{}
	journalErrs   atomic.Uint64
	life          atomic.Int32
	readyCh       chan struct{}

	// mcRepsExecuted counts Monte Carlo reps that actually ran here —
	// the MC analog of executions, asserted flat by the recovery tests
	// when every cell was journal-satisfied.
	mcRepsExecuted atomic.Uint64
}

// maxPrepEntries bounds the synthesis memo behind Prepare, whose key
// includes the seed, so a daemon serving many seeds keeps its memory
// flat: beyond it the oldest finished syntheses are dropped and an
// operator asked for again synthesizes again, to the same netlist and
// report. Sweeps hold their Prepared values, so a drop never stalls one.
const maxPrepEntries = 64

// prepEntry is one operator's synthesis: done closes once prep and err
// are final, or once its owner withdrew it unsynthesized.
type prepEntry struct {
	done      chan struct{}
	withdrawn bool
	prep      *charz.Prepared
	err       error
}

// synthesize prepares one operator; a variable so tests can observe
// synthesis.
var synthesize = charz.Prepare

// flight is one point being computed; res, shared and read-only like a
// cache hit, or err is set before done closes.
type flight struct {
	done chan struct{}
	res  *charz.TriadResult
	err  error
}

// New starts an Engine and its worker pool.
func New(opts Options) (*Engine, error) {
	if opts.Workers <= 0 {
		opts.Workers = runtime.NumCPU()
	}
	cache := opts.Backend
	if cache == nil {
		c, err := NewCache(opts.CacheDir)
		if err != nil {
			return nil, err
		}
		cache = c
	}
	var store *model.Store
	if opts.ModelDir != "" {
		s, err := model.NewStore(opts.ModelDir)
		if err != nil {
			return nil, err
		}
		store = s
	}
	calib, err := model.NewCalibrator(model.DefaultSpec(), store)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	e := &Engine{
		workers:  opts.Workers,
		cache:    cache,
		sharder:  opts.Sharder,
		calib:    calib,
		ctx:      ctx,
		cancel:   cancel,
		jobs:     make(chan func()),
		preps:    make(map[string]*prepEntry),
		inflight: make(map[string]*flight),
		readyCh:  make(chan struct{}),
	}
	e.sweeps = newRegistry(e, e.sweepKind())
	e.mcs = newRegistry(e, e.mcKind())
	for i := 0; i < e.workers; i++ {
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			for {
				select {
				case job := <-e.jobs:
					job()
				case <-e.ctx.Done():
					return
				}
			}
		}()
	}
	// The lease reaper garbage-collects coordinator-leased jobs whose
	// watcher died (recover.go); it idles cheaply when no job carries a
	// lease.
	e.wg.Add(1)
	go e.leaseReaper()
	if opts.JournalDir != "" {
		j, payloads, err := openJournal(opts)
		if err != nil {
			// A journal that cannot be read must fail the boot loudly —
			// silently dropping acknowledged jobs is the one outcome the
			// journal exists to prevent.
			cancel()
			e.wg.Wait()
			return nil, fmt.Errorf("engine: journal: %w", err)
		}
		e.journal = j
		e.journalFlushC = make(chan struct{}, 1)
		e.wg.Add(1)
		go e.journalFlusher()
		e.life.Store(lifeRecovering)
		// Replay in the background so the daemon can bind its listener
		// and answer readiness probes while a large journal rebuilds;
		// Submit and job lookups refuse with ErrRecovering until then.
		e.jobWg.Add(1)
		go e.runRecovery(payloads, opts.RecoveryGate)
	} else {
		close(e.readyCh)
	}
	return e, nil
}

// Close cancels all outstanding work and waits for sweeps and workers to
// stop. With a journal, jobs canceled by the shutdown keep their
// journal entry unfinished and are re-adopted by the next Engine on the
// same directory; call StartDrain first for the graceful variant of the
// same path.
func (e *Engine) Close() {
	e.jobsMu.Lock()
	e.closed = true
	e.jobsMu.Unlock()
	e.cancel()
	e.jobWg.Wait()
	e.wg.Wait()
	if e.journal != nil {
		e.journal.Close()
	}
}

// registries lists every job kind's registry, sweeps first.
func (e *Engine) registries() []jobRegistry { return []jobRegistry{e.sweeps, e.mcs} }

// Workers returns the pool size.
func (e *Engine) Workers() int { return e.workers }

// CacheStats returns the result cache's activity counters, plus this
// engine's grouped-point counter (engine-level: a cache shared between
// engines reports each engine's own GroupedPoints).
func (e *Engine) CacheStats() CacheStats {
	s := e.cache.Stats()
	s.GroupedPoints = e.groupedPoints.Load()
	return s
}

// Executions returns how many point jobs actually reached the simulator
// (cache misses) over the Engine's lifetime.
func (e *Engine) Executions() uint64 { return e.executions.Load() }

// exec runs f on a pool worker and waits for it, honoring both the
// caller's context and engine shutdown while queued. Once a worker took
// f, exec waits for it to return even through shutdown: callers read
// what f wrote, and Close waits for the worker anyway.
func (e *Engine) exec(ctx context.Context, f func()) error {
	done := make(chan struct{})
	job := func() {
		defer close(done)
		f()
	}
	select {
	case e.jobs <- job:
	case <-ctx.Done():
		return ctx.Err()
	case <-e.ctx.Done():
		return ErrClosed
	}
	<-done
	return nil
}

// Prepare returns the synthesized operator for cfg. Operators are
// memoized by content key, so a sweep over 43 triads (or two sweeps over
// the same configuration) synthesizes once. Prepare must not be called
// from a pool job (see prepared).
func (e *Engine) Prepare(ctx context.Context, cfg charz.Config) (*charz.Prepared, error) {
	key, err := prepKey(cfg)
	if err != nil {
		return nil, err
	}
	entry, err := e.prepared(ctx, key, cfg)
	if err != nil {
		return nil, err
	}
	if entry.err != nil {
		return nil, entry.err
	}
	// The memo is keyed on netlist-relevant fields only; rebind the
	// caller's full canonical Config (patterns, backend, …) around the
	// shared netlist and report.
	canon, err := cfg.Canonical()
	if err != nil {
		return nil, err
	}
	return &charz.Prepared{Config: canon, Netlist: entry.prep.Netlist, Report: entry.prep.Report}, nil
}

// prepared returns the finished synthesis memoized under key, running
// it on the worker pool if no caller has: at most Workers syntheses run
// at once, and a memoized operator returns without waiting for a worker.
// A caller whose context ends before a worker takes its synthesis
// withdraws the entry, and whoever waited on it tries again.
func (e *Engine) prepared(ctx context.Context, key string, cfg charz.Config) (*prepEntry, error) {
	for {
		e.prepMu.Lock()
		entry, loaded := e.preps[key]
		if !loaded {
			entry = &prepEntry{done: make(chan struct{})}
			e.rememberPrep(key, entry)
		}
		e.prepMu.Unlock()
		if !loaded {
			err := e.exec(ctx, func() { entry.prep, entry.err = synthesize(cfg) })
			if err != nil {
				e.prepMu.Lock()
				delete(e.preps, key)
				e.prepOrder = slices.DeleteFunc(e.prepOrder, func(k string) bool { return k == key })
				e.prepMu.Unlock()
				entry.withdrawn = true
			}
			close(entry.done)
			return entry, err
		}
		select {
		case <-entry.done:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if !entry.withdrawn {
			return entry, nil
		}
	}
}

// rememberPrep adds a synthesis to the memo and drops the oldest
// finished entries beyond maxPrepEntries. An entry still synthesizing
// stays whatever its age: its waiters and owner share it. Callers hold
// prepMu.
func (e *Engine) rememberPrep(key string, entry *prepEntry) {
	e.preps[key] = entry
	e.prepOrder = append(e.prepOrder, key)
	for i := 0; len(e.preps) > maxPrepEntries && i < len(e.prepOrder); {
		select {
		case <-e.preps[e.prepOrder[i]].done:
			delete(e.preps, e.prepOrder[i])
			e.prepOrder = slices.Delete(e.prepOrder, i, i+1)
		default:
			i++
		}
	}
}

// store encodes a computed result and caches it, with res itself as the
// entry's decoded value: decoding the bytes just encoded rebuilds a value
// deeply equal to res (TestStoredPointsDecodeToThemselves pins this), so
// callers see the same result whether or not the cache was warm. Entries
// filled from outside the process go through NewEntry instead. The
// stores count moves only after the Put, so a caller that sees it move
// can find the entry.
func (e *Engine) store(key string, res *charz.TriadResult) error {
	data, err := json.Marshal(res)
	if err != nil {
		return err
	}
	e.cache.Put(key, &Entry{data: data, res: res})
	e.stores.Add(1)
	return nil
}

// runPointGroup serves or computes the group's points, keys[i] being the
// cache key of trs[i], and additionally reports, per triad, whether the
// result was served without simulation (own cache entry or another
// caller's flight). The results are shared with the cache and must not
// be modified.
func (e *Engine) runPointGroup(ctx context.Context, p *charz.Prepared, trs []triad.Triad, keys []string) ([]*charz.TriadResult, []bool, error) {
	out := make([]*charz.TriadResult, len(trs))
	cached := make([]bool, len(trs))
	done := make([]bool, len(trs))
	for {
		// Cache pass over the unresolved points.
		seen := e.stores.Load()
		var missing []int
		for i := range trs {
			if done[i] {
				continue
			}
			if ent, ok := e.cache.Get(ctx, keys[i]); ok {
				out[i], cached[i], done[i] = ent.Point(), true, true
				continue
			}
			missing = append(missing, i)
		}
		if len(missing) == 0 {
			return out, cached, nil
		}
		// Partition the misses in one singleflight critical section:
		// points nobody is computing become ours (one grouped
		// simulation), points already in flight are awaited.
		e.flightMu.Lock()
		var owned []int
		ownedFlights := make([]*flight, 0, len(missing))
		waits := make(map[int]*flight)
		for _, i := range missing {
			if f, ok := e.inflight[keys[i]]; ok {
				waits[i] = f
				continue
			}
			f := &flight{done: make(chan struct{})}
			e.inflight[keys[i]] = f
			owned = append(owned, i)
			ownedFlights = append(ownedFlights, f)
		}
		e.flightMu.Unlock()
		if len(owned) > 0 && e.stores.Load() != seen {
			// Something was stored since the cache pass began: a point
			// that missed then may have been computed, stored and
			// retired by another caller before we claimed it. Serve those
			// from the cache rather than simulate them again.
			owned, ownedFlights = e.serveStored(keys, owned, ownedFlights, out, cached, done)
		}
		if len(owned) > 0 {
			if err := e.ownGroup(ctx, p, trs, keys, owned, ownedFlights, out); err != nil {
				return nil, nil, err
			}
			for _, i := range owned {
				done[i] = true
			}
		}
		retry := false
		for i, f := range waits {
			select {
			case <-f.done:
			case <-ctx.Done():
				return nil, nil, ctx.Err()
			case <-e.ctx.Done():
				return nil, nil, ErrClosed
			}
			if f.err != nil {
				// The flight owner's *own* context died; that says
				// nothing about ours. Retry those points: either the
				// cache is warm by now or we become the new owner.
				if errors.Is(f.err, context.Canceled) || errors.Is(f.err, context.DeadlineExceeded) {
					if err := ctx.Err(); err != nil {
						return nil, nil, err
					}
					retry = true
					continue
				}
				return nil, nil, f.err
			}
			out[i], cached[i], done[i] = f.res, true, true
		}
		if !retry {
			return out, cached, nil
		}
	}
}

// serveStored re-reads claimed points from the cache's in-process
// memory layer, where every store lands, and serves those it finds: each
// one's flight is published and retired as ownGroup would retire it.
// It returns the points still to simulate and their flights.
func (e *Engine) serveStored(keys []string, owned []int, flights []*flight,
	out []*charz.TriadResult, cached, done []bool) ([]int, []*flight) {
	n := 0
	for j, i := range owned {
		f := flights[j]
		ent, ok := e.cache.Peek(keys[i])
		if !ok {
			owned[n], flights[n] = i, f
			n++
			continue
		}
		out[i], cached[i], done[i] = ent.Point(), true, true
		f.res = out[i]
		e.flightMu.Lock()
		delete(e.inflight, keys[i])
		e.flightMu.Unlock()
		close(f.done)
	}
	return owned[:n], flights[:n]
}

// ownGroup simulates the owned subset of a group as one grouped run on
// the pool and publishes every point — to its own cache entry, its
// flight waiters, and the caller's result slice (the stored entry's
// value; see store).
func (e *Engine) ownGroup(ctx context.Context, p *charz.Prepared, trs []triad.Triad,
	keys []string, owned []int, flights []*flight, out []*charz.TriadResult) error {
	defer func() {
		e.flightMu.Lock()
		for _, i := range owned {
			delete(e.inflight, keys[i])
		}
		e.flightMu.Unlock()
		for _, f := range flights {
			close(f.done)
		}
	}()
	publishErr := func(from int, err error) error {
		for _, f := range flights[from:] {
			f.err = err
		}
		return err
	}
	sub := make([]triad.Triad, len(owned))
	for j, i := range owned {
		sub[j] = trs[i]
	}
	var results []*charz.TriadResult
	var runErr error
	if err := e.exec(ctx, func() {
		e.executions.Add(uint64(len(owned)))
		if len(owned) > 1 {
			e.groupedPoints.Add(uint64(len(owned)))
		}
		if p.Config.Backend != charz.BackendModel {
			results, runErr = p.RunGroup(sub)
			return
		}
		// Model-backend points bypass the charz steppers entirely:
		// calibrate against the gate-level oracle (memoized per point),
		// then replay the stimulus through the trained table. Model plans
		// are never Groupable, so their groups are singletons.
		results = make([]*charz.TriadResult, len(sub))
		for j, tr := range sub {
			if results[j], runErr = e.calib.RunPoint(p, tr); runErr != nil {
				return
			}
		}
	}); err != nil {
		return publishErr(0, err)
	}
	if runErr != nil {
		return publishErr(0, runErr)
	}
	for j, i := range owned {
		if err := e.store(keys[i], results[j]); err != nil {
			return publishErr(j, err)
		}
		flights[j].res = results[j]
		out[i] = results[j]
	}
	return nil
}

// runGroupYield executes one triad group of a plan on the local
// engine (cache pass, singleflight, pooled grouped simulation) and
// yields each completed point's summary under its plan triad index. It
// is the local half of the Sharder contract and the body of every
// non-clustered sweep's group job. It only reads the shared results: a
// summary owns its slices and fidelity report.
func (e *Engine) runGroupYield(ctx context.Context, plan *OperatorPlan, idxs []int, yield func(ti int, ps PointSummary)) error {
	trs := make([]triad.Triad, len(idxs))
	keys := make([]string, len(idxs))
	for j, ti := range idxs {
		trs[j], keys[j] = plan.Triads[ti], plan.Keys[ti]
	}
	outs, cachedFlags, err := e.runPointGroup(ctx, plan.Prep, trs, keys)
	if err != nil {
		return err
	}
	for j, ti := range idxs {
		res := outs[j]
		ps := PointSummary{
			Triad:         res.Triad,
			Stats:         res.Acc.Snapshot(),
			BER:           res.BER(),
			WER:           res.Acc.WER(),
			PerBit:        res.Acc.PerBitErrorProb(),
			EnergyPerOpFJ: res.EnergyPerOpFJ,
			LateFraction:  res.LateFraction,
			FromCache:     cachedFlags[j],
		}
		if res.Fidelity != nil {
			fid := *res.Fidelity
			ps.Fidelity = &fid
		}
		yield(ti, ps)
	}
	return nil
}
