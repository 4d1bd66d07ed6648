package engine

import (
	"context"
	"fmt"
	"iter"
	"math"
	"time"

	"repro/internal/charz"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/synth"
	"repro/internal/triad"
)

// Triad policies: how a Request's operating points are derived.
const (
	// PolicyPaper sweeps the paper's Table III set — 43 triads per
	// operator, derived from the synthesis timing report.
	PolicyPaper = "paper"
	// PolicyVddGrid sweeps a Vdd × Vbb grid at the synthesis clock (the
	// Fig. 5 axis).
	PolicyVddGrid = "vddgrid"
	// PolicyExplicit sweeps exactly the triads listed on the request —
	// the shape cluster shard sub-sweeps use, and the escape hatch for
	// callers that derive their own operating points. Explicit sweeps
	// always run on the node that received them (they are never offered
	// to a Sharder), which is what terminates shard recursion.
	PolicyExplicit = "triads"
)

// Request describes one characterization sweep over a configuration
// space: every combination of the listed architectures and widths is one
// operator, expanded into point jobs by the triad policy.
type Request struct {
	// Arches are synth architecture names ("RCA", "BKA", "KSA",
	// "SKL", "CSEL"); default ["RCA"].
	Arches []string `json:"arches"`
	// Widths are operand widths; default [8].
	Widths []int `json:"widths"`
	// Patterns is the stimulus count per point; default 2000.
	Patterns int `json:"patterns"`
	// Seed drives pattern generation and mismatch sampling; default 1.
	Seed uint64 `json:"seed"`
	// PropagateP is the stimulus carry-propagate probability; default 0.5.
	PropagateP float64 `json:"propagateP,omitempty"`
	// Backend is "gate" (default), "rc" or "model" (the calibrated
	// error-model backend; see internal/model).
	Backend string `json:"backend,omitempty"`
	// Streaming selects free-running capture (gate backend only).
	Streaming bool `json:"streaming,omitempty"`
	// Policy is PolicyPaper (default), PolicyVddGrid or PolicyExplicit.
	Policy string `json:"policy,omitempty"`
	// Vdds overrides the PolicyVddGrid supply list; default
	// 1.0 → 0.4 in 0.1 steps.
	Vdds []float64 `json:"vdds,omitempty"`
	// VbbValues are the PolicyVddGrid body-bias magnitudes; default {0}.
	VbbValues []float64 `json:"vbbValues,omitempty"`
	// Triads is the PolicyExplicit operating-point list, applied to every
	// operator of the request; required for — and only valid with — that
	// policy.
	Triads []triad.Triad `json:"triads,omitempty"`
	// LeaseSec, when positive, makes the job coordinator-leased: unless
	// it is observed (an open event subscription or a status/result
	// lookup) at least once per LeaseSec seconds, the engine cancels it.
	// Cluster shard sub-sweeps set this so a dead coordinator's orphans
	// are garbage-collected; ordinary submissions leave it zero.
	LeaseSec int `json:"leaseSec,omitempty"`
}

// archByName resolves the synth architecture names.
func archByName(name string) (synth.Arch, error) {
	for _, a := range synth.Arches() {
		if a.String() == name {
			return a, nil
		}
	}
	return 0, fmt.Errorf("engine: unknown architecture %q", name)
}

// backendByName resolves the charz backend names.
func backendByName(name string) (charz.Backend, error) {
	switch name {
	case "", charz.BackendGate.String():
		return charz.BackendGate, nil
	case charz.BackendRC.String():
		return charz.BackendRC, nil
	case charz.BackendModel.String():
		return charz.BackendModel, nil
	}
	return 0, fmt.Errorf("engine: unknown backend %q", name)
}

// Validate checks the request without mutating it: defaults are applied
// to a scratch copy and only the error is kept.
func (r Request) Validate() error { return (&r).normalize() }

// normalize validates the request and fills defaults in place.
func (r *Request) normalize() error {
	if len(r.Arches) == 0 {
		r.Arches = []string{synth.ArchRCA.String()}
	}
	if len(r.Widths) == 0 {
		r.Widths = []int{8}
	}
	if r.Patterns == 0 {
		r.Patterns = 2000
	}
	if r.Patterns < 1 {
		return fmt.Errorf("engine: patterns %d < 1", r.Patterns)
	}
	if r.Seed == 0 {
		r.Seed = 1
	}
	if !(r.PropagateP >= 0 && r.PropagateP <= 1) {
		return fmt.Errorf("engine: propagate probability %v outside [0, 1]", r.PropagateP)
	}
	if r.LeaseSec < 0 {
		return fmt.Errorf("engine: negative lease %d", r.LeaseSec)
	}
	for _, v := range r.Vdds {
		if !(v > 0) || math.IsInf(v, 1) {
			return fmt.Errorf("engine: Vdd %v must be finite and > 0", v)
		}
	}
	for _, v := range r.VbbValues {
		if !(v >= 0) || math.IsInf(v, 1) {
			return fmt.Errorf("engine: Vbb magnitude %v must be finite and ≥ 0", v)
		}
	}
	for _, name := range r.Arches {
		if _, err := archByName(name); err != nil {
			return err
		}
	}
	for _, w := range r.Widths {
		if w < 1 || w > 32 {
			return fmt.Errorf("engine: width %d outside [1, 32]", w)
		}
	}
	if _, err := backendByName(r.Backend); err != nil {
		return err
	}
	switch r.Policy {
	case "":
		r.Policy = PolicyPaper
	case PolicyPaper, PolicyVddGrid, PolicyExplicit:
	default:
		return fmt.Errorf("engine: unknown triad policy %q", r.Policy)
	}
	if r.Policy == PolicyExplicit {
		if len(r.Triads) == 0 {
			return fmt.Errorf("engine: policy %q needs at least one triad", PolicyExplicit)
		}
		for _, tr := range r.Triads {
			if err := tr.Validate(); err != nil {
				return err
			}
		}
	} else if len(r.Triads) > 0 {
		return fmt.Errorf("engine: triads are only valid with policy %q", PolicyExplicit)
	}
	if r.Policy == PolicyVddGrid {
		if len(r.Vdds) == 0 {
			for vdd := 1.0; vdd >= 0.4-1e-9; vdd -= 0.1 {
				r.Vdds = append(r.Vdds, float64(int(vdd*100+0.5))/100)
			}
		}
		if len(r.VbbValues) == 0 {
			r.VbbValues = []float64{0}
		}
	}
	return nil
}

// OperatorConfig normalizes the request and builds the canonical
// charz.Config of one of its operators — the seam the vos SDK uses to
// point per-operator tools (the hardware-oracle adder) at exactly the
// configuration a sweep characterized.
func (r *Request) OperatorConfig(archName string, width int) (charz.Config, error) {
	if err := r.normalize(); err != nil {
		return charz.Config{}, err
	}
	arch, err := archByName(archName)
	if err != nil {
		return charz.Config{}, err
	}
	found := false
	for _, w := range r.Widths {
		if w == width {
			found = true
			break
		}
	}
	if !found {
		return charz.Config{}, fmt.Errorf("engine: width %d not in request widths %v", width, r.Widths)
	}
	return r.config(arch, width).Canonical()
}

// config builds the charz.Config of one operator of the request.
func (r *Request) config(arch synth.Arch, width int) charz.Config {
	backend, _ := backendByName(r.Backend)
	return charz.Config{
		Arch:       arch,
		Width:      width,
		Patterns:   r.Patterns,
		Seed:       r.Seed,
		PropagateP: r.PropagateP,
		Backend:    backend,
		Streaming:  r.Streaming,
	}
}

// OperatorPlan is the expanded job list of one operator of a sweep.
type OperatorPlan struct {
	Config charz.Config
	Prep   *charz.Prepared
	Triads []triad.Triad
	// Keys holds the cache key of each triad, Keys[i] that of Triads[i]
	// (PointKey), derived once when the plan is made.
	Keys []string
}

// Plan expands a request into per-operator point-job lists, one per
// architecture × width in request order. Planning prepares (synthesizes)
// each operator, because the paper's triads are functions of the
// synthesis timing report. Up to Workers operators are prepared side by
// side, their syntheses on the worker pool; preparations are memoized in
// the engine, so re-planning is cheap and never waits for a worker. Plan
// returns once every operator is planned or has failed; the first
// failure in request order decides the error.
func (e *Engine) Plan(ctx context.Context, req *Request) ([]OperatorPlan, error) {
	if err := req.normalize(); err != nil {
		return nil, err
	}
	n := len(req.Arches) * len(req.Widths)
	plans := make([]OperatorPlan, n)
	errs := make([]error, n)
	parallelFor(n, e.workers, func(i int) {
		name, width := req.Arches[i/len(req.Widths)], req.Widths[i%len(req.Widths)]
		plans[i], errs[i] = e.planOperator(ctx, req, name, width)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return plans, nil
}

// planOperator prepares one operator of a normalized request and
// expands its triad set.
func (e *Engine) planOperator(ctx context.Context, req *Request, name string, width int) (OperatorPlan, error) {
	arch, err := archByName(name)
	if err != nil {
		return OperatorPlan{}, err
	}
	if err := ctx.Err(); err != nil {
		return OperatorPlan{}, err
	}
	prep, err := e.Prepare(ctx, req.config(arch, width))
	if err != nil {
		return OperatorPlan{}, fmt.Errorf("engine: prepare %d-bit %s: %w", width, name, err)
	}
	var set []triad.Triad
	switch req.Policy {
	case PolicyExplicit:
		set = append([]triad.Triad(nil), req.Triads...)
	case PolicyVddGrid:
		for _, vdd := range req.Vdds {
			for _, vbb := range req.VbbValues {
				set = append(set, triad.Triad{
					Tclk: prep.Report.CriticalPath, Vdd: vdd, Vbb: vbb})
			}
		}
	default:
		set = prep.TriadSet()
	}
	keys, err := pointKeys(prep.Config, set)
	if err != nil {
		return OperatorPlan{}, err
	}
	return OperatorPlan{Config: prep.Config, Prep: prep, Triads: set, Keys: keys}, nil
}

// pointGroups partitions an operator plan's triads into per-job index
// groups when the prepared configuration supports the shared-trace
// path, singletons otherwise (streaming and RC sweeps keep their
// per-point pool fan-out). With super set, triads collapse into
// cross-voltage super-groups (one per body-bias family, retimed down
// the Vdd ladder by the wide trace path) — the local planning choice.
// Without it they collapse into electrical operating-point groups —
// the cluster sharding granularity, which keeps ring ownership keyed
// by electrical point; each shard re-plans its explicit sub-sweep
// locally and super-groups it there.
func pointGroups(p *OperatorPlan, super bool) [][]int {
	if p.Prep.Groupable() {
		if super {
			return triad.SuperGroups(p.Triads)
		}
		return triad.GroupByOperatingPoint(p.Triads)
	}
	groups := make([][]int, len(p.Triads))
	for i := range p.Triads {
		groups[i] = []int{i}
	}
	return groups
}

// holds reports whether the cache's memory layer holds every point of
// the group (idxs into plan.Triads). It reads with Peek, so it costs no
// disk read, peer fetch or counter.
func (e *Engine) holds(plan *OperatorPlan, idxs []int) bool {
	for _, ti := range idxs {
		if _, ok := e.cache.Peek(plan.Keys[ti]); !ok {
			return false
		}
	}
	return true
}

// Sharder distributes work across a cluster of engines.
//
// RunOperator distributes the point groups of one planned operator. The
// engine consults it for every declarative sweep, with only the
// electrical groups this node does not hold: a group whose every point
// is in the local memory tier is served on the local engine and never
// reaches the sharder. Explicit-triad sweeps always run where they were
// submitted, which is what terminates shard recursion — a shard
// sub-sweep is explicit by construction, so the receiving node never
// re-shards it. RunOperator must arrange for every triad index of the
// given groups to be yielded exactly once: remotely computed points
// through yield, local shares through runLocal (which executes one
// electrical group — one groups element — on the local engine's
// cache/singleflight/pool path and yields its points itself). It returns
// once every point of the groups has been yielded, or with the first
// error; runLocal and yield are safe for concurrent use.
//
// RunMCPoint distributes one Monte Carlo point's rep range. The engine
// offers every full-range point of a job; the implementation splits
// [0, reps) into contiguous ranges, dispatches them as rep-range
// sub-jobs (falling back to runLocal for its own share and for ranges
// whose owner fails), and returns the merged point. runLocal computes
// [lo, hi) on the local pool and is safe for concurrent calls. Rep-range
// jobs are never offered, which terminates recursion the same way.
type Sharder interface {
	RunOperator(ctx context.Context, plan *OperatorPlan, groups [][]int,
		runLocal func(idxs []int) error,
		yield func(ti int, ps PointSummary)) error
	RunMCPoint(ctx context.Context, req MCRequest, kernel string, tr triad.Triad, reps int,
		runLocal func(lo, hi int) (*MCPoint, error)) (*MCPoint, error)
}

// Status is a sweep's lifecycle state.
type Status string

// Sweep lifecycle states.
const (
	StatusPending  Status = "pending"
	StatusRunning  Status = "running"
	StatusDone     Status = "done"
	StatusFailed   Status = "failed"
	StatusCanceled Status = "canceled"
)

// Progress is the streaming counter set shared by all frontends: the CLI
// renders it as a progress line, the daemon serves it from the status
// endpoint.
type Progress struct {
	TotalPoints int `json:"totalPoints"`
	Completed   int `json:"completed"`
	// CacheHits and Executed split Completed by how each point was
	// served.
	CacheHits int `json:"cacheHits"`
	Executed  int `json:"executed"`
}

// PointSummary is the serializable per-point outcome.
type PointSummary struct {
	Triad         triad.Triad        `json:"triad"`
	Stats         metrics.ErrorStats `json:"stats"`
	BER           float64            `json:"ber"`
	WER           float64            `json:"wer"`
	PerBit        []float64          `json:"perBit"`
	EnergyPerOpFJ float64            `json:"energyPerOpFJ"`
	LateFraction  float64            `json:"lateFraction"`
	Efficiency    float64            `json:"efficiency"`
	FromCache     bool               `json:"fromCache"`
	// Fidelity is present only on model-backend points: the held-out
	// cross-validation report of the trained table this point was served
	// from. For those points LateFraction carries the oracle's word-error
	// fraction over the calibration patterns (the modeled analog of a
	// late capture).
	Fidelity *core.Fidelity `json:"fidelity,omitempty"`
}

// OperatorResult is one operator's share of a sweep result.
type OperatorResult struct {
	Bench  string         `json:"bench"`
	Arch   string         `json:"arch"`
	Width  int            `json:"width"`
	Report *synth.Report  `json:"report"`
	Points []PointSummary `json:"points"`
	// SortedIdx orders Points the way the paper's Fig. 8 x-axis does
	// (ascending BER, ties by energy).
	SortedIdx []int `json:"sortedIdx"`
}

// Sweep is the public snapshot of a submitted sweep job.
type Sweep struct {
	ID       string    `json:"id"`
	Request  Request   `json:"request"`
	Status   Status    `json:"status"`
	Error    string    `json:"error,omitempty"`
	Created  time.Time `json:"created"`
	Started  time.Time `json:"started,omitzero"`
	Finished time.Time `json:"finished,omitzero"`
	Progress Progress  `json:"progress"`
	// Results is populated once Status is done.
	Results []OperatorResult `json:"results,omitempty"`
}

// Info returns the snapshot's lifecycle fields.
func (s Sweep) Info() JobInfo {
	return JobInfo{ID: s.ID, Kind: JobKindSweep, Status: s.Status, Error: s.Error, Created: s.Created,
		Started: s.Started, Finished: s.Finished, Progress: s.Progress}
}

type sweepJob = job[Request, []OperatorResult, Sweep, SweepEvent]

// sweepKind is the sweep job kind: IDs "s-000001", …, journal records
// "sweep.*" with the results on the end record.
func (e *Engine) sweepKind() *jobKind[Request, []OperatorResult, Sweep, SweepEvent] {
	return &jobKind[Request, []OperatorResult, Sweep, SweepEvent]{
		name: JobKindSweep, prefix: "s-", noun: "sweep",
		normalize: (*Request).normalize,
		leaseSec:  func(r *Request) int { return r.LeaseSec },
		run:       e.runSweep,
		snapshot: func(h *JobInfo, req Request, out []OperatorResult) Sweep {
			return Sweep{ID: h.ID, Request: req, Status: h.Status, Error: h.Error, Created: h.Created,
				Started: h.Started, Finished: h.Finished, Progress: h.Progress,
				Results: append([]OperatorResult(nil), out...)}
		},
		event: func(h *JobInfo, typ string) SweepEvent {
			return SweepEvent{Type: typ, SweepID: h.ID, Status: h.Status, Progress: h.Progress, Error: h.Error}
		},
		pointEvents: func(h *JobInfo, out []OperatorResult) []SweepEvent {
			var evs []SweepEvent
			for _, op := range out {
				for _, p := range op.Points {
					evs = append(evs, SweepEvent{Type: EventPoint, SweepID: h.ID, Status: h.Status,
						Progress: h.Progress, Bench: op.Bench, Arch: op.Arch, Width: op.Width, Point: &p})
				}
			}
			return evs
		},
		walReq: func(w *walRec) **Request { return &w.Req },
		walOut: func(w *walRec) *[]OperatorResult { return &w.Results },
	}
}

// Submit registers a sweep and starts it asynchronously, returning its ID.
// During journal replay it refuses with ErrRecovering, after StartDrain
// with ErrDraining.
func (e *Engine) Submit(req Request) (string, error) { return e.sweeps.submit(req) }

// Get returns a snapshot of the sweep with the given ID. A lookup
// counts as an observation for the job's coordinator lease, if any.
func (e *Engine) Get(id string) (Sweep, bool) { return e.sweeps.get(id) }

// List returns snapshots of all sweeps, oldest first.
func (e *Engine) List() []Sweep { return e.sweeps.list() }

// Cancel cancels a pending or running sweep. It returns ErrUnknownJob
// for an ID the registry does not know and ErrAlreadyDone for a sweep
// that already reached a terminal state; nil means the cancellation was
// delivered.
func (e *Engine) Cancel(id string) error { return e.sweeps.cancelJob(id) }

// Wait blocks until the sweep finishes (any terminal status) or the
// context is canceled, returning the final snapshot.
func (e *Engine) Wait(ctx context.Context, id string) (Sweep, error) { return e.sweeps.wait(ctx, id) }

// Subscribe returns the sweep's event stream: every event published so
// far (the per-point history is retained for the sweep's lifetime), then
// each live event as it is published. The stream ends after the terminal
// event, or once ctx is done; a reader may also stop early by breaking
// out of its range loop. Each reader has its own cursor, so one that
// joins late or reads slowly still sees every event — even after the
// sweep finished, every point event before the terminal event. Each
// event comes with whether the stream has caught up with the sweep after
// it (the last event so far of a sweep still running), where a reader
// that batches its writes should flush.
func (e *Engine) Subscribe(ctx context.Context, id string) (iter.Seq2[SweepEvent, bool], bool) {
	return e.sweeps.subscribe(ctx, id)
}

// runSweep executes one sweep: plan, fan the points out over the pool
// (in cluster mode, the electrical groups the memory tier does not hold
// in full over the Sharder), fold the results.
func (e *Engine) runSweep(ctx context.Context, j *sweepJob) ([]OperatorResult, error) {
	req := j.req
	plans, err := e.Plan(ctx, &req)
	if err != nil {
		return nil, err
	}
	total := 0
	for _, p := range plans {
		total += len(p.Triads)
	}
	j.running(total)

	results := make([]OperatorResult, len(plans))
	var tasks []func() error
	for pi := range plans {
		p := &plans[pi]
		results[pi] = OperatorResult{
			Bench:  p.Config.BenchName(),
			Arch:   p.Config.Arch.String(),
			Width:  p.Config.Width,
			Report: p.Prep.Report,
			Points: make([]PointSummary, len(p.Triads)),
		}
		// yield stores one completed point and publishes its event — for
		// locally simulated, cache-served and (in cluster mode)
		// shard-streamed points alike. Concurrent yields write distinct
		// Points indices and serialize publication on the job lock.
		op := &results[pi]
		yield := func(ti int, ps PointSummary) {
			op.Points[ti] = ps
			j.point(ps.FromCache, func(ev *SweepEvent) {
				ev.Type, ev.Bench, ev.Arch, ev.Width = EventPoint, op.Bench, op.Arch, op.Width
				ev.Point = &ps
			})
		}
		// Cluster mode: serve the electrical groups this node's memory
		// tier already holds in full as one local task, and hand the
		// rest to the sharder, which routes each to its ring owner and
		// falls back to runLocal for the groups this node owns (or
		// inherits from dead peers). Entries are content-addressed, so a
		// held point is the point its owner would send back; ring
		// ownership still coalesces every miss. Explicit-triad sweeps
		// skip the sharder — they ARE the shard sub-sweeps. Sharding
		// stays at electrical-point granularity (ring keys, balance);
		// local planning collapses further into cross-voltage
		// super-groups.
		if e.sharder != nil && req.Policy != PolicyExplicit {
			var held []int
			var missing [][]int
			for _, g := range pointGroups(p, false) {
				if e.holds(p, g) {
					held = append(held, g...)
				} else {
					missing = append(missing, g)
				}
			}
			if len(held) > 0 {
				tasks = append(tasks, func() error { return e.runGroupYield(ctx, p, held, yield) })
			}
			if len(missing) > 0 {
				runLocal := func(idxs []int) error { return e.runGroupYield(ctx, p, idxs, yield) }
				tasks = append(tasks, func() error { return e.sharder.RunOperator(ctx, p, missing, runLocal, yield) })
			}
			continue
		}
		// One pool job per cross-voltage super-group when the trace path
		// applies (the Table III set collapses 43 triads to 2 retime
		// chains covering its 14 electrical points); per-point jobs
		// otherwise.
		for _, idxs := range pointGroups(p, true) {
			tasks = append(tasks, func() error { return e.runGroupYield(ctx, p, idxs, yield) })
		}
	}
	if err := j.fanOut(tasks); err != nil {
		return nil, err
	}

	// Efficiency is relative to each operator's first point — the nominal
	// triad under PolicyPaper, the highest-supply grid point otherwise.
	for pi := range results {
		pts := results[pi].Points
		if len(pts) == 0 {
			continue
		}
		nominal := pts[0].EnergyPerOpFJ
		for i := range pts {
			pts[i].Efficiency = metrics.EnergyEfficiency(pts[i].EnergyPerOpFJ, nominal)
		}
		results[pi].SortedIdx = triad.SortByBERThenEnergy(len(pts),
			func(i int) float64 { return pts[i].BER },
			func(i int) float64 { return pts[i].EnergyPerOpFJ })
	}
	return results, nil
}
