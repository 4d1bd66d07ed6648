package vos

import (
	"context"
	"slices"
	"time"

	"repro/internal/charz"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/triad"
)

// LocalOptions configures an in-process client.
type LocalOptions struct {
	// Workers is the engine worker-pool size; ≤0 means NumCPU.
	Workers int
	// CacheDir persists characterization results on disk, making
	// repeated sweeps across process restarts near-free. Empty keeps the
	// result cache memory-only.
	CacheDir string
	// JournalDir enables the engine's write-ahead journal there: job
	// lifecycles survive process restarts, finished jobs stay listable
	// and unfinished ones are re-adopted and resumed on the next start.
	// NewLocal replays the journal before returning, so a Local client
	// never observes the recovering state a daemon exposes as 503.
	// Empty disables durability.
	JournalDir string
}

// Local is the in-process Client: it owns a sweep engine (worker pool +
// content-addressed result cache) and runs every sweep in this process.
type Local struct {
	eng    *engine.Engine
	sweeps localJobs[engine.Sweep, engine.SweepEvent, Result, Event]
	mcs    localJobs[engine.MCJob, engine.MCEvent, MCResult, MCEvent]
}

var _ Client = (*Local)(nil)

// NewLocal starts an in-process client. Close it to stop the engine.
func NewLocal(opts LocalOptions) (*Local, error) {
	eng, err := engine.New(engine.Options{Workers: opts.Workers, CacheDir: opts.CacheDir, JournalDir: opts.JournalDir})
	if err != nil {
		return nil, err
	}
	if opts.JournalDir != "" {
		// In-process clients have no 503-and-retry protocol to ride out
		// replay; block until the registries are rebuilt instead.
		if err := eng.WaitReady(context.Background()); err != nil {
			eng.Close()
			return nil, err
		}
	}
	return &Local{
		eng: eng,
		sweeps: localJobs[engine.Sweep, engine.SweepEvent, Result, Event]{
			noun: "sweep", get: eng.Get, wait: eng.Wait, subscribe: eng.Subscribe, cancel: eng.Cancel,
			info:   engine.Sweep.Info,
			strip:  func(sw engine.Sweep) engine.Sweep { sw.Results = nil; return sw },
			result: sweepResult, event: sweepEvent,
		},
		mcs: localJobs[engine.MCJob, engine.MCEvent, MCResult, MCEvent]{
			noun: "mc job", get: eng.GetMC, wait: eng.WaitMC, subscribe: eng.SubscribeMC, cancel: eng.CancelMC,
			info:   engine.MCJob.Info,
			strip:  func(job engine.MCJob) engine.MCJob { job.Points = nil; return job },
			result: mcResult, event: mcEvent,
		},
	}, nil
}

// Close stops the engine, draining in-flight sweeps.
func (l *Local) Close() error {
	l.eng.Close()
	return nil
}

// Run implements Client.
func (l *Local) Run(ctx context.Context, spec *Spec) (*Result, error) {
	id, err := l.Submit(ctx, spec)
	return runJob(ctx, id, err, l.Wait, l.Results)
}

// Submit implements Client.
func (l *Local) Submit(_ context.Context, spec *Spec) (string, error) {
	return l.eng.Submit(spec.request())
}

// Status implements Client.
func (l *Local) Status(_ context.Context, id string) (*Result, error) { return l.sweeps.status(id) }

// Wait implements Client.
func (l *Local) Wait(ctx context.Context, id string) (*Result, error) {
	return l.sweeps.waitFor(ctx, id)
}

// Results implements Client.
func (l *Local) Results(_ context.Context, id string) (*Result, error) { return l.sweeps.results(id) }

// Events implements Client.
func (l *Local) Events(ctx context.Context, id string) (<-chan Event, error) {
	return l.sweeps.events(ctx, id)
}

// Cancel implements Client.
func (l *Local) Cancel(_ context.Context, id string) error { return l.sweeps.cancelJob(id) }

// CacheStats implements Client.
func (l *Local) CacheStats(_ context.Context) (*CacheStats, error) {
	stats := l.eng.CacheStats()
	out := cacheStats(stats)
	out.Hits = stats.Hits()
	out.Executions = l.eng.Executions()
	return &out, nil
}

// Adder builds a hardware-oracle adder for one operator of the spec at
// one operating triad: the timing simulator pinned at that point, exposed
// as a functional adder. It reuses the engine's memoized synthesis, so a
// characterized operator costs nothing extra to instrument. Local only —
// the oracle steps a netlist in-process, which no remote transport can
// do per-operation at a sane cost.
func (l *Local) Adder(ctx context.Context, spec *Spec, arch string, width int, tr Triad) (Adder, error) {
	req := spec.request()
	cfg, err := req.OperatorConfig(arch, width)
	if err != nil {
		return nil, err
	}
	prep, err := l.eng.Prepare(ctx, cfg)
	if err != nil {
		return nil, err
	}
	return charz.NewEngineAdder(prep.Netlist, cfg, triad.Triad(tr))
}

// Local's conversions from the engine's wire types to the SDK types.
// Each returns exactly what a JSON round trip through the shared schema
// returns, which is what Remote decodes from a daemon, so Local and
// Remote results are equal under reflect.DeepEqual:
//   - slices are copied, nil staying nil and empty staying empty ([] and
//     null decode apart), except that an empty omitempty list becomes
//     nil;
//   - fields the SDK type lacks are dropped (a sweep's Request, an MC
//     point's RepLo/RepHi);
//   - timestamps come back as wireTime returns them.
//
// JSON would alter invalid UTF-8 and refuse NaN or ±Inf; the engine's
// strings and floats hold neither.

func sweepResult(sw engine.Sweep) *Result {
	r := &Result{ID: sw.ID, Status: string(sw.Status), Error: sw.Error,
		Created: wireTime(sw.Created), Started: wireTime(sw.Started), Finished: wireTime(sw.Finished),
		Progress: Progress(sw.Progress)}
	if len(sw.Results) > 0 {
		r.Operators = convertSlice(sw.Results, operator)
	}
	return r
}

func operator(op engine.OperatorResult) Operator {
	o := Operator{Bench: op.Bench, Arch: op.Arch, Width: op.Width,
		Points: convertSlice(op.Points, point), SortedIdx: slices.Clone(op.SortedIdx)}
	if op.Report != nil {
		rep := Report(*op.Report)
		o.Report = &rep
	}
	return o
}

func point(ps engine.PointSummary) Point {
	stats := ErrorStats(ps.Stats)
	stats.PerBit = slices.Clone(stats.PerBit)
	return Point{Triad: Triad(ps.Triad), Stats: stats, BER: ps.BER, WER: ps.WER,
		PerBit: slices.Clone(ps.PerBit), EnergyPerOpFJ: ps.EnergyPerOpFJ,
		LateFraction: ps.LateFraction, Efficiency: ps.Efficiency, FromCache: ps.FromCache,
		Fidelity: fidelity(ps.Fidelity)}
}

func fidelity(f *core.Fidelity) *Fidelity {
	if f == nil {
		return nil
	}
	out := Fidelity(*f)
	return &out
}

func sweepEvent(ev engine.SweepEvent) Event {
	out := Event{Type: ev.Type, SweepID: ev.SweepID, Status: string(ev.Status),
		Progress: Progress(ev.Progress), Bench: ev.Bench, Arch: ev.Arch, Width: ev.Width, Error: ev.Error}
	if ev.Point != nil {
		p := point(*ev.Point)
		out.Point = &p
	}
	return out
}

func mcResult(job engine.MCJob) *MCResult {
	r := &MCResult{ID: job.ID, Status: string(job.Status), Error: job.Error,
		Created: wireTime(job.Created), Started: wireTime(job.Started), Finished: wireTime(job.Finished),
		Progress: Progress(job.Progress)}
	if len(job.Points) > 0 {
		r.Points = convertSlice(job.Points, mcPoint)
	}
	return r
}

func mcPoint(p engine.MCPoint) MCPoint {
	return MCPoint{Kernel: p.Kernel, Metric: p.Metric, Triad: Triad(p.Triad), Samples: p.Samples,
		Reps: p.Reps, Mean: p.Mean, Min: p.Min, Max: p.Max, RepMetrics: slices.Clone(p.RepMetrics),
		ErrHist: slices.Clone(p.ErrHist), Outputs: p.Outputs, ErrorOutputs: p.ErrorOutputs,
		ErrorRate: p.ErrorRate, EnergyPerOpFJ: p.EnergyPerOpFJ, Fidelity: fidelity(p.Fidelity)}
}

func mcEvent(ev engine.MCEvent) MCEvent {
	out := MCEvent{Type: ev.Type, JobID: ev.JobID, Status: string(ev.Status),
		Progress: Progress(ev.Progress), Error: ev.Error}
	if ev.Point != nil {
		p := mcPoint(*ev.Point)
		out.Point = &p
	}
	return out
}

func cacheStats(s engine.CacheStats) CacheStats {
	return CacheStats{MemHits: s.MemHits, DiskHits: s.DiskHits, Misses: s.Misses, Stores: s.Stores,
		WriteErrors: s.WriteErrors, CorruptEntries: s.CorruptEntries, MemEntries: s.MemEntries,
		PeerHits: s.PeerHits, PeerMisses: s.PeerMisses, PeerErrors: s.PeerErrors,
		PeerPushes: s.PeerPushes, PeerPushDrops: s.PeerPushDrops,
		PeerPushQueueDepth: s.PeerPushQueueDepth, PeerPushQueueCap: s.PeerPushQueueCap,
		DiskDegraded: s.DiskDegraded, DegradedWrites: s.DegradedWrites, GroupedPoints: s.GroupedPoints}
}

// convertSlice maps in through f, nil to nil.
func convertSlice[T, U any](in []T, f func(T) U) []U {
	if in == nil {
		return nil
	}
	out := make([]U, len(in))
	for i, v := range in {
		out[i] = f(v)
	}
	return out
}

// wireTime is t as a JSON round trip returns it: without its monotonic
// reading, and in UTC when its offset is zero. Other offsets take time's
// own JSON codec, which picks the Location (Local or a fixed zone) the
// decoder would; the engine's wall-clock stamps always encode.
func wireTime(t time.Time) time.Time {
	if _, off := t.Zone(); off == 0 {
		return t.UTC()
	}
	var out time.Time
	if b, err := t.MarshalJSON(); err == nil && out.UnmarshalJSON(b) == nil {
		return out
	}
	return t.Round(0)
}
