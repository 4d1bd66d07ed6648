package vos

import (
	"context"
	"encoding/json"
	"fmt"

	"repro/internal/charz"
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
			info:  engine.Sweep.Info,
			strip: func(sw engine.Sweep) engine.Sweep { sw.Results = nil; return sw },
		},
		mcs: localJobs[engine.MCJob, engine.MCEvent, MCResult, MCEvent]{
			noun: "mc job", get: eng.GetMC, wait: eng.WaitMC, subscribe: eng.SubscribeMC, cancel: eng.CancelMC,
			info:  engine.MCJob.Info,
			strip: func(job engine.MCJob) engine.MCJob { job.Points = nil; return job },
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
	out := &CacheStats{}
	if err := reencode(stats, out); err != nil {
		return nil, err
	}
	out.Hits = stats.Hits()
	out.Executions = l.eng.Executions()
	return out, nil
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

// reencode converts between the engine's wire types and the SDK types
// through their shared JSON schema. One conversion path — the same bytes
// a daemon would serve — keeps Local and Remote results byte-identical.
func reencode(in, out any) error {
	data, err := json.Marshal(in)
	if err != nil {
		return fmt.Errorf("vos: encode: %w", err)
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("vos: decode: %w", err)
	}
	return nil
}
