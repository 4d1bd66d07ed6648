package vos

// Monte Carlo jobs: the SDK surface of the daemon's /v1/mc service.
// An MCSpec describes application kernels to run at million-sample
// scale on the calibrated error-model backend; MCResult carries the
// per-(kernel, operating point) quality statistics back. Like sweeps,
// the same MCSpec yields byte-identical results through Local and
// Remote — and through a sharded cluster, whose rep-range partials
// merge deterministically.

import (
	"context"
	"fmt"
	"time"

	"repro/internal/engine"
	"repro/internal/triad"
)

// MCSpec describes one Monte Carlo job: which application kernels to
// run, on which operator, at which operating points, and how many
// samples per point. Builder methods return the receiver:
//
//	vos.NewMCSpec("fir", "kmeans").Arch("RCA").Samples(1_000_000)
//
// The zero kernel list is invalid — a job needs at least one kernel.
type MCSpec struct {
	req engine.MCRequest
}

// NewMCSpec returns a spec running the named kernels ("fir", "blur",
// "sobel", "kmeans") with default settings: an RCA operator over its
// paper triad set, one million samples per point, seed 1.
func NewMCSpec(kernels ...string) *MCSpec {
	s := &MCSpec{}
	s.req.Kernels = append([]string(nil), kernels...)
	return s
}

// Arch selects the adder architecture ("RCA", "BKA", "KSA", "SKL",
// "CSEL"). Default: RCA. The operand width is fixed at the application
// word width.
func (s *MCSpec) Arch(name string) *MCSpec {
	s.req.Arch = name
	return s
}

// Seed drives every deterministic stream of the job; equal seeds give
// bit-identical results on any cluster shape. Default: 1.
func (s *MCSpec) Seed(seed uint64) *MCSpec {
	s.req.Seed = seed
	return s
}

// Samples sets the per-(kernel, point) sample budget, rounded up to
// whole kernel reps. Default: 1e6.
func (s *MCSpec) Samples(n int64) *MCSpec {
	s.req.Samples = n
	return s
}

// Patterns sets the stimulus budget of the underlying model sweep
// configuration (default 2000). It does not change Monte Carlo results;
// it exists so shard sub-jobs reproduce their coordinator's operator
// configuration exactly.
func (s *MCSpec) Patterns(n int) *MCSpec {
	s.req.Patterns = n
	return s
}

// RepRange restricts the job to the rep range [lo, hi) of every point —
// the shape a vosd cluster's shard sub-jobs take, which is why
// rep-range jobs always execute on the node that received them instead
// of being re-sharded. Results carry RepLo/RepHi markers and merge
// deterministically with the other ranges' partials.
func (s *MCSpec) RepRange(lo, hi int) *MCSpec {
	s.req.RepLo, s.req.RepHi = lo, hi
	return s
}

// PaperTriads selects the operator's Table III triad set (the default).
func (s *MCSpec) PaperTriads() *MCSpec {
	s.req.Policy = PolicyPaper
	s.req.Triads = nil
	return s
}

// Triads runs the job at exactly these operating points.
func (s *MCSpec) Triads(ts ...Triad) *MCSpec {
	s.req.Policy = PolicyExplicit
	s.req.Triads = make([]triad.Triad, len(ts))
	for i, t := range ts {
		s.req.Triads[i] = triad.Triad(t)
	}
	return s
}

// Lease makes the job coordinator-leased — see Spec.Lease; the same
// observation-or-cancel contract applied to Monte Carlo jobs.
func (s *MCSpec) Lease(d time.Duration) *MCSpec {
	s.req.LeaseSec = int((d + time.Second - 1) / time.Second)
	return s
}

// Validate checks the spec without running it.
func (s *MCSpec) Validate() error {
	r := s.req
	return (&r).Validate()
}

// request returns the engine-level request. The copy keeps the spec
// reusable after submission.
func (s *MCSpec) request() engine.MCRequest { return s.req }

// Fidelity is a trained error model's cross-validation report: how the
// model's error statistics compare against the gate-level oracle on a
// held-out pattern stream, and which trained table produced the result.
type Fidelity struct {
	// SNRdB is the modeled-vs-exact signal-to-noise ratio (capped at 99
	// for exact matches); DeltaBER the |model − hardware| bit-error-rate
	// gap the fidelity gate bounds.
	SNRdB       float64 `json:"snrDB"`
	DeltaBER    float64 `json:"deltaBER"`
	BERModel    float64 `json:"berModel"`
	BERHardware float64 `json:"berHardware"`
	// TrainPatterns/EvalPatterns are the calibration recipe's budgets.
	TrainPatterns int `json:"trainPatterns"`
	EvalPatterns  int `json:"evalPatterns"`
	// Fingerprint is the content hash of the trained table.
	Fingerprint string `json:"fingerprint"`
}

// MCPoint is one (kernel, operating point) cell of a Monte Carlo job.
type MCPoint struct {
	Kernel string `json:"kernel"`
	// Metric names the quality statistic of RepMetrics/Mean/Min/Max:
	// "snr" or "psnr" (dB, capped at 99 for exact outputs) or "rmse".
	Metric string `json:"metric"`
	Triad  Triad  `json:"triad"`
	// Samples is the number of input samples processed; Reps the number
	// of independent kernel repetitions they were drawn over.
	Samples int64 `json:"samples"`
	Reps    int   `json:"reps"`
	// Mean/Min/Max summarize RepMetrics, the per-rep quality series in
	// rep order.
	Mean       float64   `json:"mean"`
	Min        float64   `json:"min"`
	Max        float64   `json:"max"`
	RepMetrics []float64 `json:"repMetrics"`
	// ErrHist is the output-error magnitude histogram: bin 0 counts
	// exact outputs, bin i errors of bit-length i.
	ErrHist      []uint64 `json:"errHist"`
	Outputs      int64    `json:"outputs"`
	ErrorOutputs int64    `json:"errorOutputs"`
	ErrorRate    float64  `json:"errorRate"`
	// EnergyPerOpFJ is the operating point's oracle-measured per-add
	// energy; Fidelity the error model's cross-validation report.
	EnergyPerOpFJ float64   `json:"energyPerOpFJ"`
	Fidelity      *Fidelity `json:"fidelity,omitempty"`
}

// MCResult is a Monte Carlo job snapshot.
type MCResult struct {
	ID     string `json:"id"`
	Status string `json:"status"`
	Error  string `json:"error,omitempty"`

	Created  time.Time `json:"created"`
	Started  time.Time `json:"started,omitzero"`
	Finished time.Time `json:"finished,omitzero"`

	// Progress counts (kernel × operating point) cells.
	Progress Progress `json:"progress"`
	// Points is populated once Status is done, kernel-major in spec
	// order.
	Points []MCPoint `json:"points,omitempty"`
}

// Point returns the result's cell for a kernel and triad, or nil.
func (r *MCResult) Point(kernel string, tr Triad) *MCPoint {
	for i := range r.Points {
		if r.Points[i].Kernel == kernel && r.Points[i].Triad == tr {
			return &r.Points[i]
		}
	}
	return nil
}

// MCEvent is one entry of a Monte Carlo job's event stream.
type MCEvent struct {
	Type   string `json:"type"`
	JobID  string `json:"jobId"`
	Status string `json:"status"`
	// Progress is the job's counter set as of this event; Point the
	// completed cell of a point event.
	Progress Progress `json:"progress"`
	Point    *MCPoint `json:"point,omitempty"`
	// Error carries the failure reason of failed/canceled events.
	Error string `json:"error,omitempty"`
}

// Terminal reports whether this event ends its stream.
func (e MCEvent) Terminal() bool { return terminal(e.Type) }

func (e MCEvent) pointKey() string {
	if e.Type != EventPoint || e.Point == nil {
		return ""
	}
	return fmt.Sprintf("%s|%v", e.Point.Kernel, e.Point.Triad)
}

func (r MCResult) jobStatus() string { return r.Status }

// --- Local implementation ---

// RunMC implements Client.
func (l *Local) RunMC(ctx context.Context, spec *MCSpec) (*MCResult, error) {
	id, err := l.SubmitMC(ctx, spec)
	return runJob(ctx, id, err, l.WaitMC, l.MCResults)
}

// SubmitMC implements Client.
func (l *Local) SubmitMC(_ context.Context, spec *MCSpec) (string, error) {
	return l.eng.SubmitMC(spec.request())
}

// MCStatus implements Client.
func (l *Local) MCStatus(_ context.Context, id string) (*MCResult, error) { return l.mcs.status(id) }

// WaitMC implements Client.
func (l *Local) WaitMC(ctx context.Context, id string) (*MCResult, error) {
	return l.mcs.waitFor(ctx, id)
}

// MCResults implements Client.
func (l *Local) MCResults(_ context.Context, id string) (*MCResult, error) { return l.mcs.results(id) }

// MCEvents implements Client.
func (l *Local) MCEvents(ctx context.Context, id string) (<-chan MCEvent, error) {
	return l.mcs.events(ctx, id)
}

// CancelMC implements Client.
func (l *Local) CancelMC(_ context.Context, id string) error { return l.mcs.cancelJob(id) }

// --- Remote implementation ---

// RunMC implements Client, in three calls as Run does.
func (c *Remote) RunMC(ctx context.Context, spec *MCSpec) (*MCResult, error) {
	id, err := c.SubmitMC(ctx, spec)
	return c.mcs.run(ctx, id, err)
}

// SubmitMC implements Client.
func (c *Remote) SubmitMC(ctx context.Context, spec *MCSpec) (string, error) {
	return c.mcs.submit(ctx, spec.Validate(), spec.request())
}

// MCStatus implements Client.
func (c *Remote) MCStatus(ctx context.Context, id string) (*MCResult, error) {
	return c.mcs.status(ctx, id)
}

// WaitMC implements Client: follow the event stream when available,
// fall back to polling the status endpoint. Reconnect-mode semantics
// match Wait: transient failures are retried, a 404 ends the wait.
func (c *Remote) WaitMC(ctx context.Context, id string) (*MCResult, error) {
	return c.mcs.wait(ctx, id)
}

// MCResults implements Client.
func (c *Remote) MCResults(ctx context.Context, id string) (*MCResult, error) {
	return c.mcs.results(ctx, id)
}

// MCEvents implements Client: the job's NDJSON event stream, read line
// by line; canceling the context closes it. Reconnect-mode semantics
// match Events: dropped streams reopen against the daemon's replayed
// history, duplicate point events (keyed by kernel and triad) are
// skipped.
func (c *Remote) MCEvents(ctx context.Context, id string) (<-chan MCEvent, error) {
	return c.mcs.events(ctx, id)
}

// CancelMC implements Client.
func (c *Remote) CancelMC(ctx context.Context, id string) error { return c.mcs.cancel(ctx, id) }
