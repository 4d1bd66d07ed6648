package engine

// Monte Carlo jobs: application kernels (internal/apps) run at
// million-sample scale on the calibrated model backend, one job per
// (kernel × operating point) grid. The expensive part — gate-level
// simulation — happens only during calibration (once per operating
// point, memoized); every sample after that goes through the trained
// P(C | Cthmax) table, which is what makes N ≥ 1e6 per point tractable.
//
// Work is cut into reps: one rep is a self-contained kernel run on a
// deterministically seeded input instance (apps.MCKernel.RepSize
// samples). Rep seeds derive from (job seed, kernel, triad, rep index)
// only — never from shard boundaries — so any contiguous rep range can
// be computed on any node and merged back in rep order with
// byte-identical results.

import (
	"context"
	"fmt"
	"iter"
	"sort"
	"time"

	"repro/internal/apps"
	"repro/internal/charz"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/synth"
	"repro/internal/triad"
)

// MCRequest describes one Monte Carlo job.
type MCRequest struct {
	// Kernels are apps.MCKernels catalog names ("fir", "blur", "sobel",
	// "kmeans"); at least one is required.
	Kernels []string `json:"kernels"`
	// Arch is the adder architecture (default "RCA"). The operand width
	// is fixed at the application word width (apps.Word).
	Arch string `json:"arch,omitempty"`
	// Patterns is the per-point stimulus budget of the underlying model
	// sweep configuration (default 2000). It does not change Monte Carlo
	// results — calibration budgets come from the model recipe — but is
	// part of the operator configuration the job runs under.
	Patterns int `json:"patterns,omitempty"`
	// Seed drives every deterministic stream of the job; default 1.
	Seed uint64 `json:"seed,omitempty"`
	// Samples is the per-(kernel, point) sample budget, rounded up to
	// whole reps; default 1e6.
	Samples int64 `json:"samples,omitempty"`
	// Policy selects the operating points: PolicyPaper (default) sweeps
	// the operator's Table III triad set, PolicyExplicit exactly Triads.
	Policy string        `json:"policy,omitempty"`
	Triads []triad.Triad `json:"triads,omitempty"`
	// RepLo/RepHi restrict every point to the rep range [RepLo, RepHi) —
	// the shape cluster shard sub-jobs take. Range jobs always run on
	// the node that received them (they are never re-sharded), which is
	// what terminates shard recursion. Both zero means the full range.
	RepLo int `json:"repLo,omitempty"`
	RepHi int `json:"repHi,omitempty"`
	// LeaseSec, when positive, makes the job coordinator-leased — see
	// Request.LeaseSec; cluster rep-range sub-jobs set it.
	LeaseSec int `json:"leaseSec,omitempty"`
}

// defaultMCSamples is the per-point sample budget when the request
// leaves it zero — the paper-scale "million samples per operating
// point".
const defaultMCSamples = 1_000_000

// maxMCSamples bounds a single request; beyond this the per-point rep
// metric arrays stop being a sane payload.
const maxMCSamples = int64(1) << 32

// Validate checks the request without mutating it: defaults are applied
// to a scratch copy and only the error is kept.
func (r MCRequest) Validate() error { return (&r).normalize() }

// normalize validates the request and fills defaults in place.
func (r *MCRequest) normalize() error {
	if len(r.Kernels) == 0 {
		return fmt.Errorf("engine: mc request needs at least one kernel")
	}
	seen := make(map[string]bool)
	for _, k := range r.Kernels {
		if _, ok := apps.MCKernelByName(k); !ok {
			return fmt.Errorf("engine: unknown mc kernel %q", k)
		}
		if seen[k] {
			return fmt.Errorf("engine: duplicate mc kernel %q", k)
		}
		seen[k] = true
	}
	if r.Arch == "" {
		r.Arch = "RCA"
	}
	if _, err := archByName(r.Arch); err != nil {
		return err
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
	if r.Samples == 0 {
		r.Samples = defaultMCSamples
	}
	if r.Samples < 1 || r.Samples > maxMCSamples {
		return fmt.Errorf("engine: mc samples %d outside [1, %d]", r.Samples, maxMCSamples)
	}
	switch r.Policy {
	case "":
		r.Policy = PolicyPaper
	case PolicyPaper:
	case PolicyExplicit:
		if len(r.Triads) == 0 {
			return fmt.Errorf("engine: explicit mc policy needs triads")
		}
	default:
		return fmt.Errorf("engine: unsupported mc triad policy %q", r.Policy)
	}
	if r.Policy != PolicyExplicit && len(r.Triads) > 0 {
		return fmt.Errorf("engine: triads given but policy is %q", r.Policy)
	}
	for _, tr := range r.Triads {
		if err := tr.Validate(); err != nil {
			return err
		}
	}
	if r.RepLo < 0 || r.RepHi < 0 || (r.RepHi > 0 && r.RepLo >= r.RepHi) {
		return fmt.Errorf("engine: mc rep range [%d, %d) invalid", r.RepLo, r.RepHi)
	}
	if r.RepHi == 0 && r.RepLo != 0 {
		return fmt.Errorf("engine: mc rep range open at %d", r.RepLo)
	}
	if r.LeaseSec < 0 {
		return fmt.Errorf("engine: negative lease %d", r.LeaseSec)
	}
	return nil
}

// MCReps returns the whole-rep count a sample budget rounds up to for
// one kernel.
func MCReps(samples int64, k apps.MCKernel) int {
	return int((samples + int64(k.RepSize) - 1) / int64(k.RepSize))
}

// MCPoint is the serializable per-(kernel, operating point) outcome.
type MCPoint struct {
	Kernel string      `json:"kernel"`
	Metric string      `json:"metric"`
	Triad  triad.Triad `json:"triad"`
	// Samples is the number of input samples actually processed
	// (Reps × the kernel's rep size — the budget rounded up to whole
	// reps).
	Samples int64 `json:"samples"`
	// Reps is the rep count behind this point; RepLo/RepHi are set only
	// on shard partials, where Reps covers just the partial's range.
	Reps  int `json:"reps"`
	RepLo int `json:"repLo,omitempty"`
	RepHi int `json:"repHi,omitempty"`
	// Mean/Min/Max summarize RepMetrics, the per-rep quality series in
	// rep order (the kernel's Metric: SNR or PSNR in dB, RMSE in output
	// units). The mean is folded over the series in rep order, so a
	// merged distributed run reproduces a local run bit-for-bit.
	Mean       float64   `json:"mean"`
	Min        float64   `json:"min"`
	Max        float64   `json:"max"`
	RepMetrics []float64 `json:"repMetrics"`
	// ErrHist is the output-error magnitude histogram (apps.MCHistBins
	// bins: bin 0 exact, bin i errors of bit-length i); Outputs and
	// ErrorOutputs the totals behind ErrorRate.
	ErrHist      []uint64 `json:"errHist"`
	Outputs      int64    `json:"outputs"`
	ErrorOutputs int64    `json:"errorOutputs"`
	ErrorRate    float64  `json:"errorRate"`
	// EnergyPerOpFJ is the oracle-measured per-add energy of the
	// operating point (from calibration); Fidelity the point's model
	// cross-validation report.
	EnergyPerOpFJ float64        `json:"energyPerOpFJ"`
	Fidelity      *core.Fidelity `json:"fidelity,omitempty"`
}

// MCJob is the public snapshot of a submitted Monte Carlo job.
type MCJob struct {
	ID       string    `json:"id"`
	Request  MCRequest `json:"request"`
	Status   Status    `json:"status"`
	Error    string    `json:"error,omitempty"`
	Created  time.Time `json:"created"`
	Started  time.Time `json:"started,omitzero"`
	Finished time.Time `json:"finished,omitzero"`
	// Progress counts (kernel × point) cells; CacheHits is always zero
	// (Monte Carlo reps are recomputed, not cached).
	Progress Progress `json:"progress"`
	// Points is populated once Status is done, kernel-major in request
	// order, triads in grid order.
	Points []MCPoint `json:"points,omitempty"`
}

// MCEvent is one entry of a job's event stream — the wire type of the
// daemon's GET /v1/mc/{id}/events NDJSON stream.
type MCEvent struct {
	Type     string   `json:"type"`
	JobID    string   `json:"jobId"`
	Status   Status   `json:"status"`
	Progress Progress `json:"progress"`
	// Point is the completed cell's summary (point events only).
	Point *MCPoint `json:"point,omitempty"`
	// Error carries the failure reason of a failed/canceled terminal
	// event.
	Error string `json:"error,omitempty"`
}

// Info returns the snapshot's lifecycle fields.
func (j MCJob) Info() JobInfo {
	return JobInfo{ID: j.ID, Kind: JobKindMC, Status: j.Status, Error: j.Error, Created: j.Created,
		Started: j.Started, Finished: j.Finished, Progress: j.Progress}
}

type mcJob = job[MCRequest, []MCPoint, MCJob, MCEvent]

// mcKind is the Monte Carlo job kind: IDs "mc-000001", …, journal
// records "mc.*" with each completed cell on its own point record.
func (e *Engine) mcKind() *jobKind[MCRequest, []MCPoint, MCJob, MCEvent] {
	return &jobKind[MCRequest, []MCPoint, MCJob, MCEvent]{
		name: JobKindMC, prefix: "mc-", noun: "mc job",
		normalize: (*MCRequest).normalize,
		leaseSec:  func(r *MCRequest) int { return r.LeaseSec },
		run:       e.runMC,
		snapshot: func(h *JobInfo, req MCRequest, out []MCPoint) MCJob {
			return MCJob{ID: h.ID, Request: req, Status: h.Status, Error: h.Error, Created: h.Created,
				Started: h.Started, Finished: h.Finished, Progress: h.Progress,
				Points: append([]MCPoint(nil), out...)}
		},
		event: func(h *JobInfo, typ string) MCEvent {
			return MCEvent{Type: typ, JobID: h.ID, Status: h.Status, Progress: h.Progress, Error: h.Error}
		},
		pointEvents: func(h *JobInfo, out []MCPoint) []MCEvent {
			evs := make([]MCEvent, len(out))
			for i, p := range out {
				evs[i] = MCEvent{Type: EventPoint, JobID: h.ID, Status: h.Status, Progress: h.Progress, Point: &p}
			}
			return evs
		},
		walReq: func(w *walRec) **MCRequest { return &w.MCReq },
		fromCells: func(cells []*MCPoint) []MCPoint {
			out := make([]MCPoint, len(cells))
			for i, c := range cells {
				out[i] = *c
			}
			return out
		},
	}
}

// SubmitMC registers a Monte Carlo job and starts it asynchronously,
// returning its ID. During journal replay it refuses with
// ErrRecovering, after StartDrain with ErrDraining.
func (e *Engine) SubmitMC(req MCRequest) (string, error) { return e.mcs.submit(req) }

// MCJobCount returns the number of Monte Carlo jobs ever submitted to
// this engine, including cluster rep-range sub-jobs (tests use it to
// confirm a job was actually distributed).
func (e *Engine) MCJobCount() uint64 {
	e.jobsMu.Lock()
	defer e.jobsMu.Unlock()
	return e.mcs.seq
}

// GetMC returns a snapshot of the job with the given ID. A lookup
// counts as an observation for the job's coordinator lease, if any.
func (e *Engine) GetMC(id string) (MCJob, bool) { return e.mcs.get(id) }

// CancelMC cancels a pending or running job. Like Cancel, it returns
// ErrUnknownJob for an unknown ID and ErrAlreadyDone for a job already
// in a terminal state.
func (e *Engine) CancelMC(id string) error { return e.mcs.cancelJob(id) }

// WaitMC blocks until the job finishes (any terminal status) or the
// context is canceled, returning the final snapshot.
func (e *Engine) WaitMC(ctx context.Context, id string) (MCJob, error) { return e.mcs.wait(ctx, id) }

// SubscribeMC returns the job's event stream: every event published so
// far, then the live ones, ending after the terminal event or once ctx
// is done, each with whether the stream has caught up after it.
// Semantics match Subscribe (sweeps) exactly.
func (e *Engine) SubscribeMC(ctx context.Context, id string) (iter.Seq2[MCEvent, bool], bool) {
	return e.mcs.subscribe(ctx, id)
}

// kernelSeed folds a kernel name into a job seed so each kernel of a
// job draws from an independent deterministic stream.
func kernelSeed(seed uint64, kernel string) uint64 {
	h := seed
	for _, c := range kernel {
		h = h*0x100000001b3 + uint64(c)
	}
	return h
}

// mcPointSeed is the base seed of one (kernel, triad) cell; every rep
// seed derives from it via model.RepSeed.
func mcPointSeed(req *MCRequest, kernel string, tr triad.Triad) uint64 {
	return model.PointSeed(kernelSeed(req.Seed, kernel), tr.Tclk, tr.Vdd, tr.Vbb)
}

// mcChunkReps is the most reps one pool job computes in local
// execution, so a single point parallelizes across the pool. Chunking
// never changes results: partials merge in rep order.
const mcChunkReps = 32

// mcChunks cuts the rep range [lo, hi) into local execution's chunks, in
// rep order: a multiple of workers chunks (one per rep when the range
// has fewer reps than workers), each of at most mcChunkReps reps, whose
// sizes differ by at most one, larger first. Workers taking the chunks
// in order thus finish within about one rep of each other.
func mcChunks(lo, hi, workers int) [][2]int {
	n := hi - lo
	per := mcChunkReps * workers
	out := make([][2]int, min(n, (n+per-1)/per*workers))
	size, extra := n/len(out), n%len(out)
	for i := range out {
		end := lo + size
		if i < extra {
			end++
		}
		out[i] = [2]int{lo, end}
		lo = end
	}
	return out
}

// runMC executes one job: prepare the operator, expand the (kernel ×
// triad) grid, fan cells out (to the cluster when sharded, the local
// pool otherwise), fold results.
func (e *Engine) runMC(ctx context.Context, j *mcJob) ([]MCPoint, error) {
	req := j.req
	cfg := charz.Config{
		Arch:     mustArch(req.Arch),
		Width:    apps.Word,
		Patterns: req.Patterns,
		Seed:     req.Seed,
		Backend:  charz.BackendModel,
	}
	prep, err := e.Prepare(ctx, cfg)
	if err != nil {
		return nil, err
	}
	trs := req.Triads
	if req.Policy != PolicyExplicit {
		trs = prep.TriadSet()
	}
	type cell struct {
		kernel apps.MCKernel
		tr     triad.Triad
	}
	cells := make([]cell, 0, len(req.Kernels)*len(trs))
	for _, kn := range req.Kernels {
		k, _ := apps.MCKernelByName(kn)
		for _, tr := range trs {
			cells = append(cells, cell{kernel: k, tr: tr})
		}
	}
	j.running(len(cells))

	points := make([]MCPoint, len(cells))
	tasks := make([]func() error, len(cells))
	for ci, c := range cells {
		tasks[ci] = func() error {
			// A cell already journaled by a previous incarnation of this
			// job (crash recovery) is served from the replayed payload —
			// reps are recomputed nowhere.
			j.mu.Lock()
			pt := j.cells[ci]
			j.mu.Unlock()
			cached := pt != nil
			if !cached {
				var err error
				if pt, err = e.runCell(ctx, prep, &req, c.kernel, c.tr); err != nil {
					return err
				}
				e.mcs.journalCell(j, ci, pt)
			}
			points[ci] = *pt
			j.point(cached, func(ev *MCEvent) {
				p := *pt
				ev.Type, ev.Point = EventPoint, &p
			})
			return nil
		}
	}
	if err := j.fanOut(tasks); err != nil {
		return nil, err
	}
	return points, nil
}

// runCell computes one (kernel, triad) cell: through the sharder for a
// full-range point of a clustered engine, on the local pool otherwise.
func (e *Engine) runCell(ctx context.Context, prep *charz.Prepared, req *MCRequest,
	k apps.MCKernel, tr triad.Triad) (*MCPoint, error) {
	reps := MCReps(req.Samples, k)
	runLocal := func(lo, hi int) (*MCPoint, error) {
		return e.runMCRange(ctx, prep, req, k, tr, lo, hi)
	}
	if e.sharder != nil && req.RepHi == 0 {
		return e.sharder.RunMCPoint(ctx, *req, k.Name, tr, reps, runLocal)
	}
	lo, hi := 0, reps
	if req.RepHi > 0 {
		lo, hi = req.RepLo, min(req.RepHi, reps)
		if lo >= hi {
			return nil, fmt.Errorf("engine: mc rep range [%d, %d) outside [0, %d)", req.RepLo, req.RepHi, reps)
		}
	}
	return runLocal(lo, hi)
}

// mustArch resolves a pre-validated architecture name.
func mustArch(name string) synth.Arch {
	a, err := archByName(name)
	if err != nil {
		panic("engine: mc arch revalidation: " + err.Error())
	}
	return a
}

// runMCRange computes the rep range [lo, hi) of one cell on the local
// pool: calibrate (memoized), then feed the range's chunks (mcChunks) to
// the pool from at most Workers goroutines and merge the partials in rep
// order.
func (e *Engine) runMCRange(ctx context.Context, prep *charz.Prepared, req *MCRequest,
	k apps.MCKernel, tr triad.Triad, lo, hi int) (*MCPoint, error) {
	if lo < 0 || hi <= lo {
		return nil, fmt.Errorf("engine: mc rep range [%d, %d) invalid", lo, hi)
	}
	base := mcPointSeed(req, k.Name, tr)
	chunks := mcChunks(lo, hi, e.workers)
	parts := make([]*MCPoint, len(chunks))
	errs := make([]error, len(chunks))
	parallelFor(len(chunks), e.workers, func(i int) {
		ch := chunks[i]
		err := e.exec(ctx, func() {
			parts[i], errs[i] = e.mcChunk(prep, req, k, tr, base, ch[0], ch[1])
		})
		if err != nil {
			errs[i] = err
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	pt := MergeMCPartials(parts)
	if pt == nil {
		return nil, fmt.Errorf("engine: mc range [%d, %d) produced no partials", lo, hi)
	}
	return pt, nil
}

// mcChunk runs reps [lo, hi) of one cell on the calling goroutine (a
// pool worker).
func (e *Engine) mcChunk(prep *charz.Prepared, req *MCRequest, k apps.MCKernel,
	tr triad.Triad, base uint64, lo, hi int) (*MCPoint, error) {
	trained, err := e.calib.Point(prep, tr)
	if err != nil {
		return nil, err
	}
	pt := &MCPoint{
		Kernel:        k.Name,
		Metric:        k.Metric,
		Triad:         tr,
		Samples:       int64(hi-lo) * int64(k.RepSize),
		Reps:          hi - lo,
		RepLo:         lo,
		RepHi:         hi,
		RepMetrics:    make([]float64, 0, hi-lo),
		ErrHist:       make([]uint64, apps.MCHistBins),
		EnergyPerOpFJ: trained.EnergyPerOpFJ,
	}
	fid := trained.Fidelity
	pt.Fidelity = &fid
	for rep := lo; rep < hi; rep++ {
		seed := model.RepSeed(base, rep)
		approx, err := core.NewApproxAdder(trained.Model, seed)
		if err != nil {
			return nil, err
		}
		ar, err := apps.NewArith(approx)
		if err != nil {
			return nil, err
		}
		res, err := k.RunRep(seed, ar)
		if err != nil {
			return nil, err
		}
		pt.RepMetrics = append(pt.RepMetrics, res.Metric)
		for i, n := range res.Hist {
			pt.ErrHist[i] += n
		}
		pt.Outputs += res.Outputs
		pt.ErrorOutputs += res.Errors
	}
	finalizeMCPoint(pt)
	e.mcRepsExecuted.Add(uint64(hi - lo))
	return pt, nil
}

// finalizeMCPoint recomputes the derived fields (Mean/Min/Max,
// ErrorRate) from the raw series. The mean folds RepMetrics in rep
// order, so any partition of the same rep range finalizes to identical
// bytes after merging.
func finalizeMCPoint(pt *MCPoint) {
	if len(pt.RepMetrics) == 0 {
		return
	}
	sum := 0.0
	min, max := pt.RepMetrics[0], pt.RepMetrics[0]
	for _, m := range pt.RepMetrics {
		sum += m
		if m < min {
			min = m
		}
		if m > max {
			max = m
		}
	}
	pt.Mean = sum / float64(len(pt.RepMetrics))
	pt.Min, pt.Max = min, max
	if pt.Outputs > 0 {
		pt.ErrorRate = float64(pt.ErrorOutputs) / float64(pt.Outputs)
	}
}

// MergeMCPartials merges rep-range partials of one cell into one point
// covering their union. Partials are sorted by RepLo and must tile a
// contiguous range; the merged point's derived fields are recomputed
// from the concatenated series, so the result is byte-identical no
// matter how the range was cut (local chunks, cluster shards, or no
// split at all). A full-range merge (starting at rep 0) drops the
// RepLo/RepHi markers. Returns nil for no partials.
func MergeMCPartials(parts []*MCPoint) *MCPoint {
	if len(parts) == 0 {
		return nil
	}
	sorted := append([]*MCPoint(nil), parts...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].RepLo < sorted[j].RepLo })
	first := sorted[0]
	out := &MCPoint{
		Kernel:        first.Kernel,
		Metric:        first.Metric,
		Triad:         first.Triad,
		RepLo:         first.RepLo,
		ErrHist:       make([]uint64, len(first.ErrHist)),
		EnergyPerOpFJ: first.EnergyPerOpFJ,
	}
	if first.Fidelity != nil {
		fid := *first.Fidelity
		out.Fidelity = &fid
	}
	for _, p := range sorted {
		out.RepMetrics = append(out.RepMetrics, p.RepMetrics...)
		for i, n := range p.ErrHist {
			out.ErrHist[i] += n
		}
		out.Outputs += p.Outputs
		out.ErrorOutputs += p.ErrorOutputs
		out.Samples += p.Samples
		out.Reps += p.Reps
		out.RepHi = p.RepHi
	}
	finalizeMCPoint(out)
	if out.RepLo == 0 {
		out.RepLo, out.RepHi = 0, 0
	}
	return out
}
