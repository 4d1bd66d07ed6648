package main

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/vos"
)

// system is one booted instance of a workload's program set-up.
type system interface {
	// boot starts the program and does the workload's one-time work.
	// It is the first call into the program and counts toward setup_s.
	boot(ctx context.Context) error
	// op runs client c's n-th op of its kind and returns the work it
	// completed in the workload's throughput unit.
	op(ctx context.Context, c, n int, long bool) (float64, error)
	// startWindow and endWindow bracket the timed window; endWindow
	// runs the window-level output checks and, when traced, tallies the
	// window's program-side counters.
	startWindow()
	endWindow() error
	close()
}

// workload is one benchmark workload: a closed loop of clients, each
// running its long op every longEvery-th op and short ops in between.
//
// The op mix follows one rule: a cycle gives long and short ops about
// equal wall time, so neither kind's latency rests on a sliver of the
// window. longEvery-1 is the long op's median latency over the short
// op's, measured once on a 2-vCPU host and fixed here (NOTES.md has the
// numbers); serve_warm's nine short ops per long op are set by its
// definition and already give about equal time.
type workload struct {
	name      string
	clients   int
	longEvery int
	// rounds is how many times a run boots and sets the workload up, each
	// boot serving an equal share of the timed window. setup_s, the
	// throughput and the short-op tail are medians over the rounds: one
	// round is one sample of a short interval, and on a shared host a
	// burst of CPU steal can swamp any single one. The tail is taken per
	// round, so the round count also sets how many short ops it is taken
	// over (see shortTail).
	rounds int
	// warmLong and warmShort are the fixed counts of discarded long and
	// short ops set-up ends with, run one at a time.
	warmLong, warmShort int
	// inputs derives the workload's inputs from the seed; it runs
	// before any timing.
	inputs func(seed uint64) (any, error)
	// newSystem builds an unbooted system; it calls nothing in the
	// program.
	newSystem func(in any, env *env) system
}

// env is what a system gets from the runner.
type env struct {
	seed    uint64
	dir     string  // fresh per-system temp dir
	tr      *tracer // nil when untraced
	book    *digestBook
	workers int
	clients int
}

// tallyOp adds one traced op's program-side counters under its kind.
func (e *env) tallyOp(long bool, counters map[string]float64) {
	if !e.tr.on() {
		return
	}
	k := kindName(long)
	e.tr.count("ops."+k, 1)
	for name, v := range counters {
		e.tr.count(name+"."+k, v)
	}
}

func nproc() int { return runtime.NumCPU() }

var workloads = []*workload{
	{
		name:      "fig8_cold",
		clients:   1,
		longEvery: 13,
		rounds:    21,
		warmLong:  2,
		warmShort: 24,
		inputs:    func(seed uint64) (any, error) { return newSweepInputs(seed) },
		newSystem: func(in any, e *env) system { return &fig8Cold{in: in.(*sweepInputs), env: e} },
	},
	{
		name:      "serve_warm",
		clients:   min(2, nproc()),
		longEvery: 10,
		rounds:    21,
		warmLong:  2,
		warmShort: 18,
		inputs:    func(seed uint64) (any, error) { return newSweepInputs(seed) },
		newSystem: func(in any, e *env) system { return &serveWarm{in: in.(*sweepInputs), env: e} },
	},
	{
		name:      "mc_1e6",
		clients:   1,
		longEvery: 91,
		rounds:    7,
		warmLong:  0,
		warmShort: 8,
		inputs:    func(seed uint64) (any, error) { return newMCInputs(seed) },
		newSystem: func(in any, e *env) system { return &mc1e6{in: in.(*mcInputs), env: e} },
	},
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// ---- fig8_cold ----

// fig8Cold runs every op on a fresh vos.Local engine with a memory-only
// cache, so every op synthesizes and simulates from scratch: the long
// op is the whole Fig. 8 sweep (four operators × 43 triads, grouped
// path), the short op one explicit triad of one operator (solo path).
type fig8Cold struct {
	in  *sweepInputs
	env *env
}

func (f *fig8Cold) boot(context.Context) error { return nil }

// shortPick is client c's n-th short op: the operators in turn, so
// every run holds an equal share of each, at a seed-drawn triad.
func (in *sweepInputs) shortPick(seed uint64, c, n int) (operator, vos.Triad) {
	o := in.Operators[(n+pick(seed, 1, c, 0, len(in.Operators)))%len(in.Operators)]
	return o, o.Triads[pick(seed, 2, c, n, len(o.Triads))]
}

func fig8Key(long bool, o operator, tr vos.Triad) string {
	if long {
		return "long"
	}
	return fmt.Sprintf("short %s %s", o.name(), tr.Label())
}

func (f *fig8Cold) op(ctx context.Context, c, n int, long bool) (float64, error) {
	var spec *vos.Spec
	var key string
	work := float64(f.in.points() * patterns)
	if long {
		spec, key = f.in.fullSpec(), fig8Key(true, operator{}, vos.Triad{})
	} else {
		o, tr := f.in.shortPick(f.env.seed, c, n)
		spec, key, work = f.in.pointSpec(o, tr), fig8Key(false, o, tr), patterns
	}
	res, stats, resultsMs, err := runLocal(ctx, f.env, spec)
	if err != nil {
		return 0, err
	}
	if err := f.env.book.check(key, sweepDigest(res)); err != nil {
		return 0, err
	}
	if f.env.tr.on() {
		f.env.tallyOp(long, map[string]float64{
			"executed": float64(stats.Executions), "grouped": float64(stats.GroupedPoints), "results_ms": resultsMs,
		})
	}
	return work, nil
}

// runLocal runs one spec on a fresh in-process engine and returns the
// result, the engine's cache counters and the Local.Results time.
func runLocal(ctx context.Context, e *env, spec *vos.Spec) (*vos.Result, *vos.CacheStats, float64, error) {
	loc, err := vos.NewLocal(vos.LocalOptions{Workers: e.workers})
	if err != nil {
		return nil, nil, 0, err
	}
	defer loc.Close()
	var id string
	if err := e.tr.timed(ctx, "vos.local_submit", func() (err error) {
		id, err = loc.Submit(ctx, spec)
		return err
	}); err != nil {
		return nil, nil, 0, err
	}
	if err := e.tr.timed(ctx, "vos.local_wait", func() error {
		_, err := loc.Wait(ctx, id)
		return err
	}); err != nil {
		return nil, nil, 0, err
	}
	var res *vos.Result
	start := time.Now()
	if err := e.tr.timed(ctx, "vos.local_results", func() (err error) {
		res, err = loc.Results(ctx, id)
		return err
	}); err != nil {
		return nil, nil, 0, err
	}
	resultsMs := float64(time.Since(start)) / 1e6
	var stats *vos.CacheStats
	if e.tr != nil {
		if stats, err = loc.CacheStats(ctx); err != nil {
			return nil, nil, 0, err
		}
	}
	return res, stats, resultsMs, nil
}

func (f *fig8Cold) startWindow()     {}
func (f *fig8Cold) endWindow() error { return nil }

func (f *fig8Cold) close() {}

func kindName(long bool) string {
	if long {
		return "long"
	}
	return "short"
}

// ---- shared cluster plumbing ----

// fleet is a booted cluster.StartLocal with per-client vos.Remote
// handles to every member.
type fleet struct {
	lc      *cluster.LocalCluster
	remotes [][]*vos.Remote // [client][member]
	// notReadyAtStart counts the members whose engine was not ready
	// when StartLocal returned; notReady the 503 answers the readiness
	// wait rode out.
	notReadyAtStart int
	notReady        int
}

// clientHTTP is one benchmark client's HTTP client: a default transport
// of its own, as a separate client process would have, wrapped in the
// tracing transport only in traced runs.
func clientHTTP(tr *tracer) *http.Client {
	base := http.DefaultTransport.(*http.Transport).Clone()
	if tr == nil {
		return &http.Client{Transport: base}
	}
	return &http.Client{Transport: &clientTransport{t: tr, base: base}}
}

func startFleet(ctx context.Context, e *env, n, workers, clients int) (*fleet, error) {
	opts := cluster.LocalOptions{Workers: workers, JournalRoot: e.dir}
	if e.tr != nil {
		opts.PerNode = e.tr.nodeHooks
	}
	lc, err := cluster.StartLocal(n, opts)
	if err != nil {
		return nil, err
	}
	f := &fleet{lc: lc}
	for _, m := range lc.Members() {
		if m.Node.Engine().State() != "ready" {
			f.notReadyAtStart++
		}
	}
	probe := &http.Client{Transport: http.DefaultTransport.(*http.Transport).Clone()}
	defer probe.CloseIdleConnections()
	for _, u := range lc.URLs() {
		n, err := waitReady(ctx, probe, u)
		f.notReady += n
		if err != nil {
			f.close()
			return nil, err
		}
	}
	for c := 0; c < clients; c++ {
		httpc := clientHTTP(e.tr)
		var row []*vos.Remote
		for _, u := range lc.URLs() {
			r, err := vos.NewRemote(u, vos.RemoteOptions{HTTPClient: httpc, JitterSeed: int64(e.seed) + 1})
			if err != nil {
				f.close()
				return nil, err
			}
			row = append(row, r)
		}
		f.remotes = append(f.remotes, row)
	}
	return f, nil
}

// readyPoll paces the readiness wait.
const readyPoll = 2 * time.Millisecond

// waitReady polls GET /readyz until it answers 200, riding out the 503
// a journaled member answers while it replays. It returns how many 503s
// it saw.
func waitReady(ctx context.Context, c *http.Client, base string) (int, error) {
	notReady := 0
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/readyz", nil)
		if err != nil {
			return notReady, err
		}
		resp, err := c.Do(req)
		if err == nil {
			resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusOK:
				return notReady, nil
			case http.StatusServiceUnavailable:
				notReady++
			default:
				return notReady, fmt.Errorf("readyz %s: status %d", base, resp.StatusCode)
			}
		}
		select {
		case <-ctx.Done():
			return notReady, fmt.Errorf("readyz %s: %w", base, ctx.Err())
		case <-time.After(readyPoll):
		}
	}
}

// tallyReadiness adds the fleet's readiness counts to a traced run.
func (f *fleet) tallyReadiness(e *env) {
	e.tr.count("not_ready_at_start", float64(f.notReadyAtStart))
	e.tr.count("not_ready_probes", float64(f.notReady))
	e.tr.count("boots", 1)
}

func (f *fleet) executions() (n uint64) {
	for _, m := range f.lc.Members() {
		n += m.Node.Engine().Executions()
	}
	return n
}

// close closes the clients, whose Close drops their idle connections,
// and the cluster.
func (f *fleet) close() {
	for _, row := range f.remotes {
		for _, r := range row {
			r.Close()
		}
	}
	f.lc.Close()
}

// ---- serve_warm ----

// serveWarm runs a journaled 3-node fleet whose caches hold the whole
// Fig. 8 working set on every member: short ops are one-point lookups,
// long ops declarative one-operator sweeps sharded to the ring owners.
type serveWarm struct {
	in  *sweepInputs
	env *env
	fl  *fleet
	// want maps operator and triad to the set-up sweep's point facts.
	want map[string]string

	execAtStart uint64
	hitsAtStart uint64
	missAtStart uint64
}

func pointKey(o operator, tr vos.Triad) string { return o.name() + " " + tr.Label() }

func (s *serveWarm) boot(ctx context.Context) error {
	fl, err := startFleet(ctx, s.env, 3, 1, s.env.clients)
	if err != nil {
		return err
	}
	s.fl = fl
	// Fill cold through one member: a declarative sweep shards every
	// electrical group to its ring owner.
	res, err := fl.remotes[0][0].Run(ctx, s.in.fullSpec())
	if err != nil {
		return fmt.Errorf("serve_warm fill: %w", err)
	}
	s.want = make(map[string]string)
	for _, o := range s.in.Operators {
		got := res.Operator(o.Arch, o.Width)
		if got == nil || len(got.Points) != len(o.Triads) {
			return fmt.Errorf("serve_warm fill: %s missing or short", o.name())
		}
		for _, p := range got.Points {
			s.want[pointKey(o, p.Triad)] = pointJSON(p)
		}
	}
	// Touch every key on every member: an explicit sweep runs where it
	// was sent and fills its misses from the peers, so afterwards every
	// lookup is a local hit wherever it lands.
	for m := range fl.lc.Members() {
		for _, o := range s.in.Operators {
			spec := s.in.operatorSpec(o).Triads(o.Triads...)
			res, err := fl.remotes[0][m].Run(ctx, spec)
			if err != nil {
				return fmt.Errorf("serve_warm touch: %w", err)
			}
			if err := s.compare(o, res, len(o.Triads)); err != nil {
				return err
			}
		}
	}
	return nil
}

func (s *serveWarm) compare(o operator, res *vos.Result, n int) error {
	got := res.Operator(o.Arch, o.Width)
	if got == nil || len(got.Points) != n {
		return fmt.Errorf("check: %s returned no or %d points, want %d", o.name(), pointsOf(got), n)
	}
	for _, p := range got.Points {
		if want := s.want[pointKey(o, p.Triad)]; pointJSON(p) != want {
			return fmt.Errorf("check: %s point %s differs from the set-up sweep", o.name(), p.Triad.Label())
		}
	}
	return nil
}

func pointsOf(o *vos.Operator) int {
	if o == nil {
		return 0
	}
	return len(o.Points)
}

func (s *serveWarm) op(ctx context.Context, c, n int, long bool) (float64, error) {
	members := s.fl.lc.Members()
	r := s.fl.remotes[c%len(s.fl.remotes)][(c+n)%len(members)]
	o, tr := s.in.shortPick(s.env.seed, c, n)
	var before, beforeGrouped uint64
	traced := s.env.tr.on()
	if traced {
		before, beforeGrouped = s.fl.executions(), s.grouped0()
	}
	var err error
	var res *vos.Result
	points := len(o.Triads)
	if long {
		res, err = r.Run(ctx, s.in.operatorSpec(o))
	} else {
		res, err = r.Run(ctx, s.in.pointSpec(o, tr))
		points = 1
	}
	if err != nil {
		return 0, err
	}
	if err := s.compare(o, res, points); err != nil {
		return 0, err
	}
	if traced {
		s.env.tallyOp(long, map[string]float64{
			"executed": float64(s.fl.executions() - before), "grouped": float64(s.grouped0() - beforeGrouped),
		})
	}
	return float64(points), nil
}

func (s *serveWarm) grouped0() (n uint64) {
	for _, m := range s.fl.lc.Members() {
		n += m.Node.Engine().CacheStats().GroupedPoints
	}
	return n
}

func (s *serveWarm) cacheCounts() (hits, misses uint64) {
	for _, m := range s.fl.lc.Members() {
		st := m.Node.Engine().CacheStats()
		hits += st.Hits()
		misses += st.Misses
	}
	return hits, misses
}

func (s *serveWarm) startWindow() {
	s.execAtStart = s.fl.executions()
	s.hitsAtStart, s.missAtStart = s.cacheCounts()
}

func (s *serveWarm) endWindow() error {
	if s.env.tr.on() {
		hits, misses := s.cacheCounts()
		s.env.tr.count("cache_hits", float64(hits-s.hitsAtStart))
		s.env.tr.count("cache_misses", float64(misses-s.missAtStart))
		for _, m := range s.fl.lc.Members() {
			for _, p := range m.Node.Status().Peers {
				if p.Breaker.State == "open" {
					s.env.tr.count("breaker_open", 1)
				}
			}
		}
		s.fl.tallyReadiness(s.env)
	}
	if n := s.fl.executions() - s.execAtStart; n != 0 {
		return fmt.Errorf("check: serve_warm simulated %d points in the timed window", n)
	}
	return nil
}

func (s *serveWarm) close() {
	if s.fl != nil {
		s.fl.close()
	}
}

// ---- mc_1e6 ----

// mc1e6 runs /v1/mc jobs against a journaled single vosd node: the
// long op is a 1e6-sample fir job, the short op one 2048-sample rep.
type mc1e6 struct {
	in  *mcInputs
	env *env
	fl  *fleet
}

const (
	mcLongSamples  = 1_000_000
	mcShortSamples = 2048
)

func (m *mc1e6) boot(ctx context.Context) error {
	fl, err := startFleet(ctx, m.env, 1, m.env.workers, 1)
	if err != nil {
		return err
	}
	m.fl = fl
	return nil
}

func (m *mc1e6) op(ctx context.Context, c, n int, long bool) (float64, error) {
	samples := int64(mcShortSamples)
	if long {
		samples = mcLongSamples
	}
	eng := m.fl.lc.Members()[0].Node.Engine()
	before := eng.MCRepsExecuted()
	res, err := m.fl.remotes[0][0].RunMC(ctx, m.in.spec(samples))
	if err != nil {
		return 0, err
	}
	if len(res.Points) != 1 {
		return 0, fmt.Errorf("check: mc job returned %d points, want 1", len(res.Points))
	}
	d, err := mcDigest(res)
	if err != nil {
		return 0, err
	}
	if err := m.env.book.check(fmt.Sprintf("mc %d", samples), d); err != nil {
		return 0, err
	}
	m.env.tallyOp(long, map[string]float64{"reps": float64(eng.MCRepsExecuted() - before)})
	return float64(res.Points[0].Samples), nil
}

func (m *mc1e6) startWindow() {}

func (m *mc1e6) endWindow() error {
	m.fl.tallyReadiness(m.env)
	return nil
}

func (m *mc1e6) close() {
	if m.fl != nil {
		m.fl.close()
	}
}
