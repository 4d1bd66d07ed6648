package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cell"
	"repro/internal/charz"
	"repro/internal/fdsoi"
	"repro/internal/metrics"
	"repro/internal/synth"
	"repro/internal/triad"
)

// testConfig is a small, fast operator configuration shared by the tests.
func testConfig() charz.Config {
	return charz.Config{Arch: synth.ArchRCA, Width: 4, Patterns: 40, Seed: 7}
}

func newTestEngine(t *testing.T, opts Options) *Engine {
	t.Helper()
	e, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e
}

// TestRepeatedSweepHitsCacheEverywhere is the headline acceptance
// property: an identical repeated sweep must be served entirely from the
// cache, with the simulator-invocation count staying exactly flat.
func TestRepeatedSweepHitsCacheEverywhere(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 4})
	req := Request{Arches: []string{"RCA"}, Widths: []int{4}, Patterns: 40, Seed: 7}

	id, err := e.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	first, err := e.Wait(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if first.Status != StatusDone {
		t.Fatalf("first sweep: status %s (%s)", first.Status, first.Error)
	}
	if first.Progress.Executed == 0 {
		t.Fatal("first sweep executed nothing")
	}
	execAfterFirst := e.Executions()

	id2, err := e.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	second, err := e.Wait(context.Background(), id2)
	if err != nil {
		t.Fatal(err)
	}
	if second.Status != StatusDone {
		t.Fatalf("second sweep: status %s (%s)", second.Status, second.Error)
	}
	if got := e.Executions(); got != execAfterFirst {
		t.Errorf("second identical sweep ran the simulator %d more times, want 0",
			got-execAfterFirst)
	}
	if second.Progress.Executed != 0 {
		t.Errorf("second sweep Executed = %d, want 0", second.Progress.Executed)
	}
	if second.Progress.CacheHits != second.Progress.TotalPoints {
		t.Errorf("second sweep CacheHits = %d, want %d",
			second.Progress.CacheHits, second.Progress.TotalPoints)
	}
}

// TestCachedResultsByteIdentical checks that a cache hit reproduces the
// fresh result bit-for-bit, and that both match the direct (engine-less)
// flow for the same seed.
func TestCachedResultsByteIdentical(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 4})
	cfg := testConfig()
	plans, err := e.Plan(t.Context(), &Request{Arches: []string{cfg.Arch.String()}, Widths: []int{cfg.Width},
		Patterns: cfg.Patterns, Seed: cfg.Seed})
	if err != nil {
		t.Fatal(err)
	}
	p := &plans[0]
	// run serves the plan's super-groups as a sweep does and folds them
	// into charz.Run's result shape, efficiencies included.
	run := func() []byte {
		t.Helper()
		out := make([]charz.TriadResult, len(p.Triads))
		for _, idxs := range pointGroups(p, true) {
			trs := make([]triad.Triad, len(idxs))
			keys := make([]string, len(idxs))
			for j, i := range idxs {
				trs[j], keys[j] = p.Triads[i], p.Keys[i]
			}
			res, _, err := e.runPointGroup(t.Context(), p.Prep, trs, keys)
			if err != nil {
				t.Fatal(err)
			}
			for j, i := range idxs {
				out[i] = *res[j]
			}
		}
		for i := range out {
			out[i].Efficiency = metrics.EnergyEfficiency(out[i].EnergyPerOpFJ, out[0].EnergyPerOpFJ)
		}
		data, err := json.Marshal(out)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	freshJSON := run()
	if got := e.Executions(); got != uint64(len(p.Triads)) {
		t.Fatalf("cold pass executed %d of %d points", got, len(p.Triads))
	}
	cachedJSON := run()
	if got := e.Executions(); got != uint64(len(p.Triads)) {
		t.Fatalf("warm pass executed %d more points", got-uint64(len(p.Triads)))
	}
	direct, err := charz.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	directJSON, err := json.Marshal(direct.Triads)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(freshJSON, cachedJSON) {
		t.Error("cached sweep result differs from fresh result")
	}
	if !bytes.Equal(freshJSON, directJSON) {
		t.Error("engine sweep result differs from direct charz.Run result")
	}
}

// TestGroupedPointsCounter pins the grouped-execution accounting: a cold
// paper-policy sweep simulates every point as a member of a
// cross-voltage super-group (the 43-triad set collapses to 2 body-bias
// families), a repeated sweep is pure cache hits that must not move the
// counter, a multi-point vddgrid sweep rides one super-group per
// family, and a single-point grid (a singleton group) must not move it
// — /v1/cache/stats keeps group ride-alongs distinguishable from
// per-triad cache hits and solo executions.
func TestGroupedPointsCounter(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 4})
	req := Request{Arches: []string{"RCA"}, Widths: []int{4}, Patterns: 40, Seed: 7}

	id, err := e.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	first, err := e.Wait(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if first.Status != StatusDone {
		t.Fatalf("first sweep: status %s (%s)", first.Status, first.Error)
	}
	stats := e.CacheStats()
	if got := e.Executions(); got != 43 {
		t.Errorf("cold paper sweep executed %d points, want 43", got)
	}
	if stats.GroupedPoints != 43 {
		t.Errorf("cold paper sweep GroupedPoints = %d, want 43 (every point rides a multi-point group)",
			stats.GroupedPoints)
	}

	// A repeated identical sweep is served per-triad from the cache.
	id, err = e.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if s, err := e.Wait(context.Background(), id); err != nil || s.Status != StatusDone {
		t.Fatalf("second sweep: %v status=%v", err, s.Status)
	}
	if got := e.CacheStats().GroupedPoints; got != stats.GroupedPoints {
		t.Errorf("warm sweep moved GroupedPoints to %d, want %d", got, stats.GroupedPoints)
	}

	// A multi-point vddgrid sweep shares one body-bias family: both
	// points ride one cross-voltage super-group.
	id, err = e.Submit(Request{Arches: []string{"RCA"}, Widths: []int{4}, Patterns: 40, Seed: 7,
		Policy: PolicyVddGrid, Vdds: []float64{0.9, 0.6}})
	if err != nil {
		t.Fatal(err)
	}
	if s, err := e.Wait(context.Background(), id); err != nil || s.Status != StatusDone {
		t.Fatalf("grid sweep: %v status=%v", err, s.Status)
	}
	if got := e.Executions(); got != 45 {
		t.Errorf("after grid sweep Executions = %d, want 45", got)
	}
	if got := e.CacheStats().GroupedPoints; got != stats.GroupedPoints+2 {
		t.Errorf("cross-voltage grid sweep GroupedPoints = %d, want %d", got, stats.GroupedPoints+2)
	}

	// A single-point grid is a singleton group: executions grow, the
	// grouped counter does not.
	id, err = e.Submit(Request{Arches: []string{"RCA"}, Widths: []int{4}, Patterns: 40, Seed: 7,
		Policy: PolicyVddGrid, Vdds: []float64{0.5}})
	if err != nil {
		t.Fatal(err)
	}
	if s, err := e.Wait(context.Background(), id); err != nil || s.Status != StatusDone {
		t.Fatalf("solo grid sweep: %v status=%v", err, s.Status)
	}
	if got := e.Executions(); got != 46 {
		t.Errorf("after solo grid sweep Executions = %d, want 46", got)
	}
	if got := e.CacheStats().GroupedPoints; got != stats.GroupedPoints+2 {
		t.Errorf("singleton-group sweep moved GroupedPoints to %d, want %d", got, stats.GroupedPoints+2)
	}
}

// TestDiskCacheSurvivesEngineRestart runs a sweep, rebuilds the engine
// over the same cache directory, and expects zero simulator invocations.
func TestDiskCacheSurvivesEngineRestart(t *testing.T) {
	dir := t.TempDir()
	req := Request{Arches: []string{"RCA"}, Widths: []int{4}, Patterns: 40, Seed: 7,
		Policy: PolicyVddGrid, Vdds: []float64{1.0, 0.6, 0.5}}

	e1 := newTestEngine(t, Options{Workers: 2, CacheDir: dir})
	id, err := e1.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if s, err := e1.Wait(context.Background(), id); err != nil || s.Status != StatusDone {
		t.Fatalf("first engine sweep: %v status=%v", err, s.Status)
	}

	e2 := newTestEngine(t, Options{Workers: 2, CacheDir: dir})
	id, err = e2.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	s, err := e2.Wait(context.Background(), id)
	if err != nil || s.Status != StatusDone {
		t.Fatalf("second engine sweep: %v status=%v", err, s.Status)
	}
	if got := e2.Executions(); got != 0 {
		t.Errorf("restarted engine executed %d points, want 0 (disk cache)", got)
	}
	if stats := e2.CacheStats(); stats.DiskHits == 0 {
		t.Errorf("restarted engine reported no disk hits: %+v", stats)
	}
}

// TestCorruptCacheEntryRecovers overwrites a disk cache entry with
// garbage and expects the engine to treat it as a miss and re-simulate,
// not to fail forever.
func TestCorruptCacheEntryRecovers(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	tr := triad.Triad{Tclk: 0.5, Vdd: 0.8, Vbb: 0}
	key, err := PointKey(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}

	point := func(e *Engine) PointSummary {
		t.Helper()
		id, err := e.Submit(Request{Arches: []string{cfg.Arch.String()}, Widths: []int{cfg.Width},
			Patterns: cfg.Patterns, Seed: cfg.Seed, Policy: PolicyExplicit, Triads: []triad.Triad{tr}})
		if err != nil {
			t.Fatal(err)
		}
		s, err := e.Wait(t.Context(), id)
		if err != nil || s.Status != StatusDone {
			t.Fatalf("corrupt entry was not recomputed: %v, status %s (%s)", err, s.Status, s.Error)
		}
		return s.Results[0].Points[0]
	}

	e1 := newTestEngine(t, Options{Workers: 1, CacheDir: dir})
	want := point(e1)

	entry := filepath.Join(dir, key[:2], key+".json")
	if err := os.WriteFile(entry, []byte("{truncated"), 0o644); err != nil {
		t.Fatal(err)
	}

	e2 := newTestEngine(t, Options{Workers: 1, CacheDir: dir})
	got := point(e2)
	if e2.Executions() != 1 {
		t.Errorf("executions = %d, want 1 (recompute)", e2.Executions())
	}
	if got.BER != want.BER || got.EnergyPerOpFJ != want.EnergyPerOpFJ {
		t.Error("recomputed result differs from original")
	}
	// The overwritten entry must now be valid again.
	data, err := os.ReadFile(entry)
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(data) {
		t.Error("cache entry not repaired on disk")
	}
}

// TestFailedSweepReportsFailedNotCanceled: an execution error cancels the
// sweep's remaining points (fail fast) but the terminal status must stay
// "failed" with the root-cause error.
func TestFailedSweepReportsFailedNotCanceled(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 2})
	// The RC backend rejects streaming capture at point-execution time,
	// after planning succeeds — a genuine mid-sweep failure.
	id, err := e.Submit(Request{Arches: []string{"RCA"}, Widths: []int{4}, Patterns: 20,
		Seed: 1, Backend: "rc", Streaming: true})
	if err != nil {
		t.Fatal(err)
	}
	s, err := e.Wait(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != StatusFailed {
		t.Fatalf("status = %s, want failed", s.Status)
	}
	if !strings.Contains(s.Error, "streaming") {
		t.Errorf("error %q does not name the root cause", s.Error)
	}
}

// TestPointKeySensitivity: the content-addressed key must change when any
// result-relevant Config field (or the triad, process or library) changes,
// and must NOT change for scheduling-only knobs.
func TestPointKeySensitivity(t *testing.T) {
	base := testConfig()
	tr := triad.Triad{Tclk: 0.5, Vdd: 0.8, Vbb: 0}
	baseKey, err := PointKey(base, tr)
	if err != nil {
		t.Fatal(err)
	}

	altProc := fdsoi.Default()
	altProc.Vt0 += 0.01
	altLib := cell.Default28nmLVT()
	altLib.WireCap += 0.05

	mutations := map[string]func() (charz.Config, triad.Triad){
		"Arch":          func() (charz.Config, triad.Triad) { c := base; c.Arch = synth.ArchBKA; return c, tr },
		"Width":         func() (charz.Config, triad.Triad) { c := base; c.Width = 5; return c, tr },
		"Patterns":      func() (charz.Config, triad.Triad) { c := base; c.Patterns = 41; return c, tr },
		"Seed":          func() (charz.Config, triad.Triad) { c := base; c.Seed = 8; return c, tr },
		"PropagateP":    func() (charz.Config, triad.Triad) { c := base; c.PropagateP = 0.7; return c, tr },
		"MismatchSigma": func() (charz.Config, triad.Triad) { c := base; c.MismatchSigma = 0.009; return c, tr },
		"Backend":       func() (charz.Config, triad.Triad) { c := base; c.Backend = charz.BackendRC; return c, tr },
		"Streaming":     func() (charz.Config, triad.Triad) { c := base; c.Streaming = true; return c, tr },
		"Proc":          func() (charz.Config, triad.Triad) { c := base; c.Proc = &altProc; return c, tr },
		"Lib":           func() (charz.Config, triad.Triad) { c := base; c.Lib = altLib; return c, tr },
		"Triad.Tclk":    func() (charz.Config, triad.Triad) { u := tr; u.Tclk = 0.4; return base, u },
		"Triad.Vdd":     func() (charz.Config, triad.Triad) { u := tr; u.Vdd = 0.7; return base, u },
		"Triad.Vbb":     func() (charz.Config, triad.Triad) { u := tr; u.Vbb = 2; return base, u },
	}
	seen := map[string]string{baseKey: "base"}
	for name, mutate := range mutations {
		cfg, u := mutate()
		key, err := PointKey(cfg, u)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if prev, dup := seen[key]; dup {
			t.Errorf("mutating %s produced the same key as %s", name, prev)
		}
		seen[key] = name
	}

	// The sweep-set override must not perturb the key.
	withSet := base
	withSet.Triads = []triad.Triad{tr}
	if key, err := PointKey(withSet, tr); err != nil || key != baseKey {
		t.Errorf("the sweep-set override changed the cache key (%v)", err)
	}

	// Defaults canonicalize: explicit default values hash like zero values.
	explicit := base
	explicit.PropagateP = 0.5
	explicit.Proc = func() *fdsoi.Params { p := fdsoi.Default(); return &p }()
	explicit.Lib = cell.Default28nmLVT()
	key, err := PointKey(explicit, tr)
	if err != nil {
		t.Fatal(err)
	}
	if key != baseKey {
		t.Error("explicitly spelled-out defaults changed the cache key")
	}
}

// TestConcurrentSubmissions exercises the submission path, the shared
// prep memo, the singleflight layer and the progress accounting under
// concurrency; go test -race is the real assertion here.
func TestConcurrentSubmissions(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 4})
	reqs := []Request{
		{Arches: []string{"RCA"}, Widths: []int{4}, Patterns: 30, Seed: 7},
		{Arches: []string{"RCA"}, Widths: []int{4}, Patterns: 30, Seed: 7},
		{Arches: []string{"RCA"}, Widths: []int{4}, Patterns: 30, Seed: 9,
			Policy: PolicyVddGrid, Vdds: []float64{0.9, 0.5}},
		{Arches: []string{"BKA"}, Widths: []int{4}, Patterns: 30, Seed: 7,
			Policy: PolicyVddGrid, Vdds: []float64{0.8}},
	}
	var wg sync.WaitGroup
	ids := make([]string, len(reqs))
	errs := make([]error, len(reqs))
	for i, req := range reqs {
		wg.Add(1)
		go func(i int, req Request) {
			defer wg.Done()
			id, err := e.Submit(req)
			if err != nil {
				errs[i] = err
				return
			}
			ids[i] = id
			s, err := e.Wait(context.Background(), id)
			if err != nil {
				errs[i] = err
				return
			}
			if s.Status != StatusDone {
				errs[i] = fmt.Errorf("sweep %s: status %s (%s)", id, s.Status, s.Error)
			}
		}(i, req)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("submission %d: %v", i, err)
		}
	}
	if got := len(e.List()); got != len(reqs) {
		t.Errorf("List() returned %d sweeps, want %d", got, len(reqs))
	}
}

// missCounter is a memory cache that counts each key's misses, so a test
// can see a sweep's cache pass without reaching into the sweep.
type missCounter struct {
	*Cache
	mu     sync.Mutex
	misses map[string]int
}

func (c *missCounter) Get(ctx context.Context, key string) (*Entry, bool) {
	ent, ok := c.Cache.Get(ctx, key)
	if !ok {
		c.mu.Lock()
		c.misses[key]++
		c.mu.Unlock()
	}
	return ent, ok
}

func (c *missCounter) missed(key string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.misses[key]
}

// TestSingleflightExecutesEachPointOnce: sweeps that ask for the same
// point at once simulate it once, whether they ask alone or as part of a
// group, and a waiter whose flight owner is canceled computes the point
// itself. The only worker is held on a gate while the sweeps line up, so
// every owner is still in flight when the others miss the cache.
func TestSingleflightExecutesEachPointOnce(t *testing.T) {
	cache, err := NewCache("")
	if err != nil {
		t.Fatal(err)
	}
	counter := &missCounter{Cache: cache, misses: map[string]int{}}
	e := newTestEngine(t, Options{Workers: 1, Backend: counter})
	ctx := t.Context()
	if _, err := e.Prepare(ctx, testConfig()); err != nil {
		t.Fatal(err)
	}
	hold := func() (release func()) {
		gate, started, held := make(chan struct{}), make(chan struct{}), make(chan error, 1)
		go func() { held <- e.exec(context.Background(), func() { close(started); <-gate }) }()
		<-started
		var once sync.Once
		return func() {
			once.Do(func() {
				close(gate)
				if err := <-held; err != nil {
					t.Errorf("gate job: %v", err)
				}
			})
		}
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(time.Minute); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	inFlight := func(key string) bool {
		e.flightMu.Lock()
		defer e.flightMu.Unlock()
		_, ok := e.inflight[key]
		return ok
	}
	submit := func(trs ...triad.Triad) string {
		t.Helper()
		cfg := testConfig()
		id, err := e.Submit(Request{Arches: []string{cfg.Arch.String()}, Widths: []int{cfg.Width},
			Patterns: cfg.Patterns, Seed: cfg.Seed, Policy: PolicyExplicit, Triads: trs})
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	finish := func(id string, want Status) {
		t.Helper()
		if s, err := e.Wait(ctx, id); err != nil || s.Status != want {
			t.Fatalf("sweep %s: %v, status %s (%s), want %s", id, err, s.Status, s.Error, want)
		}
	}
	key := func(tr triad.Triad) string {
		t.Helper()
		k, err := PointKey(testConfig(), tr)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}

	// (a) t1 and t2 share one electrical point: four sweeps over them,
	// alone and grouped, execute each once.
	t1, t2 := triad.Triad{Tclk: 0.5, Vdd: 0.8}, triad.Triad{Tclk: 0.4, Vdd: 0.8}
	k1, k2 := key(t1), key(t2)
	release := hold()
	defer release()
	ids := []string{submit(t1), submit(t1), submit(t1, t2), submit(t2)}
	waitFor("every sweep to miss the cache with both points in flight", func() bool {
		return counter.missed(k1) >= 3 && counter.missed(k2) >= 2 && inFlight(k1) && inFlight(k2)
	})
	release()
	for _, id := range ids {
		finish(id, StatusDone)
	}
	if got := e.Executions(); got != 2 {
		t.Fatalf("four sweeps over two points executed %d points, want 2", got)
	}

	// (b) A waiter outlives its canceled flight owner and computes the
	// point once itself.
	t3 := triad.Triad{Tclk: 0.5, Vdd: 0.7}
	k3 := key(t3)
	release = hold()
	defer release()
	first := submit(t3)
	waitFor("the first sweep to own the point", func() bool { return inFlight(k3) })
	second := submit(t3)
	waitFor("the second sweep to miss the cache", func() bool { return counter.missed(k3) >= 2 })
	if err := e.Cancel(first); err != nil {
		t.Fatal(err)
	}
	finish(first, StatusCanceled)
	release()
	finish(second, StatusDone)
	if got := e.Executions(); got != 3 {
		t.Fatalf("after the canceled owner's point: %d executions, want 3", got)
	}
}

// TestFig5SharesPointsWithGridSweep runs a vddgrid sweep and then the
// Fig. 5 points — the grid's (synthesis clock, Vdd, 0) triads — as an
// explicit sweep through the same engine: every one of them must be a
// cache hit.
func TestFig5SharesPointsWithGridSweep(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 2})
	vdds := []float64{0.8, 0.6}
	req := Request{Arches: []string{"RCA"}, Widths: []int{4}, Patterns: 40, Seed: 7}
	grid := req
	grid.Policy, grid.Vdds = PolicyVddGrid, vdds
	id, err := e.Submit(grid)
	if err != nil {
		t.Fatal(err)
	}
	s, err := e.Wait(context.Background(), id)
	if err != nil || s.Status != StatusDone {
		t.Fatalf("grid sweep: %v status=%v", err, s.Status)
	}
	before := e.Executions()
	fig5 := req
	fig5.Policy = PolicyExplicit
	for _, vdd := range vdds {
		fig5.Triads = append(fig5.Triads, triad.Triad{Tclk: s.Results[0].Report.CriticalPath, Vdd: vdd})
	}
	if id, err = e.Submit(fig5); err != nil {
		t.Fatal(err)
	}
	if s, err = e.Wait(context.Background(), id); err != nil || s.Status != StatusDone {
		t.Fatalf("Fig. 5 sweep: %v status=%v", err, s.Status)
	}
	if got := e.Executions(); got != before || s.Progress.CacheHits != len(vdds) {
		t.Errorf("Fig. 5 sweep re-simulated %d grid points (%d cache hits), want 0", got-before, s.Progress.CacheHits)
	}
}

// TestSweepCancel cancels a running sweep and expects a canceled status.
func TestSweepCancel(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 1})
	// Enough patterns that the sweep is still running when we cancel.
	id, err := e.Submit(Request{Arches: []string{"RCA", "BKA"}, Widths: []int{8, 12},
		Patterns: 5000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Cancel(id); err != nil && !errors.Is(err, ErrAlreadyDone) {
		t.Fatalf("Cancel: %v", err)
	}
	s, err := e.Wait(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != StatusCanceled && s.Status != StatusDone {
		t.Fatalf("status after cancel = %s", s.Status)
	}
}

// TestEmptyTriadOverrideErrors: an explicitly empty sweep set must be an
// error, not an index panic.
func TestEmptyTriadOverrideErrors(t *testing.T) {
	cfg := testConfig()
	cfg.Triads = []triad.Triad{}
	if _, err := charz.Run(cfg); err == nil {
		t.Fatal("empty triad override accepted")
	}
}

// TestCloseStopsSweeps: Close must leave no live sweep goroutines and
// reject further submissions.
func TestCloseStopsSweeps(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 1})
	id, err := e.Submit(Request{Arches: []string{"RCA"}, Widths: []int{8}, Patterns: 5000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	e.Close()
	if s, ok := e.Get(id); !ok || s.Status == StatusRunning || s.Status == StatusPending {
		t.Errorf("sweep %s still live after Close (status %v)", id, s.Status)
	}
	if _, err := e.Submit(Request{}); err != ErrClosed {
		t.Errorf("Submit after Close: err = %v, want ErrClosed", err)
	}
}

// TestRequestValidation rejects malformed sweep requests.
func TestRequestValidation(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 1})
	for name, req := range map[string]Request{
		"bad arch":      {Arches: []string{"CLA"}},
		"bad width":     {Widths: []int{0}},
		"bad backend":   {Backend: "spice"},
		"bad policy":    {Policy: "everything"},
		"bad count":     {Patterns: -4},
		"bad propagate": {PropagateP: 1.5},
		"bad vdd":       {Policy: PolicyVddGrid, Vdds: []float64{-0.5}},
		"bad vbb":       {Policy: PolicyVddGrid, VbbValues: []float64{-1}},
	} {
		if _, err := e.Submit(req); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestPlanExpansion checks the planner's fan-out arithmetic.
func TestPlanExpansion(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 2})
	req := &Request{Arches: []string{"RCA", "BKA"}, Widths: []int{4, 6}, Patterns: 10,
		Seed: 1, Policy: PolicyVddGrid, Vdds: []float64{1.0, 0.7}, VbbValues: []float64{0, 2}}
	plans, err := e.Plan(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) != 4 {
		t.Fatalf("got %d operator plans, want 4", len(plans))
	}
	for _, p := range plans {
		if len(p.Triads) != 4 {
			t.Errorf("%s: %d triads, want 4 (2 Vdd × 2 Vbb)", p.Config.BenchName(), len(p.Triads))
		}
	}
	// Paper policy expands to the 43-triad Table III set.
	paper := &Request{Arches: []string{"RCA"}, Widths: []int{4}, Patterns: 10, Seed: 1}
	plans, err = e.Plan(context.Background(), paper)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(plans[0].Triads); got != 43 {
		t.Errorf("paper policy expanded to %d triads, want 43", got)
	}
}

// TestRunPointGroupCrossVoltage: the engine's point path accepts a
// group spanning operating points of one body-bias family (a
// cross-voltage super-group), simulates it cold via the retime chain
// with results byte-identical to per-point runs, and serves it warm
// from the per-triad cache entries the grouped run fanned out.
func TestRunPointGroupCrossVoltage(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 2})
	ctx := context.Background()
	prep, err := e.Prepare(ctx, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	mixed := []triad.Triad{
		{Tclk: 0.5, Vdd: 1.0, Vbb: 0},
		{Tclk: 0.5, Vdd: 0.9, Vbb: 0},
	}
	keys, err := pointKeys(prep.Config, mixed)
	if err != nil {
		t.Fatal(err)
	}
	cold, cached, err := e.runPointGroup(ctx, prep, mixed, keys)
	if err != nil {
		t.Fatalf("cold cross-voltage group: %v", err)
	}
	execsAfterCold := e.Executions()
	if execsAfterCold != 2 || cached[0] || cached[1] {
		t.Errorf("cold group executed %d points (cached %v), want 2", execsAfterCold, cached)
	}
	for i, tr := range mixed {
		solo, err := prep.RunTriad(tr)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cold[i], solo) {
			t.Errorf("%s: grouped result diverged from per-point run", tr.Label())
		}
	}
	// The grouped run must have fanned out per-triad cache entries:
	// one-point groups over its triads are pure cache hits.
	for i, tr := range mixed {
		hit, cached, err := e.runPointGroup(ctx, prep, mixed[i:i+1], keys[i:i+1])
		if err != nil {
			t.Fatal(err)
		}
		if !cached[0] || !reflect.DeepEqual(hit[0], cold[i]) {
			t.Errorf("%s: one-point group was not served the grouped result from the cache", tr.Label())
		}
	}
	if got := e.Executions(); got != execsAfterCold {
		t.Errorf("per-point reruns executed %d new points, want 0", got-execsAfterCold)
	}
	// A warm grouped call is served entirely from the cache.
	warm, cached, err := e.runPointGroup(ctx, prep, mixed, keys)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(warm, cold) || !cached[0] || !cached[1] {
		t.Error("warm grouped results diverged from cold")
	}
	if got := e.Executions(); got != execsAfterCold {
		t.Errorf("warm group executed %d new points, want 0", got-execsAfterCold)
	}
}

// TestCacheDeletesCorruptDiskEntry pins the Cache-level contract behind
// the engine's recovery: a disk entry that is not valid JSON is deleted,
// counted, and served as a miss — and the next Put/Get cycle is clean.
func TestCacheDeletesCorruptDiskEntry(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := strings.Repeat("ab", 32)
	entry := filepath.Join(dir, key[:2], key+".json")
	if err := os.MkdirAll(filepath.Dir(entry), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(entry, []byte(`{"truncated`), 0o644); err != nil {
		t.Fatal(err)
	}

	if _, ok := c.Get(t.Context(), key); ok {
		t.Fatal("corrupt entry served as a hit")
	}
	if _, err := os.Stat(entry); !os.IsNotExist(err) {
		t.Fatalf("corrupt entry not deleted (stat err = %v)", err)
	}
	s := c.Stats()
	if s.CorruptEntries != 1 || s.Misses != 1 || s.DiskHits != 0 {
		t.Fatalf("stats = %+v; want one corrupt entry counted as a miss", s)
	}

	// A second cache over the same directory (a fresh process) must not
	// trip over anything the recovery left behind.
	c.Put(key, testEntry(t, 1))
	c2, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if e, ok := c2.Get(t.Context(), key); !ok || string(e.Bytes()) != string(testPoint(1)) {
		t.Fatalf("repaired entry reads %v, %v", e, ok)
	}
	if s := c2.Stats(); s.CorruptEntries != 0 || s.DiskHits != 1 {
		t.Fatalf("fresh cache stats = %+v", s)
	}
}
