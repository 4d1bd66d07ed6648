package engine

import (
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/charz"
	"repro/internal/model"
	"repro/internal/triad"
)

// mcTestRequest is a small, fast Monte Carlo job shared by the tests:
// two kernels over two explicit operating points, a few thousand
// samples each.
func mcTestRequest() MCRequest {
	return MCRequest{
		Kernels: []string{"fir", "kmeans"},
		Arch:    "RCA",
		Seed:    7,
		Samples: 4096,
		Policy:  PolicyExplicit,
		Triads: []triad.Triad{
			{Tclk: 4.0, Vdd: 0.9, Vbb: 0},
			{Tclk: 3.0, Vdd: 0.8, Vbb: 0},
		},
	}
}

func runMCJob(t *testing.T, e *Engine, req MCRequest) MCJob {
	t.Helper()
	id, err := e.SubmitMC(req)
	if err != nil {
		t.Fatal(err)
	}
	job, err := e.WaitMC(t.Context(), id)
	if err != nil {
		t.Fatal(err)
	}
	if job.Status != StatusDone {
		t.Fatalf("mc job %s: status %s (%s)", id, job.Status, job.Error)
	}
	return job
}

// TestMCJobDeterministic is the replayability contract: the same
// request on two fresh engines produces byte-identical points.
func TestMCJobDeterministic(t *testing.T) {
	req := mcTestRequest()
	a := runMCJob(t, newTestEngine(t, Options{Workers: 4}), req)
	b := runMCJob(t, newTestEngine(t, Options{Workers: 2}), req)
	if len(a.Points) != 4 {
		t.Fatalf("got %d points, want 4", len(a.Points))
	}
	ja, _ := json.Marshal(a.Points)
	jb, _ := json.Marshal(b.Points)
	if string(ja) != string(jb) {
		t.Fatalf("points differ between engines:\n%s\n%s", ja, jb)
	}
	for _, pt := range a.Points {
		if pt.Reps < 1 || pt.Samples%int64(pt.Reps) != 0 {
			t.Fatalf("point %s/%s: %d samples over %d reps", pt.Kernel, pt.Triad.Label(), pt.Samples, pt.Reps)
		}
		if len(pt.RepMetrics) != pt.Reps {
			t.Fatalf("point %s/%s: %d rep metrics for %d reps", pt.Kernel, pt.Triad.Label(), len(pt.RepMetrics), pt.Reps)
		}
		if pt.Samples < req.Samples {
			t.Fatalf("point %s/%s: %d samples < requested %d", pt.Kernel, pt.Triad.Label(), pt.Samples, req.Samples)
		}
		if pt.Outputs == 0 {
			t.Fatalf("point %s/%s: no outputs", pt.Kernel, pt.Triad.Label())
		}
		var hist int64
		for _, n := range pt.ErrHist {
			hist += int64(n)
		}
		if hist != pt.Outputs {
			t.Fatalf("point %s/%s: histogram mass %d != outputs %d", pt.Kernel, pt.Triad.Label(), hist, pt.Outputs)
		}
		if pt.Fidelity == nil || pt.Fidelity.Fingerprint == "" {
			t.Fatalf("point %s/%s: missing fidelity report", pt.Kernel, pt.Triad.Label())
		}
		if pt.EnergyPerOpFJ <= 0 {
			t.Fatalf("point %s/%s: energy %v", pt.Kernel, pt.Triad.Label(), pt.EnergyPerOpFJ)
		}
	}
}

// TestMCRangePartialsMergeToFullPoint is the sharding invariant: any
// partition of a point's rep range into rep-range sub-jobs merges to
// exactly the full-range point.
func TestMCRangePartialsMergeToFullPoint(t *testing.T) {
	base := MCRequest{
		Kernels: []string{"kmeans"},
		Seed:    11,
		Samples: 2048, // 8 reps of 256
		Policy:  PolicyExplicit,
		Triads:  []triad.Triad{{Tclk: 3.5, Vdd: 0.85, Vbb: 0}},
	}
	e := newTestEngine(t, Options{Workers: 4})
	full := runMCJob(t, e, base)
	if len(full.Points) != 1 {
		t.Fatalf("got %d points, want 1", len(full.Points))
	}

	var parts []*MCPoint
	for _, rng := range [][2]int{{0, 3}, {3, 4}, {4, 8}} {
		sub := base
		sub.RepLo, sub.RepHi = rng[0], rng[1]
		job := runMCJob(t, e, sub)
		if len(job.Points) != 1 {
			t.Fatalf("range %v: got %d points", rng, len(job.Points))
		}
		pt := job.Points[0]
		// A [0, hi) partial reports itself full-range; restore the
		// markers the way the cluster coordinator does.
		pt.RepLo, pt.RepHi = rng[0], rng[1]
		if pt.Reps != rng[1]-rng[0] {
			t.Fatalf("range %v: %d reps", rng, pt.Reps)
		}
		parts = append(parts, &pt)
	}
	merged := MergeMCPartials(parts)
	if merged == nil {
		t.Fatal("merge returned nil")
	}
	if !reflect.DeepEqual(*merged, full.Points[0]) {
		jm, _ := json.Marshal(merged)
		jf, _ := json.Marshal(full.Points[0])
		t.Fatalf("merged partials differ from full run:\n%s\n%s", jm, jf)
	}
}

// TestMCChunksBalanced checks local execution's partition of a rep
// range: the chunks tile it in rep order, each holds 1 to mcChunkReps
// reps, sizes differ by at most one (larger first), and their count is
// the least multiple of workers that fits, or one chunk per rep when the
// range is shorter than workers.
func TestMCChunksBalanced(t *testing.T) {
	for workers := 1; workers <= 5; workers++ {
		for n := 1; n <= 700; n++ {
			const lo = 7
			chunks := mcChunks(lo, lo+n, workers)
			per := mcChunkReps * workers
			if want := min(n, (n+per-1)/per*workers); len(chunks) != want {
				t.Fatalf("%d reps, %d workers: %d chunks, want %d", n, workers, len(chunks), want)
			}
			at := lo
			for i, ch := range chunks {
				size := ch[1] - ch[0]
				if ch[0] != at || size < 1 || size > mcChunkReps {
					t.Fatalf("%d reps, %d workers: chunk %d is %v after rep %d", n, workers, i, ch, at)
				}
				if first := chunks[0][1] - chunks[0][0]; size != first && size != first-1 {
					t.Fatalf("%d reps, %d workers: chunk sizes %d and %d", n, workers, first, size)
				}
				at = ch[1]
			}
			if at != lo+n {
				t.Fatalf("%d reps, %d workers: chunks end at %d, want %d", n, workers, at, lo+n)
			}
		}
	}
	// The 489-rep fir cell of a 1e6-sample job on two workers: 16 chunks,
	// nine of 31 reps and seven of 30, so each worker runs about 244.5.
	chunks := mcChunks(0, 489, 2)
	if len(chunks) != 16 || chunks[8] != [2]int{248, 279} || chunks[9] != [2]int{279, 309} {
		t.Fatalf("489 reps on 2 workers: %v", chunks)
	}
}

// TestMCRangeGoroutinesBounded runs a one-cell job cut into 20 chunks
// and wraps the function parallelFor feeds: every chunk passes through
// it, and at most Workers goroutines (the cell's own and Workers−1
// feeders) are ever inside it, never one per chunk.
func TestMCRangeGoroutinesBounded(t *testing.T) {
	const workers = 2
	var mu sync.Mutex
	calls, inside, most := 0, 0, 0
	orig := parallelFor
	parallelFor = func(n, w int, f func(i int)) {
		orig(n, w, func(i int) {
			mu.Lock()
			calls, inside = calls+1, inside+1
			most = max(most, inside)
			mu.Unlock()
			f(i)
			mu.Lock()
			inside--
			mu.Unlock()
		})
	}
	t.Cleanup(func() { parallelFor = orig })
	e := newTestEngine(t, Options{Workers: workers})
	runMCJob(t, e, MCRequest{
		Kernels: []string{"kmeans"},
		Seed:    13,
		Samples: 20 * mcChunkReps * 256, // 640 reps of 256: 20 chunks of 32
		Policy:  PolicyExplicit,
		Triads:  []triad.Triad{{Tclk: 3.5, Vdd: 0.85, Vbb: 0}},
	})
	if calls != 20 {
		t.Fatalf("%d chunks fed through parallelFor, want 20", calls)
	}
	if most < 1 || most > workers {
		t.Fatalf("%d goroutines feeding chunks at once, want 1 to %d", most, workers)
	}
}

// TestMCEventsStream checks the event funnel: one point event per cell,
// a terminal done event, and full replay for late subscribers.
func TestMCEventsStream(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 4})
	req := mcTestRequest()
	id, err := e.SubmitMC(req)
	if err != nil {
		t.Fatal(err)
	}
	events, ok := e.SubscribeMC(t.Context(), id)
	if !ok {
		t.Fatal("subscribe failed")
	}
	points, terminals := 0, 0
	for ev := range events {
		switch ev.Type {
		case EventPoint:
			points++
			if ev.Point == nil {
				t.Fatal("point event without payload")
			}
		case EventDone:
			terminals++
		case EventFailed, EventCanceled:
			t.Fatalf("unexpected terminal %s: %s", ev.Type, ev.Error)
		}
	}
	if points != 4 || terminals != 1 {
		t.Fatalf("live stream: %d point events, %d terminals (want 4, 1)", points, terminals)
	}

	// Late subscriber: the replay must contain the same stream.
	replay, ok := e.SubscribeMC(t.Context(), id)
	if !ok {
		t.Fatal("late subscribe failed")
	}
	points = 0
	for ev := range replay {
		if ev.Type == EventPoint {
			points++
		}
	}
	if points != 4 {
		t.Fatalf("replay: %d point events, want 4", points)
	}
}

// TestMCCancel checks that canceling a running job reaches the canceled
// terminal state.
func TestMCCancel(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 2})
	req := mcTestRequest()
	req.Samples = 1 << 22 // big enough to still be running when canceled
	id, err := e.SubmitMC(req)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	if err := e.CancelMC(id); err != nil && !errors.Is(err, ErrAlreadyDone) {
		t.Fatalf("cancel: %v", err)
	}
	job, err := e.WaitMC(t.Context(), id)
	if err != nil {
		t.Fatal(err)
	}
	if job.Status != StatusCanceled && job.Status != StatusDone {
		t.Fatalf("status %s after cancel", job.Status)
	}
}

// TestMCCancelStopsChunks cancels a 200-chunk cell once its first chunk
// has run: the feeders must stop dispatching, so only the chunks already
// on a worker finish and the executed reps stay far below the cell's.
// One cell on two workers makes each feeder find its worker idle when it
// reaches its next chunk, where a select between the pool send and
// ctx.Done would still pick the send half the time.
func TestMCCancelStopsChunks(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 2})
	const reps = 200 * mcChunkReps
	id, err := e.SubmitMC(MCRequest{
		Kernels: []string{"kmeans"},
		Seed:    17,
		Samples: reps * 256,
		Policy:  PolicyExplicit,
		Triads:  []triad.Triad{{Tclk: 3.5, Vdd: 0.85, Vbb: 0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for e.MCRepsExecuted() == 0 {
		time.Sleep(time.Millisecond)
	}
	if err := e.CancelMC(id); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	job, err := e.WaitMC(t.Context(), id)
	if err != nil {
		t.Fatal(err)
	}
	if job.Status != StatusCanceled {
		t.Fatalf("status %s after cancel", job.Status)
	}
	if n := e.MCRepsExecuted(); n > reps/10 {
		t.Fatalf("%d of %d reps executed after cancel, want at most %d", n, reps, reps/10)
	}
}

// TestMCRequestValidation pins the request-level error surface.
func TestMCRequestValidation(t *testing.T) {
	cases := []struct {
		name string
		req  MCRequest
		want string
	}{
		{"no kernels", MCRequest{}, "at least one kernel"},
		{"unknown kernel", MCRequest{Kernels: []string{"fft"}}, "unknown mc kernel"},
		{"duplicate kernel", MCRequest{Kernels: []string{"fir", "fir"}}, "duplicate"},
		{"bad arch", MCRequest{Kernels: []string{"fir"}, Arch: "XYZ"}, "unknown architecture"},
		{"bad samples", MCRequest{Kernels: []string{"fir"}, Samples: -1}, "samples"},
		{"bad policy", MCRequest{Kernels: []string{"fir"}, Policy: "vddgrid"}, "policy"},
		{"explicit without triads", MCRequest{Kernels: []string{"fir"}, Policy: PolicyExplicit}, "needs triads"},
		{"triads without policy", MCRequest{Kernels: []string{"fir"},
			Triads: []triad.Triad{{Tclk: 1, Vdd: 1}}}, "triads given"},
		{"inverted range", MCRequest{Kernels: []string{"fir"}, RepLo: 3, RepHi: 2}, "rep range"},
		{"open range", MCRequest{Kernels: []string{"fir"}, RepLo: 3}, "rep range"},
	}
	e := newTestEngine(t, Options{Workers: 1})
	for _, tc := range cases {
		if _, err := e.SubmitMC(tc.req); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

// TestModelBackendSweep runs a paper-policy sweep on the model backend:
// every point must carry a fidelity report, and a repeated sweep must be
// served entirely from the cache with no new calibrations.
func TestModelBackendSweep(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 4})
	req := Request{Arches: []string{"RCA"}, Widths: []int{8}, Patterns: 60, Seed: 1, Backend: "model"}
	id, err := e.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := e.Wait(t.Context(), id)
	if err != nil {
		t.Fatal(err)
	}
	if sw.Status != StatusDone {
		t.Fatalf("sweep %s: %s (%s)", id, sw.Status, sw.Error)
	}
	pts := sw.Results[0].Points
	if len(pts) == 0 {
		t.Fatal("no points")
	}
	for _, p := range pts {
		if p.Fidelity == nil || p.Fidelity.Fingerprint == "" {
			t.Fatalf("model point %s lacks a fidelity report", p.Triad.Label())
		}
	}
	execs := e.Executions()

	id2, err := e.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	sw2, err := e.Wait(t.Context(), id2)
	if err != nil {
		t.Fatal(err)
	}
	if sw2.Progress.CacheHits != sw2.Progress.Completed {
		t.Fatalf("repeat sweep: %d/%d cache hits", sw2.Progress.CacheHits, sw2.Progress.Completed)
	}
	if e.Executions() != execs {
		t.Fatalf("repeat sweep executed %d new points", e.Executions()-execs)
	}

	// The model dimension must key the cache apart from the gate backend.
	gateKey, err := PointKey(mustCanonical(t, req, "gate"), pts[0].Triad)
	if err != nil {
		t.Fatal(err)
	}
	modelKey, err := PointKey(mustCanonical(t, req, "model"), pts[0].Triad)
	if err != nil {
		t.Fatal(err)
	}
	if gateKey == modelKey {
		t.Fatal("model and gate backends share a cache key")
	}
}

func mustCanonical(t *testing.T, req Request, backend string) charz.Config {
	t.Helper()
	req.Backend = backend
	c, err := req.OperatorConfig(req.Arches[0], req.Widths[0])
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestMCCalibratesOncePerPoint checks that the calibration memo survives
// Prepare: every MC job prepares its operator afresh, and the second
// job at a point must reuse the first job's trained model.
func TestMCCalibratesOncePerPoint(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 2})
	cfg := charz.Config{Arch: mustArch("RCA"), Width: apps.Word, Patterns: 2000, Seed: 1, Backend: charz.BackendModel}
	tr := triad.Triad{Tclk: 0.262, Vdd: 0.9}
	var got []*model.Trained
	for range 2 {
		prep, err := e.Prepare(t.Context(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		tn, err := e.calib.Point(prep, tr)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, tn)
	}
	if got[0] != got[1] {
		t.Fatal("a second Prepare of the same operator recalibrated the point")
	}
}
