package vos_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/carry"
	"repro/internal/engine"
	"repro/internal/engine/httpapi"
	"repro/vos"
)

func newLocal(t *testing.T) *vos.Local {
	t.Helper()
	cli, err := vos.NewLocal(vos.LocalOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	return cli
}

func newRemote(t *testing.T) *vos.Remote {
	t.Helper()
	eng, err := engine.New(engine.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	ts := httptest.NewServer(httpapi.New(eng))
	t.Cleanup(ts.Close)
	cli, err := vos.NewRemote(ts.URL, vos.RemoteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	return cli
}

func testSpec() *vos.Spec {
	return vos.NewSpec().Arches("RCA").Widths(4).Patterns(40).Seed(7)
}

// TestLocalRemoteEquivalence is the SDK's core promise: the same Spec
// produces identical Result values whether the sweep runs in-process or
// through a vosd daemon. The engine is deterministic and Local converts
// its values into exactly what Remote decodes, so the comparison is
// exact, not approximate. The model case compares each point's Fidelity
// report too, which gate-backend points do not carry.
func TestLocalRemoteEquivalence(t *testing.T) {
	for _, c := range []struct {
		name string
		spec *vos.Spec
	}{
		{"gate", vos.NewSpec().Arches("RCA", "BKA").Widths(4).Patterns(40).Seed(7)},
		{"model", vos.NewSpec().Arches("RCA", "BKA").Widths(4).Patterns(40).Seed(7).Backend(vos.BackendModel)},
	} {
		t.Run(c.name, func(t *testing.T) {
			ctx := context.Background()
			local := newLocal(t)
			lres, err := local.Run(ctx, c.spec)
			if err != nil {
				t.Fatal(err)
			}
			remote := newRemote(t)
			rres, err := remote.Run(ctx, c.spec)
			if err != nil {
				t.Fatal(err)
			}

			if lres.Status != vos.StatusDone || rres.Status != vos.StatusDone {
				t.Fatalf("statuses %s / %s", lres.Status, rres.Status)
			}
			if lres.Progress != rres.Progress {
				t.Fatalf("progress differs: %+v vs %+v", lres.Progress, rres.Progress)
			}
			if len(lres.Operators) != 2 || !reflect.DeepEqual(lres.Operators, rres.Operators) {
				t.Fatalf("local and remote operators differ:\nlocal:  %+v\nremote: %+v",
					lres.Operators, rres.Operators)
			}
			for _, op := range lres.Operators {
				for _, p := range op.Points {
					if (p.Fidelity != nil) != (c.name == "model") {
						t.Fatalf("%s %s: fidelity %+v on a %s point", op.Bench, p.Triad.Label(), p.Fidelity, c.name)
					}
				}
			}

			// The projections must agree too (they only read the shared
			// values, but this guards the SortedIdx plumbing end to end).
			for i := range lres.Operators {
				if !reflect.DeepEqual(lres.Operators[i].Fig8(), rres.Operators[i].Fig8()) {
					t.Fatalf("Fig8 projection differs for %s", lres.Operators[i].Bench)
				}
				if !reflect.DeepEqual(lres.Operators[i].Table4(), rres.Operators[i].Table4()) {
					t.Fatalf("Table4 projection differs for %s", lres.Operators[i].Bench)
				}
			}
		})
	}
}

// TestClientErrors checks the typed error surface on both transports.
func TestClientErrors(t *testing.T) {
	ctx := context.Background()
	for name, cli := range map[string]vos.Client{"local": newLocal(t), "remote": newRemote(t)} {
		t.Run(name, func(t *testing.T) {
			if _, err := cli.Status(ctx, "s-999999"); !errors.Is(err, vos.ErrNotFound) {
				t.Fatalf("Status unknown: %v", err)
			}
			if _, err := cli.Results(ctx, "s-999999"); !errors.Is(err, vos.ErrNotFound) {
				t.Fatalf("Results unknown: %v", err)
			}
			if err := cli.Cancel(ctx, "s-999999"); !errors.Is(err, vos.ErrNotFound) {
				t.Fatalf("Cancel unknown: %v", err)
			}
			if _, err := cli.Events(ctx, "s-999999"); !errors.Is(err, vos.ErrNotFound) {
				t.Fatalf("Events unknown: %v", err)
			}

			// A sweep heavy enough (≥ seconds) that Cancel always beats
			// completion; Results on the running sweep must report
			// ErrNotDone, and after cancellation a *SweepError.
			big := vos.NewSpec().Arches("RCA", "BKA").Widths(16, 24).Patterns(20000).Seed(3)
			id, err := cli.Submit(ctx, big)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := cli.Results(ctx, id); !errors.Is(err, vos.ErrNotDone) {
				t.Fatalf("Results while running: %v", err)
			}
			if err := cli.Cancel(ctx, id); err != nil {
				t.Fatal(err)
			}
			if _, err := cli.Wait(ctx, id); err != nil {
				t.Fatalf("Wait after cancel: %v", err)
			}
			var swErr *vos.SweepError
			if _, err := cli.Results(ctx, id); !errors.As(err, &swErr) || swErr.Status != vos.StatusCanceled {
				t.Fatalf("Results after cancel: %v", err)
			}

			// Spec validation errors surface before execution.
			if _, err := cli.Submit(ctx, vos.NewSpec().Arches("CLA")); err == nil {
				t.Fatal("bogus arch accepted")
			}
			if _, err := cli.Submit(ctx, vos.NewSpec().Widths(99)); err == nil {
				t.Fatal("bogus width accepted")
			}
		})
	}
}

// TestRemoteSubmitRetriesNotReady submits to a daemon still replaying
// its journal. Its 503 not_ready refusal accepted no job, so the client
// sends the submission again after at least the daemon's Retry-After
// (one second), and exactly one sweep is created. A draining daemon's
// refusal is returned at once.
func TestRemoteSubmitRetriesNotReady(t *testing.T) {
	ctx := context.Background()
	release := make(chan struct{})
	eng, err := engine.New(engine.Options{Workers: 2, JournalDir: t.TempDir(), RecoveryGate: func() { <-release }})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	api := httpapi.New(eng)
	var posts atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		api.ServeHTTP(w, r)
		if r.Method == http.MethodPost && posts.Add(1) == 1 {
			// Replay ends before the refusal reaches the client.
			close(release)
			rctx, cancel := context.WithTimeout(ctx, time.Minute)
			defer cancel()
			if err := eng.WaitReady(rctx); err != nil {
				t.Error(err)
			}
		}
	}))
	t.Cleanup(ts.Close)
	cli, err := vos.NewRemote(ts.URL, vos.RemoteOptions{RetryBackoff: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })

	start := time.Now()
	id, err := cli.Submit(ctx, testSpec())
	if err != nil {
		t.Fatalf("Submit while recovering: %v", err)
	}
	if waited := time.Since(start); waited < time.Second {
		t.Errorf("retried after %v, want at least the Retry-After of 1s", waited)
	}
	if n := posts.Load(); n != 2 {
		t.Errorf("%d POSTs, want the refused one and one retry", n)
	}
	if _, err := cli.Wait(ctx, id); err != nil {
		t.Fatal(err)
	}
	if n := len(eng.List()); n != 1 {
		t.Errorf("%d sweeps created, want 1", n)
	}

	eng.StartDrain()
	var apiErr *vos.APIError
	if _, err := cli.Submit(ctx, testSpec()); !errors.As(err, &apiErr) || apiErr.Code != httpapi.CodeDraining {
		t.Fatalf("Submit while draining: %v, want a draining refusal", err)
	}
	if n := posts.Load(); n != 3 {
		t.Errorf("%d POSTs after the draining refusal, want it not retried (3)", n)
	}
}

// TestEvents streams a finished sweep through both transports: the
// replayed history must contain every point event before the terminal
// done event.
func TestEvents(t *testing.T) {
	ctx := context.Background()
	for name, cli := range map[string]vos.Client{"local": newLocal(t), "remote": newRemote(t)} {
		t.Run(name, func(t *testing.T) {
			id, err := cli.Submit(ctx, testSpec())
			if err != nil {
				t.Fatal(err)
			}
			ch, err := cli.Events(ctx, id)
			if err != nil {
				t.Fatal(err)
			}
			var events []vos.Event
			for ev := range ch {
				events = append(events, ev)
			}
			if len(events) == 0 {
				t.Fatal("no events")
			}
			last := events[len(events)-1]
			if !last.Terminal() || last.Type != vos.EventDone {
				t.Fatalf("last event %+v", last)
			}
			points := 0
			for i, ev := range events {
				if ev.Type == vos.EventPoint {
					if ev.Point == nil || ev.Bench != "4-bit RCA" {
						t.Fatalf("point event %d: %+v", i, ev)
					}
					if i == len(events)-1 {
						t.Fatal("point event in terminal position")
					}
					points++
				}
			}
			if points != 43 {
				t.Fatalf("%d point events, want 43", points)
			}
		})
	}

	// An explicit sweep that lists one triad twice streams that point
	// twice, on both transports and across a reconnect.
	tr := vos.Triad{Tclk: 1, Vdd: 0.8}
	countPoints := func(t *testing.T, cli vos.Client, id string) int {
		t.Helper()
		ch, err := cli.Events(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		points, last := 0, vos.Event{}
		for ev := range ch {
			if ev.Type == vos.EventPoint {
				points++
			}
			last = ev
		}
		if last.Type != vos.EventDone {
			t.Fatalf("last event %+v, want done", last)
		}
		return points
	}
	for name, cli := range map[string]vos.Client{"local": newLocal(t), "remote": newRemote(t)} {
		t.Run("duplicate-triad/"+name, func(t *testing.T) {
			id, err := cli.Submit(ctx, testSpec().Triads(tr, tr))
			if err != nil {
				t.Fatal(err)
			}
			if n := countPoints(t, cli, id); n != 2 {
				t.Fatalf("%d point events, want 2", n)
			}
		})
	}
	t.Run("duplicate-triad/reconnect", func(t *testing.T) {
		// The first connection drops after one of the two point events;
		// the replayed second connection repeats the whole history.
		point := `{"type":"point","sweepId":"s-1","status":"running","bench":"4-bit RCA","arch":"RCA","width":4,` +
			`"point":{"triad":{"tclk":1,"vdd":0.8,"vbb":0}}}`
		var conns atomic.Int32
		mux := http.NewServeMux()
		mux.HandleFunc("GET /v1/sweeps/s-1/events", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/x-ndjson")
			fmt.Fprintln(w, `{"type":"progress","sweepId":"s-1","status":"running"}`)
			fmt.Fprintln(w, point)
			if conns.Add(1) == 1 {
				w.(http.Flusher).Flush()
				panic(http.ErrAbortHandler)
			}
			fmt.Fprintln(w, point)
			fmt.Fprintln(w, `{"type":"done","sweepId":"s-1","status":"done"}`)
		})
		ts := httptest.NewServer(mux)
		t.Cleanup(ts.Close)
		cli, err := vos.NewRemote(ts.URL, vos.RemoteOptions{Reconnect: true, RetryBackoff: 5 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cli.Close() })
		if n := countPoints(t, cli, "s-1"); n != 2 {
			t.Fatalf("%d point events across the reconnect, want 2", n)
		}
		if n := conns.Load(); n != 2 {
			t.Fatalf("%d stream connections, want 2", n)
		}
	})
	t.Run("cut-mid-line/reconnect", func(t *testing.T) {
		// The first connection drops in the middle of the point line; a
		// Reconnect client must take the cut line for a drop and reopen.
		point := `{"type":"point","sweepId":"s-1","status":"running","bench":"4-bit RCA","arch":"RCA","width":4,` +
			`"point":{"triad":{"tclk":1,"vdd":0.8,"vbb":0}}}`
		var conns atomic.Int32
		mux := http.NewServeMux()
		mux.HandleFunc("GET /v1/sweeps/s-1/events", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/x-ndjson")
			fmt.Fprintln(w, `{"type":"progress","sweepId":"s-1","status":"running"}`)
			if conns.Add(1) == 1 {
				fmt.Fprint(w, point[:len(point)/2])
				w.(http.Flusher).Flush()
				panic(http.ErrAbortHandler)
			}
			fmt.Fprintln(w, point)
			fmt.Fprintln(w, `{"type":"done","sweepId":"s-1","status":"done"}`)
		})
		ts := httptest.NewServer(mux)
		t.Cleanup(ts.Close)
		cli, err := vos.NewRemote(ts.URL, vos.RemoteOptions{Reconnect: true, RetryBackoff: 5 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cli.Close() })
		if n := countPoints(t, cli, "s-1"); n != 1 {
			t.Fatalf("%d point events across the reconnect, want 1", n)
		}
		if n := conns.Load(); n != 2 {
			t.Fatalf("%d stream connections, want 2", n)
		}
	})
}

// callLog records the method and path of every request a client sends.
type callLog struct {
	mu    sync.Mutex
	calls []string
	base  http.RoundTripper
}

func (l *callLog) RoundTrip(req *http.Request) (*http.Response, error) {
	l.mu.Lock()
	l.calls = append(l.calls, req.Method+" "+req.URL.Path)
	l.mu.Unlock()
	return l.base.RoundTrip(req)
}

// TestRemoteRunThreeCalls: Run and RunMC against a daemon submit, follow
// the event stream to its terminal event and fetch the results — no
// status request in between.
func TestRemoteRunThreeCalls(t *testing.T) {
	eng, err := engine.New(engine.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	ts := httptest.NewServer(httpapi.New(eng))
	t.Cleanup(ts.Close)
	log := &callLog{base: http.DefaultTransport}
	cli, err := vos.NewRemote(ts.URL, vos.RemoteOptions{HTTPClient: &http.Client{Transport: log}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	ctx := context.Background()
	check := func(base, id string) {
		t.Helper()
		log.mu.Lock()
		defer log.mu.Unlock()
		want := []string{"POST " + base, "GET " + base + "/" + id + "/events", "GET " + base + "/" + id + "/results"}
		if !reflect.DeepEqual(log.calls, want) {
			t.Fatalf("calls %q, want %q", log.calls, want)
		}
		log.calls = nil
	}
	res, err := cli.Run(ctx, testSpec())
	if err != nil || res.Status != vos.StatusDone || len(res.Operators) != 1 {
		t.Fatalf("Run: %v %+v", err, res)
	}
	check("/v1/sweeps", res.ID)
	mres, err := cli.RunMC(ctx, testMCSpec())
	if err != nil || mres.Status != vos.StatusDone || len(mres.Points) != 4 {
		t.Fatalf("RunMC: %v %+v", err, mres)
	}
	check("/v1/mc", mres.ID)
}

// TestLocalAdder builds the hardware oracle at the characterized nominal
// triad and checks it against exact addition (the nominal point is
// error-free by construction).
func TestLocalAdder(t *testing.T) {
	ctx := context.Background()
	cli := newLocal(t)
	spec := testSpec()
	res, err := cli.Run(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	op := res.Operator("RCA", 4)
	nominal := op.Nominal()
	if nominal.BER != 0 {
		t.Fatalf("nominal point has BER %v", nominal.BER)
	}
	adder, err := cli.Adder(ctx, spec, "RCA", 4, nominal.Triad)
	if err != nil {
		t.Fatal(err)
	}
	if adder.Width() != 4 {
		t.Fatalf("adder width %d", adder.Width())
	}
	for _, p := range [][2]uint64{{0, 0}, {15, 1}, {7, 9}, {12, 11}} {
		if got, want := adder.Add(p[0], p[1]), carry.ExactAdd(p[0], p[1], 4); got != want {
			t.Fatalf("%d+%d = %d, want %d", p[0], p[1], got, want)
		}
	}
	// Unknown operator coordinates fail cleanly.
	if _, err := cli.Adder(ctx, spec, "RCA", 16, nominal.Triad); err == nil {
		t.Fatal("adder for a width outside the spec succeeded")
	}
}

// TestProjections checks the Fig5/Fig8/Table4 projections over a
// vddgrid sweep.
func TestProjections(t *testing.T) {
	ctx := context.Background()
	cli := newLocal(t)
	spec := vos.NewSpec().Arches("RCA").Widths(4).Patterns(40).Seed(1).
		VddGrid([]float64{1.0, 0.7, 0.5}, nil)
	res, err := cli.Run(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	op := res.Operator("RCA", 4)
	if len(op.Points) != 3 {
		t.Fatalf("%d points", len(op.Points))
	}

	fig5 := op.Fig5()
	if len(fig5) != 3 || fig5[0].Vdd != 1.0 || fig5[2].Vdd != 0.5 {
		t.Fatalf("Fig5 = %+v", fig5)
	}
	if len(fig5[0].PerBit) != 5 { // 4 sum bits + carry-out
		t.Fatalf("Fig5 perBit has %d entries", len(fig5[0].PerBit))
	}

	// Fig. 8 and Table IV project the paper's 43-triad set, whose
	// error-free points tie at BER 0.
	paper, err := cli.Run(ctx, vos.NewSpec().Arches("RCA").Widths(4).Patterns(40).Seed(1))
	if err != nil {
		t.Fatal(err)
	}
	op = paper.Operator("RCA", 4)
	fig8 := op.Fig8()
	if len(fig8) != len(op.Points) {
		t.Fatalf("Fig8 has %d of %d points", len(fig8), len(op.Points))
	}
	ties := 0
	for i := 1; i < len(fig8); i++ {
		prev, cur := fig8[i-1], fig8[i]
		if prev.BER > cur.BER {
			t.Fatal("Fig8 not sorted by BER")
		}
		if prev.BER == cur.BER {
			ties++
			if prev.EnergyPerOpFJ > cur.EnergyPerOpFJ {
				t.Fatal("Fig8 ties not sorted by energy")
			}
		}
	}
	if ties == 0 {
		t.Fatal("no BER ties to order in Fig8")
	}

	bands := op.Table4()
	total := 0
	for _, s := range bands {
		total += s.Count
	}
	if total > len(op.Points) {
		t.Fatalf("Table4 binned %d of %d points", total, len(op.Points))
	}
	// The zero band holds the error-free points; its best one rounds to
	// 0% BER.
	if bands[0].Count == 0 || math.Round(bands[0].BERAtMaxEff*100) != 0 {
		t.Fatalf("Table4 zero band %+v", bands[0])
	}
	if vos.Table4Bands[0].String() != "0%" || vos.Table4Bands[1].String() != "1% to 10%" {
		t.Fatalf("band labels %q, %q", vos.Table4Bands[0], vos.Table4Bands[1])
	}

	clocks := op.TriadClocks()
	if clocks[1] <= 0 {
		t.Fatalf("TriadClocks = %v", clocks)
	}

	// CacheStats reflects the executed sweep.
	stats, err := cli.CacheStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Executions == 0 || stats.Stores == 0 {
		t.Fatalf("cache stats %+v", stats)
	}
}
