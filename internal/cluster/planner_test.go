package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/charz"
	"repro/internal/engine"
	"repro/internal/synth"
	"repro/internal/triad"
	"repro/vos"
)

// stuckPeer is a vosd lookalike whose sweeps never finish: submits are
// accepted, the event stream flushes its headers and then hangs, and
// status polls report running with zero progress forever. The shape of
// a live process wedged on a dead disk or a livelocked pool — exactly
// what a fixed breaker or an unbounded Wait cannot defend against.
type stuckPeer struct {
	ts       *httptest.Server
	canceled atomic.Int32
}

func newStuckPeer(t *testing.T) *stuckPeer {
	t.Helper()
	sp := &stuckPeer{}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sweeps", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprint(w, `{"id":"stuck-1"}`)
	})
	mux.HandleFunc("GET /v1/sweeps/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		if fl, ok := w.(http.Flusher); ok {
			fl.Flush()
		}
		<-r.Context().Done() // stream forever, send nothing
	})
	mux.HandleFunc("GET /v1/sweeps/{id}", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{
			"id": "stuck-1", "status": "running",
			"progress": map[string]int{"totalPoints": 4, "completed": 0},
		})
	})
	mux.HandleFunc("DELETE /v1/sweeps/{id}", func(w http.ResponseWriter, r *http.Request) {
		sp.canceled.Add(1)
		w.WriteHeader(http.StatusNoContent)
	})
	sp.ts = httptest.NewServer(mux)
	t.Cleanup(sp.ts.Close)
	return sp
}

// TestPlannerStallWatchdog: a dispatched shard whose peer stops making
// progress is declared stalled within the stall timeout, the orphaned
// sub-sweep is canceled on the peer, and the failure is an error the
// dispatch loop can re-route — not an indefinite hang.
func TestPlannerStallWatchdog(t *testing.T) {
	sp := newStuckPeer(t)
	self := "http://self.invalid"
	members := []string{self, sp.ts.URL}
	ps, err := newPeerSet(self, members, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPlanner(self, NewRing(members, 0), ps, PlannerOptions{
		CallTimeout:  2 * time.Second,
		StallTimeout: 300 * time.Millisecond,
	})

	cfg, err := charz.Config{Arch: synth.ArchRCA, Width: 4, Patterns: 10, Seed: 1}.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	trs := []vos.Triad{{Tclk: 1.0, Vdd: 1.0, Vbb: 0}}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		done <- p.runShardSweep(ctx, ps.get(sp.ts.URL), cfg, trs,
			func(pt *vos.Point) { t.Error("stuck peer produced a point") })
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("stalled shard reported success")
		}
		if !strings.Contains(err.Error(), "stalled") {
			t.Fatalf("error = %v; want a stall declaration", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("runShardSweep hung on a stalled peer — the watchdog never fired")
	}
	// The orphaned sub-sweep was canceled on the peer.
	deadline := time.Now().Add(2 * time.Second)
	for sp.canceled.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if sp.canceled.Load() == 0 {
		t.Fatal("stalled shard was never canceled on the peer")
	}
}

// TestPlannerCallTimeout: a peer that accepts the TCP connection but
// never answers the submit RPC is bounded by the call timeout instead
// of hanging the dispatch.
func TestPlannerCallTimeout(t *testing.T) {
	// Black-hole every request. The explicit stop channel matters: with
	// an unread POST body the server never detects the client's
	// disconnect, so r.Context() alone would wedge ts.Close forever.
	stop := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-stop:
		}
	}))
	t.Cleanup(ts.Close)
	t.Cleanup(func() { close(stop) })
	self := "http://self.invalid"
	members := []string{self, ts.URL}
	ps, err := newPeerSet(self, members, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPlanner(self, NewRing(members, 0), ps, PlannerOptions{
		CallTimeout:  200 * time.Millisecond,
		StallTimeout: time.Minute,
	})
	cfg, err := charz.Config{Arch: synth.ArchRCA, Width: 4, Patterns: 10, Seed: 1}.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err = p.runShardSweep(context.Background(), ps.get(ts.URL), cfg,
		[]vos.Triad{{Tclk: 1.0, Vdd: 1.0, Vbb: 0}}, func(*vos.Point) {})
	if err == nil {
		t.Fatal("black-holed submit reported success")
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("submit took %v; the call timeout did not bound it", elapsed)
	}
}

// TestTriadRoundTrip guards the shard spec's triad fidelity: the vos
// and engine triad types must stay interconvertible byte-for-byte,
// since dispatch matches returned points by triad value.
func TestTriadRoundTrip(t *testing.T) {
	tr := triad.Triad{Tclk: 1.25, Vdd: 0.85, Vbb: -0.3}
	if back := triad.Triad(vos.Triad(tr)); back != tr {
		t.Fatalf("triad round trip changed value: %+v -> %+v", tr, back)
	}
}

// TestPointSummaryMatchesReencode: the planner converts a shard's point
// into the engine's type field by field; the JSON round trip it replaced
// is the oracle. Random points cover a present and an absent fidelity
// report and nil, empty and filled per-bit slices.
func TestPointSummaryMatchesReencode(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 11))
	f := func() float64 { return rng.NormFloat64() * math.Pow(10, float64(rng.IntN(30)-20)) }
	bits := func(n int) []float64 {
		switch n {
		case 0:
			return nil
		case 1:
			return []float64{}
		}
		out := make([]float64, n)
		for i := range out {
			out[i] = f()
		}
		return out
	}
	counts := func(n int) []uint64 {
		switch n {
		case 0:
			return nil
		case 1:
			return []uint64{}
		}
		out := make([]uint64, n)
		for i := range out {
			out[i] = rng.Uint64()
		}
		return out
	}
	for i := range 200 {
		pt := &vos.Point{
			Triad: vos.Triad{Tclk: f(), Vdd: f(), Vbb: f()},
			Stats: vos.ErrorStats{Width: rng.IntN(33), Words: rng.Uint64(), FaultyBits: rng.Uint64(),
				FaultyWords: rng.Uint64(), PerBit: counts(rng.IntN(6)), SumSqErr: f(), SumSqSig: f(),
				Hamming: rng.Uint64(), Weighted: f()},
			BER: f(), WER: f(), PerBit: bits(rng.IntN(6)),
			EnergyPerOpFJ: f(), LateFraction: f(), Efficiency: f(), FromCache: i%2 == 0,
		}
		if i%3 == 0 {
			pt.Fidelity = &vos.Fidelity{SNRdB: f(), DeltaBER: f(), BERModel: f(), BERHardware: f(),
				TrainPatterns: rng.IntN(1 << 20), EvalPatterns: rng.IntN(1 << 20), Fingerprint: fmt.Sprint(rng.Uint64())}
		}
		var want engine.PointSummary
		if err := reencode(pt, &want); err != nil {
			t.Fatal(err)
		}
		if got := pointSummary(pt); !reflect.DeepEqual(got, want) {
			t.Fatalf("point %d:\nconverted %+v\nreencoded %+v", i, got, want)
		}
	}
}
