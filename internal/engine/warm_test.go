package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/cell"
	"repro/internal/charz"
	"repro/internal/fdsoi"
	"repro/internal/model"
	"repro/internal/synth"
	"repro/internal/triad"
)

// oracleMaterial is the reference encoding of a point's key material:
// json.Marshal of its whole keyMaterial, which the per-operator
// derivation must reproduce byte for byte.
func oracleMaterial(cfg charz.Config, tr triad.Triad) ([]byte, error) {
	canon, err := cfg.Canonical()
	if err != nil {
		return nil, err
	}
	m := keyMaterial{
		Version:       keySchemaVersion,
		Arch:          canon.Arch.String(),
		Width:         canon.Width,
		Patterns:      canon.Patterns,
		Seed:          canon.Seed,
		PropagateP:    canon.PropagateP,
		MismatchSigma: canon.MismatchSigma,
		Backend:       canon.Backend.String(),
		Streaming:     canon.Streaming,
		Proc:          *canon.Proc,
		LibFP:         canon.Lib.Fingerprint(),
		Tclk:          tr.Tclk,
		Vdd:           tr.Vdd,
		Vbb:           tr.Vbb,
	}
	if canon.Backend == charz.BackendModel {
		m.Model = model.DefaultSpec().Fingerprint()
	}
	return json.Marshal(m)
}

// TestPointKeysMatchOracle: the per-operator key derivation must hash
// exactly the bytes json.Marshal(keyMaterial) produces, for random
// configurations over every architecture, width, backend and process or
// library override, and for triad values around encoding/json's switch
// to exponent notation.
func TestPointKeysMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 3))
	altProc := fdsoi.Default()
	altProc.Vt0 += 0.013
	altLib := cell.Default28nmLVT()
	altLib.WireCap += 0.05

	values := []float64{0, math.Copysign(0, -1), 1e-7, -1e-7, 1e-6, 9.999999e-7, 1e21, 9.99e20, 1.5e300,
		5e-324, 0.1, 0.3, 1.0 / 3, 0.558, 2, 123456.789, -0.25}
	for range 40 {
		values = append(values, rng.Float64()*math.Pow(10, float64(rng.IntN(40)-15)))
	}
	randTriad := func() triad.Triad {
		return triad.Triad{Tclk: values[rng.IntN(len(values))], Vdd: values[rng.IntN(len(values))],
			Vbb: values[rng.IntN(len(values))]}
	}

	configs, keyed := 0, 0
	for _, arch := range synth.Arches() {
		for width := 1; width <= 32; width++ {
			cfg := charz.Config{
				Arch:          arch,
				Width:         width,
				Patterns:      1 + rng.IntN(30000),
				Seed:          rng.Uint64(),
				PropagateP:    []float64{0, 0.5, 0.8, rng.Float64()}[rng.IntN(4)],
				MismatchSigma: []float64{-1, 0, 0.003, rng.Float64() / 100}[rng.IntN(4)],
				Backend:       charz.Backend(rng.IntN(3)),
				Streaming:     rng.IntN(3) == 0,
			}
			switch rng.IntN(3) {
			case 1:
				cfg.Proc = &altProc
			case 2:
				cfg.Proc, cfg.Lib = &altProc, altLib
			}
			k, kerr := newPointKeyer(cfg)
			for range 8 {
				tr := randTriad()
				want, werr := oracleMaterial(cfg, tr)
				got, gerr := []byte(nil), kerr
				if kerr == nil {
					got, gerr = k.material(tr)
				}
				if (werr != nil) != (gerr != nil) {
					t.Fatalf("%+v at %+v: oracle error %v, keyer error %v", cfg, tr, werr, gerr)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%+v at %+v:\nkeyer  %s\noracle %s", cfg, tr, got, want)
				}
				if gerr == nil {
					keyed++
				}
			}
			configs++
		}
	}
	if configs != len(synth.Arches())*32 || keyed < configs*8/2 {
		t.Fatalf("keyed %d points of %d configurations", keyed, configs)
	}

	// NaN and infinities have no JSON encoding, so neither path keys them.
	cfg := testConfig()
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		tr := triad.Triad{Tclk: 1, Vdd: v}
		if _, err := oracleMaterial(cfg, tr); err == nil {
			t.Fatalf("oracle encoded Vdd %v", v)
		}
		if _, err := PointKey(cfg, tr); err == nil {
			t.Fatalf("PointKey keyed Vdd %v", v)
		}
	}
}

// TestPlanKeysMatchPointKey: every key a plan carries is PointKey of its
// triad.
func TestPlanKeysMatchPointKey(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 2})
	for _, req := range []Request{
		{Arches: []string{"RCA", "BKA"}, Widths: []int{4}, Patterns: 40, Seed: 7},
		{Arches: []string{"RCA"}, Widths: []int{4}, Patterns: 40, Seed: 7, Backend: "model"},
		{Arches: []string{"KSA"}, Widths: []int{3}, Patterns: 20, Seed: 2, Policy: PolicyExplicit,
			Triads: []triad.Triad{{Tclk: 1e-7, Vdd: 1e21}, {Tclk: 0.3, Vdd: 0.8, Vbb: 2}}},
	} {
		plans, err := e.Plan(t.Context(), &req)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range plans {
			if len(p.Keys) != len(p.Triads) {
				t.Fatalf("%d keys for %d triads", len(p.Keys), len(p.Triads))
			}
			for i, tr := range p.Triads {
				want, err := PointKey(p.Config, tr)
				if err != nil {
					t.Fatal(err)
				}
				if p.Keys[i] != want {
					t.Fatalf("%s at %+v: plan key %s, PointKey %s", p.Config.BenchName(), tr, p.Keys[i], want)
				}
			}
		}
	}
}

// TestHitsStayImmutable: the memory tier shares one decoded result among
// its readers, so what a sweep summarizes from a point, computed or hit,
// must be the caller's own. Mutating every part of the summaries — the
// error statistics, the per-bit rates, the fidelity report — must leave
// the cached entries equal to a decode of the stored bytes.
func TestHitsStayImmutable(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 2})
	ctx := t.Context()
	for _, cfg := range []charz.Config{
		testConfig(),
		{Arch: synth.ArchRCA, Width: 8, Patterns: 60, Seed: 1, Backend: charz.BackendModel},
	} {
		prep, err := e.Prepare(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var group []triad.Triad
		for _, idxs := range triad.GroupByOperatingPoint(prep.TriadSet()) {
			if len(idxs) > 1 {
				for _, i := range idxs {
					group = append(group, prep.TriadSet()[i])
				}
				break
			}
		}
		if len(group) < 2 {
			t.Fatalf("%s: no electrical group of several triads", cfg.Backend)
		}
		// Cold, the sweep simulates the group where the backend groups
		// and calibrates point by point otherwise (the model backend);
		// warm, it is served from the shared hits.
		req := Request{Arches: []string{cfg.Arch.String()}, Widths: []int{cfg.Width},
			Patterns: cfg.Patterns, Seed: cfg.Seed, Backend: cfg.Backend.String(), Policy: PolicyExplicit, Triads: group}
		for _, hits := range []int{0, len(group)} {
			id, err := e.Submit(req)
			if err != nil {
				t.Fatal(err)
			}
			sw, err := e.Wait(ctx, id)
			if err != nil || sw.Status != StatusDone || sw.Progress.CacheHits != hits {
				t.Fatalf("sweep over the group: %v %s %+v, want %d hits", err, sw.Status, sw.Progress, hits)
			}
			for i := range sw.Results[0].Points {
				p := &sw.Results[0].Points[i]
				p.Stats.PerBit[0]++
				p.PerBit[0] = -1
				if p.Fidelity != nil {
					p.Fidelity.SNRdB = -1
					p.Fidelity.Fingerprint = "mutated"
				}
			}
		}
		for _, tr := range group {
			key, err := PointKey(prep.Config, tr)
			if err != nil {
				t.Fatal(err)
			}
			ent, ok := e.cache.Get(ctx, key)
			if !ok {
				t.Fatalf("%+v not cached", tr)
			}
			want, err := decodePoint(ent.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			if cfg.Backend == charz.BackendModel && want.Fidelity == nil {
				t.Fatalf("model point %+v has no fidelity report", tr)
			}
			if !reflect.DeepEqual(ent.Point(), want) {
				t.Fatalf("%s hit at %+v changed after its readers mutated their copies", cfg.Backend, tr)
			}
		}
	}
}

// TestNewEntryRejectsNonPoints: an entry must decode as a point result
// with an error accumulator; valid JSON of any other shape is refused.
func TestNewEntryRejectsNonPoints(t *testing.T) {
	for _, bad := range []string{`{}`, `null`, `{"Acc":null}`, `[]`, `"point"`, `{"Triad":{"tclk":1}}`, `{"Acc":{}}`, `{broken`} {
		if _, err := NewEntry([]byte(bad)); err == nil {
			t.Errorf("NewEntry(%s) accepted a non-point", bad)
		}
	}
	e, err := NewEntry(testPoint(1))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(e.Bytes(), testPoint(1)) || e.Point().Acc == nil {
		t.Fatalf("entry %+v", e)
	}
}

// TestNonPointDiskEntryRecomputed: a disk entry that is valid JSON but no
// point result counts as corrupt: a miss, recomputed and overwritten.
func TestNonPointDiskEntryRecomputed(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	tr := triad.Triad{Tclk: 0.5, Vdd: 0.8}
	key, err := PointKey(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	entry := filepath.Join(dir, key[:2], key+".json")
	if err := os.MkdirAll(filepath.Dir(entry), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{`{}`, `null`, `{"Acc":null}`} {
		if err := os.WriteFile(entry, []byte(bad), 0o644); err != nil {
			t.Fatal(err)
		}
		e := newTestEngine(t, Options{Workers: 1, CacheDir: dir})
		id, err := e.Submit(Request{Arches: []string{"RCA"}, Widths: []int{4}, Patterns: 40, Seed: 7,
			Policy: PolicyExplicit, Triads: []triad.Triad{tr}})
		if err != nil {
			t.Fatal(err)
		}
		sw, err := e.Wait(t.Context(), id)
		if err != nil || sw.Status != StatusDone {
			t.Fatalf("%s: sweep %v %s (%s)", bad, err, sw.Status, sw.Error)
		}
		if s := e.CacheStats(); e.Executions() != 1 || s.CorruptEntries != 1 {
			t.Fatalf("%s: %d executions, stats %+v; want the entry recomputed as corrupt", bad, e.Executions(), s)
		}
		data, err := os.ReadFile(entry)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := NewEntry(data); err != nil {
			t.Fatalf("%s: disk entry not overwritten with a point: %v", bad, err)
		}
		e.Close()
	}
}

// TestStreamCaughtUp: a stream marks the event after which it waits for
// the next publish — the opening snapshot of a job still planning — and
// marks none of a finished job's events.
func TestStreamCaughtUp(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 1})
	gate := make(chan struct{})
	r := newRegistry(e, gatedKind(gate, 3))
	id, err := r.submit(struct{}{})
	if err != nil {
		t.Fatal(err)
	}
	j, _ := r.lookup(id)
	ctx, cancel := context.WithCancel(t.Context())
	defer cancel()
	live, _ := r.subscribe(ctx, id)
	var last bool
	n := 0
	for ev, caughtUp := range live {
		if n == 0 {
			if ev.Status != StatusPending || !caughtUp {
				t.Fatalf("opening %s event caught up %v, want a pending snapshot that is", ev.Status, caughtUp)
			}
			close(gate)
		}
		n++
		last = caughtUp
	}
	if last {
		t.Fatal("the terminal event is marked caught up")
	}
	<-j.done
	done, _ := r.subscribe(ctx, id)
	for ev, caughtUp := range done {
		if caughtUp {
			t.Fatalf("finished job's %s event marked caught up", ev.Type)
		}
	}
}
