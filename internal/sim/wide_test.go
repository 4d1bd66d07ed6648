package sim_test

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/cell"
	"repro/internal/fdsoi"
	"repro/internal/netlist"
	"repro/internal/sim"
	"repro/internal/synth"
)

// traceOutNets returns the adder's output-port bits in the
// characterization flow's order (sum LSB-first, then carry-out).
func traceOutNets(nl *netlist.Netlist) []netlist.NetID {
	psum, _ := nl.OutputPort(synth.PortSum)
	pcout, _ := nl.OutputPort(synth.PortCout)
	out := make([]netlist.NetID, 0, len(psum.Bits)+len(pcout.Bits))
	out = append(out, psum.Bits...)
	return append(out, pcout.Bits...)
}

// traceChunks builds chained (prev, cur) 64-lane word chunks — one-word
// lane images, the K = 1 layout — for a random pattern stream of the
// given length, including a ragged final chunk when patterns is not a
// multiple of 64.
func traceChunks(nl *netlist.Netlist, mask uint64, patterns int, seed uint64) (chunks [][2][]uint64) {
	pa, _ := nl.InputPort(synth.PortA)
	pb, _ := nl.InputPort(synth.PortB)
	rng := rand.New(rand.NewPCG(seed, 29))
	prevA, prevB := uint64(0), uint64(0)
	for base := 0; base < patterns; base += sim.WordLanes {
		n := patterns - base
		if n > sim.WordLanes {
			n = sim.WordLanes
		}
		prevW := make([]uint64, nl.NumNets())
		curW := make([]uint64, nl.NumNets())
		for k := 0; k < n; k++ {
			a, b := rng.Uint64()&mask, rng.Uint64()&mask
			netlist.AssignPortLane(prevW, pa, uint(k), prevA)
			netlist.AssignPortLane(prevW, pb, uint(k), prevB)
			netlist.AssignPortLane(curW, pa, uint(k), a)
			netlist.AssignPortLane(curW, pb, uint(k), b)
			prevA, prevB = a, b
		}
		chunks = append(chunks, [2][]uint64{prevW, curW})
	}
	return chunks
}

// packWideChunks packs chained 64-lane word chunks into flat K-word
// lane-block images, k word chunks per wide chunk. A ragged final wide
// chunk zero-fills its missing words in both images, so they are inert.
func packWideChunks(nl *netlist.Netlist, chunks [][2][]uint64, k int) (wide [][2][]uint64) {
	nets := nl.NumNets()
	for base := 0; base < len(chunks); base += k {
		prevW := make([]uint64, nets*k)
		curW := make([]uint64, nets*k)
		for j := 0; j < k && base+j < len(chunks); j++ {
			c := chunks[base+j]
			for id := 0; id < nets; id++ {
				prevW[id*k+j] = c[0][id]
				curW[id*k+j] = c[1][id]
			}
		}
		wide = append(wide, [2][]uint64{prevW, curW})
	}
	return wide
}

// wideCrossCheck drives the identical pattern stream through the scalar
// dense engine (one StepDense per pattern) and a K-word wide engine (one
// StepWideChunk per K×64 patterns) and requires bit-identical captured
// values, energies and late flags per pattern, inert lanes past a ragged
// end, and equal per-lane transition totals — the parity property the
// wide path of the characterization flow rests on.
func wideCrossCheck(t *testing.T, nl *netlist.Netlist, op fdsoi.OperatingPoint, tclk float64, patterns, k int, seed uint64) {
	t.Helper()
	lib, proc := cell.Default28nmLVT(), fdsoi.Default()
	scalar := sim.New(nl, lib, proc, op)
	wide, err := sim.NewWide(nl, lib, proc, op, k)
	if err != nil {
		t.Fatal(err)
	}

	stim := netlist.CompileStimulus(nl)
	slotA, slotB := stim.MustSlot(synth.PortA), stim.MustSlot(synth.PortB)
	if err := scalar.ResetDense(stim.Values()); err != nil {
		t.Fatal(err)
	}
	pa, _ := nl.InputPort(synth.PortA)
	pb, _ := nl.InputPort(synth.PortB)
	mask := uint64(1)<<uint(len(pa.Bits)) - 1

	rng := rand.New(rand.NewPCG(seed, 17))
	as := make([]uint64, patterns)
	bs := make([]uint64, patterns)
	for i := range as {
		as[i], bs[i] = rng.Uint64()&mask, rng.Uint64()&mask
	}

	// Scalar reference results, pattern by pattern.
	type scalarStep struct {
		captured []uint8
		energy   float64
		late     bool
	}
	refs := make([]scalarStep, patterns)
	for i := range refs {
		stim.SetSlot(slotA, as[i])
		stim.SetSlot(slotB, bs[i])
		res, err := scalar.StepDense(stim.Values(), tclk)
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = scalarStep{
			captured: append([]uint8(nil), res.Captured...),
			energy:   res.EnergyFJ,
			late:     res.Late,
		}
	}

	// Wide engine, chunk by chunk (including a ragged final chunk when
	// patterns is not a multiple of K·64). Lane l of a chunk is bit l%64
	// of word l/64 in each net's block.
	lanes := k * sim.WordLanes
	bit := func(blk []uint64, id, l int) uint64 {
		return blk[id*k+l/sim.WordLanes] >> uint(l%sim.WordLanes) & 1
	}
	setLane := func(img []uint64, port netlist.Port, l int, v uint64) {
		for i, id := range port.Bits {
			img[int(id)*k+l/sim.WordLanes] |= (v >> uint(i) & 1) << uint(l%sim.WordLanes)
		}
	}
	prevW := make([]uint64, nl.NumNets()*k)
	curW := make([]uint64, nl.NumNets()*k)
	for base := 0; base < patterns; base += lanes {
		n := min(patterns-base, lanes)
		clear(prevW)
		clear(curW)
		for l := 0; l < n; l++ {
			pA, pB := uint64(0), uint64(0)
			if i := base + l - 1; i >= 0 {
				pA, pB = as[i], bs[i]
			}
			setLane(prevW, pa, l, pA)
			setLane(prevW, pb, l, pB)
			setLane(curW, pa, l, as[base+l])
			setLane(curW, pb, l, bs[base+l])
		}
		res, err := wide.StepWideChunk(prevW, curW, tclk)
		if err != nil {
			t.Fatal(err)
		}
		for l := 0; l < n; l++ {
			ref := refs[base+l]
			for id := range ref.captured {
				if got := uint8(bit(res.CapturedW, id, l)); got != ref.captured[id] {
					t.Fatalf("k %d pattern %d net %d: wide captured %d, scalar %d",
						k, base+l, id, got, ref.captured[id])
				}
			}
			if got := res.EnergyFJ[l]; math.Float64bits(got) != math.Float64bits(ref.energy) {
				t.Fatalf("k %d pattern %d: wide energy %v (bits %x), scalar %v (bits %x)",
					k, base+l, got, math.Float64bits(got), ref.energy, math.Float64bits(ref.energy))
			}
			if got := bit(res.LateW, 0, l) == 1; got != ref.late {
				t.Fatalf("k %d pattern %d: wide late %v, scalar %v", k, base+l, got, ref.late)
			}
		}
		// Lanes past a ragged end must stay inert: equal prev/cur inputs
		// mean pure-leakage energy and no late flag.
		leak := res.EnergyFJ[lanes-1]
		for l := n; l < lanes; l++ {
			if bit(res.LateW, 0, l) == 1 {
				t.Fatalf("k %d: inert lane %d flagged late", k, l)
			}
			if res.EnergyFJ[l] != leak {
				t.Fatalf("k %d: inert lane %d energy %v, want leakage-only %v", k, l, res.EnergyFJ[l], leak)
			}
		}
	}

	// The wide engine's per-lane transition totals must equal the scalar
	// stream's.
	ss, ws := scalar.Stats(), wide.Stats()
	if ss.Transitions != ws.Transitions || ss.LateTransitions != ws.LateTransitions {
		t.Fatalf("k %d: stats diverged: scalar %+v wide %+v", k, ss, ws)
	}
}

// TestWordStepMatchesScalarDense checks the one-word (K = 1) wide step
// against the scalar reference over a (Vdd, Tclk) grid from safely
// settled to deeply over-scaled (every capture mid-wave, plenty of late
// events) for both adder architectures, with per-gate mismatch so no two
// gate delays coincide exactly.
func TestWordStepMatchesScalarDense(t *testing.T) {
	archs := []struct {
		arch  synth.Arch
		width int
	}{
		{synth.ArchRCA, 8},
		{synth.ArchBKA, 8},
	}
	vdds := []float64{1.0, 0.7, 0.55}
	tclks := []float64{0.05, 0.12, 0.3, 2.0}
	for _, ad := range archs {
		mm := fdsoi.NewMismatchSampler(0.03, 7)
		nl, err := synth.NewAdder(ad.arch, synth.AdderConfig{Width: ad.width, Mismatch: mm})
		if err != nil {
			t.Fatal(err)
		}
		for _, vdd := range vdds {
			for _, tclk := range tclks {
				name := fmt.Sprintf("%s%d/%.2fV/%.2fns", ad.arch, ad.width, vdd, tclk)
				t.Run(name, func(t *testing.T) {
					// 130 patterns: two full chunks plus a ragged tail.
					wideCrossCheck(t, nl, fdsoi.OperatingPoint{Vdd: vdd, Vbb: 0}, tclk, 130, 1, 11)
				})
			}
		}
	}
}

// TestWideChunkMatchesWordChunk is the wide-lane parity argument: for
// every K, each 64-pattern word chunk of a K-word StepWideChunk must be
// bit-identical to the scalar StepDense reference pattern for pattern —
// captured nets, per-lane energy bits, late flags, transition totals —
// including a ragged final block whose trailing words are zero-filled.
func TestWideChunkMatchesWordChunk(t *testing.T) {
	mm := fdsoi.NewMismatchSampler(0.03, 23)
	nl, err := synth.NewAdder(synth.ArchBKA, synth.AdderConfig{Width: 16, Mismatch: mm})
	if err != nil {
		t.Fatal(err)
	}
	// 150 patterns = 2 full word chunks + a ragged 22-lane tail: at
	// K = 1 and 2 the last wide chunk is a ragged block, at K = 4 and 8
	// the single wide chunk carries zero-filled trailing words.
	ops := []fdsoi.OperatingPoint{
		{Vdd: 1.0, Vbb: 0},
		{Vdd: 0.55, Vbb: 2},
	}
	tclks := []float64{0.05, 0.25, 0.8}
	for _, k := range []int{1, 2, 4, 8} {
		for _, op := range ops {
			t.Run(fmt.Sprintf("k%d/%.2fV/%.0fbb", k, op.Vdd, op.Vbb), func(t *testing.T) {
				for _, tclk := range tclks {
					wideCrossCheck(t, nl, op, tclk, 150, k, 41)
				}
			})
		}
	}
}

// checkSampleMatchesChunk requires a walk's capture at tclk to be
// bit-identical to a direct StepWideChunk at the same tclk.
func checkSampleMatchesChunk(t *testing.T, direct *sim.WideEngine, sample *sim.WideSample,
	outNets []netlist.NetID, prev, cur []uint64, tclk float64) {
	t.Helper()
	k := direct.K()
	wres, err := direct.StepWideChunk(prev, cur, tclk)
	if err != nil {
		t.Fatal(err)
	}
	for s, id := range outNets {
		for j := 0; j < k; j++ {
			if sample.CapturedW[s*k+j] != wres.CapturedW[int(id)*k+j] {
				t.Fatalf("tclk %v net %d word %d: captured %x, direct %x",
					tclk, id, j, sample.CapturedW[s*k+j], wres.CapturedW[int(id)*k+j])
			}
		}
	}
	checkSamplesEqual(t, "direct", tclk, sample, &sim.WideSample{EnergyFJ: wres.EnergyFJ, LateW: wres.LateW})
}

// checkSamplesEqual requires two captures of one clock to agree bit for
// bit: energies always, captured blocks when want carries them.
func checkSamplesEqual(t *testing.T, what string, tclk float64, got, want *sim.WideSample) {
	t.Helper()
	if len(want.CapturedW) > 0 && !slices.Equal(got.CapturedW, want.CapturedW) {
		t.Fatalf("tclk %v: captured %x, %s %x", tclk, got.CapturedW, what, want.CapturedW)
	}
	if len(got.EnergyFJ) != len(want.EnergyFJ) {
		t.Fatalf("tclk %v: %d lane energies, %s %d", tclk, len(got.EnergyFJ), what, len(want.EnergyFJ))
	}
	for l := range want.EnergyFJ {
		if math.Float64bits(got.EnergyFJ[l]) != math.Float64bits(want.EnergyFJ[l]) {
			t.Fatalf("tclk %v lane %d: energy %v, %s %v", tclk, l, got.EnergyFJ[l], what, want.EnergyFJ[l])
		}
	}
	if !slices.Equal(got.LateW, want.LateW) {
		t.Fatalf("tclk %v: late %x, %s %x", tclk, got.LateW, what, want.LateW)
	}
}

// TestWideTraceResampleMatchesWideChunk: one StepWideTrace capturing a
// grid of clocks in its walk must match direct StepWideChunk calls at
// every clock, bit for bit, on chained two-word chunks with a ragged
// tail — including a repeated clock.
func TestWideTraceResampleMatchesWideChunk(t *testing.T) {
	lib, proc := cell.Default28nmLVT(), fdsoi.Default()
	mm := fdsoi.NewMismatchSampler(0.03, 31)
	nl, err := synth.NewAdder(synth.ArchRCA, synth.AdderConfig{Width: 8, Mismatch: mm})
	if err != nil {
		t.Fatal(err)
	}
	outNets := traceOutNets(nl)
	chunks := traceChunks(nl, 0xff, 150, 7)
	const k = 2
	wide := packWideChunks(nl, chunks, k)
	clocks := []float64{0.02, 0.1, 0.3, 0.3, 0.45}
	samples := make([]sim.WideSample, len(clocks))
	for _, op := range []fdsoi.OperatingPoint{{Vdd: 1.0, Vbb: 0}, {Vdd: 0.5, Vbb: 2}} {
		tracer, err := sim.NewWide(nl, lib, proc, op, k)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := sim.NewWide(nl, lib, proc, op, k)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range wide {
			if _, err := tracer.StepWideTrace(c[0], c[1], outNets, clocks, samples); err != nil {
				t.Fatal(err)
			}
			for i, tclk := range clocks {
				checkSampleMatchesChunk(t, direct, &samples[i], outNets, c[0], c[1], tclk)
			}
		}
	}
}

// TestTraceResampleMatchesWordChunk is the capture-walk parity argument
// at the one-word (K = 1) geometry: one StepWideTrace per 64-pattern
// chunk, capturing a clock grid from "captures nothing" to "captures
// everything", must match a direct one-word StepWideChunk at each clock
// across both adder architectures, a (Vdd, Vbb) grid and chained chunks
// including a ragged tail.
func TestTraceResampleMatchesWordChunk(t *testing.T) {
	lib, proc := cell.Default28nmLVT(), fdsoi.Default()
	archs := []struct {
		arch  synth.Arch
		width int
		mask  uint64
	}{
		{synth.ArchRCA, 8, 0xff},
		{synth.ArchBKA, 16, 0xffff},
	}
	ops := []fdsoi.OperatingPoint{
		{Vdd: 1.0, Vbb: 0},
		{Vdd: 0.7, Vbb: 0},
		{Vdd: 0.55, Vbb: 2},
		{Vdd: 0.45, Vbb: 2},
	}
	clocks := []float64{0.02, 0.08, 0.15, 0.3, 0.9, 5.0}
	for _, ad := range archs {
		mm := fdsoi.NewMismatchSampler(0.03, 13)
		nl, err := synth.NewAdder(ad.arch, synth.AdderConfig{Width: ad.width, Mismatch: mm})
		if err != nil {
			t.Fatal(err)
		}
		outNets := traceOutNets(nl)
		chunks := traceChunks(nl, ad.mask, 150, 41) // 2 full chunks + ragged 22-lane tail
		for _, op := range ops {
			t.Run(fmt.Sprintf("%s%d/%.2fV/%.0fbb", ad.arch, ad.width, op.Vdd, op.Vbb), func(t *testing.T) {
				tracer, err := sim.NewWide(nl, lib, proc, op, 1)
				if err != nil {
					t.Fatal(err)
				}
				direct, err := sim.NewWide(nl, lib, proc, op, 1)
				if err != nil {
					t.Fatal(err)
				}
				samples := make([]sim.WideSample, len(clocks))
				for _, c := range chunks {
					if _, err := tracer.StepWideTrace(c[0], c[1], outNets, clocks, samples); err != nil {
						t.Fatal(err)
					}
					for i, tclk := range clocks {
						checkSampleMatchesChunk(t, direct, &samples[i], outNets, c[0], c[1], tclk)
					}
				}
			})
		}
	}
}

// boundaryClocks returns every event timestamp of a trace together with
// its float neighbors, ascending: clocks placed exactly on an event
// (captured, the queue's pop is inclusive) and just either side of it.
func boundaryClocks(trace *sim.WideTrace) []float64 {
	var clocks []float64
	for _, tt := range trace.EventTimes(nil) {
		for _, c := range []float64{math.Nextafter(tt, 0), tt, math.Nextafter(tt, math.Inf(1))} {
			if c > 0 && (len(clocks) == 0 || c > clocks[len(clocks)-1]) {
				clocks = append(clocks, c)
			}
		}
	}
	return clocks
}

// TestTraceResampleAtEventTimestamps pins the capture boundary: a clock
// placed exactly on an event's timestamp captures that event (the
// calendar queue's pop boundary is inclusive), and the float just below
// it does not. Every recorded event time of a deeply over-scaled
// two-word chunk, and each float either side of it, is captured in one
// walk and bit-compared against the direct path — and again in walks
// whose last clock falls mid-wave, where energy attribution stops early.
func TestTraceResampleAtEventTimestamps(t *testing.T) {
	lib, proc := cell.Default28nmLVT(), fdsoi.Default()
	mm := fdsoi.NewMismatchSampler(0.03, 17)
	nl, err := synth.NewAdder(synth.ArchBKA, synth.AdderConfig{Width: 8, Mismatch: mm})
	if err != nil {
		t.Fatal(err)
	}
	outNets := traceOutNets(nl)
	const k = 2
	chunks := traceChunks(nl, 0xff, k*sim.WordLanes, 3)
	c := packWideChunks(nl, chunks, k)[0]
	op := fdsoi.OperatingPoint{Vdd: 0.6, Vbb: 0}
	tracer, err := sim.NewWide(nl, lib, proc, op, k)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := sim.NewWide(nl, lib, proc, op, k)
	if err != nil {
		t.Fatal(err)
	}
	trace, err := tracer.StepWideTrace(c[0], c[1], outNets, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	all := boundaryClocks(trace)
	if len(all) < 6 {
		t.Fatalf("trace recorded %d boundary clocks, want a deep wave", len(all))
	}
	samples := make([]sim.WideSample, len(all))
	for _, clocks := range [][]float64{all, all[:len(all)/2], all[len(all)/3 : len(all)/3+1]} {
		if _, err := tracer.StepWideTrace(c[0], c[1], outNets, clocks, samples[:len(clocks)]); err != nil {
			t.Fatal(err)
		}
		for i, tclk := range clocks {
			checkSampleMatchesChunk(t, direct, &samples[i], outNets, c[0], c[1], tclk)
		}
	}
}

// TestCrossVddResampleMatchesFresh is the cross-voltage reuse parity
// argument: over a Vdd ladder on both paper adders, every retime
// RetimeTrace accepts must capture each clock bit-identically to a
// fresh StepWideTrace at the target operating point and to a direct
// StepWideChunk there — on a clock grid plus clocks placed exactly on
// (and either side of) the target wave's own event times — and every
// acceptance must be counted. Without per-gate mismatch the delay map is
// uniform up to quantization, and the quantized+dithered delay grid
// keeps even the Brent-Kung fabric's degenerate reconvergent paths
// order-stable, so every retime on the grid must succeed for both
// adders (the fallback valve itself is pinned by
// TestRetimeOrderFallback under strong mismatch).
func TestCrossVddResampleMatchesFresh(t *testing.T) {
	lib, proc := cell.Default28nmLVT(), fdsoi.Default()
	for _, ad := range []struct {
		arch  synth.Arch
		width int
		mask  uint64
	}{
		{synth.ArchRCA, 8, 0xff},
		{synth.ArchBKA, 16, 0xffff},
	} {
		nl, err := synth.NewAdder(ad.arch, synth.AdderConfig{Width: ad.width})
		if err != nil {
			t.Fatal(err)
		}
		outNets := traceOutNets(nl)
		chunks := traceChunks(nl, ad.mask, 2*sim.WordLanes, 61)
		const k = 2
		wide := packWideChunks(nl, chunks, k)
		c := wide[0]
		const vbb = 2.0
		src, err := sim.NewWide(nl, lib, proc, fdsoi.OperatingPoint{Vdd: 1.0, Vbb: vbb}, k)
		if err != nil {
			t.Fatal(err)
		}
		grid := []float64{0.05, 0.2, 0.5, 1.5, 6.0}
		srcSamples := make([]sim.WideSample, len(grid))
		srcTrace, err := src.StepWideTrace(c[0], c[1], outNets, grid, srcSamples)
		if err != nil {
			t.Fatal(err)
		}
		var okTotal, fbTotal uint64
		for _, vdd := range []float64{0.9, 0.7, 0.5, 0.4} {
			op := fdsoi.OperatingPoint{Vdd: vdd, Vbb: vbb}
			t.Run(fmt.Sprintf("%s%d/%.2fV", ad.arch, ad.width, vdd), func(t *testing.T) {
				target, err := sim.NewWide(nl, lib, proc, op, k)
				if err != nil {
					t.Fatal(err)
				}
				fresh, err := sim.NewWide(nl, lib, proc, op, k)
				if err != nil {
					t.Fatal(err)
				}
				direct, err := sim.NewWide(nl, lib, proc, op, k)
				if err != nil {
					t.Fatal(err)
				}
				freshTrace, err := fresh.StepWideTrace(c[0], c[1], outNets, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				onEvents := boundaryClocks(freshTrace)
				var clocks []float64
				for i := 0; i < len(onEvents); i += 7 {
					clocks = append(clocks, onEvents[i])
				}
				clocks = append(clocks, grid...)
				slices.Sort(clocks)
				got := make([]sim.WideSample, len(clocks))
				want := make([]sim.WideSample, len(clocks))
				if _, err := fresh.StepWideTrace(c[0], c[1], outNets, clocks, want); err != nil {
					t.Fatal(err)
				}
				okBefore, fbBefore := target.RetimeStats()
				ok, err := target.RetimeTrace(srcTrace, clocks, got)
				if err != nil {
					t.Fatal(err)
				}
				okAfter, fbAfter := target.RetimeStats()
				if !ok {
					t.Fatal("uniform-delay retime rejected")
				}
				if okAfter != okBefore+1 || fbAfter != fbBefore {
					t.Fatalf("accepted retime not counted (ok %d→%d, fb %d→%d)", okBefore, okAfter, fbBefore, fbAfter)
				}
				for i, tclk := range clocks {
					checkSamplesEqual(t, "fresh", tclk, &got[i], &want[i])
					checkSampleMatchesChunk(t, direct, &got[i], outNets, c[0], c[1], tclk)
				}
				// A retime whose last clock falls mid-wave stops its
				// energy attribution there.
				half := clocks[:len(clocks)/2]
				if ok, err := target.RetimeTrace(srcTrace, half, got[:len(half)]); err != nil || !ok {
					t.Fatalf("mid-wave retime: ok=%v err=%v", ok, err)
				}
				for i, tclk := range half {
					checkSamplesEqual(t, "fresh", tclk, &got[i], &want[i])
				}
				okAfter, fbAfter = target.RetimeStats()
				okTotal += okAfter
				fbTotal += fbAfter
			})
		}
		if okTotal == 0 || fbTotal != 0 {
			t.Fatalf("%s%d: grid retime stats ok=%d fb=%d, want all-ok", ad.arch, ad.width, okTotal, fbTotal)
		}
	}
}

// TestRetimeOrderFallback crafts an order flip: with strong per-gate
// threshold mismatch the sub-knee delay map does not rescale uniformly
// across a deep Vdd drop, so some recorded event pair must reorder and
// RetimeTrace must reject the wave (counting a fallback) rather than
// retime it — the correctness valve the grouped sweep relies on.
func TestRetimeOrderFallback(t *testing.T) {
	lib, proc := cell.Default28nmLVT(), fdsoi.Default()
	mm := fdsoi.NewMismatchSampler(0.12, 5)
	nl, err := synth.NewAdder(synth.ArchBKA, synth.AdderConfig{Width: 16, Mismatch: mm})
	if err != nil {
		t.Fatal(err)
	}
	outNets := traceOutNets(nl)
	chunks := traceChunks(nl, 0xffff, sim.WordLanes, 13)
	const k = 1
	wide := packWideChunks(nl, chunks, k)
	c := wide[0]
	src, err := sim.NewWide(nl, lib, proc, fdsoi.OperatingPoint{Vdd: 1.0, Vbb: 0}, k)
	if err != nil {
		t.Fatal(err)
	}
	clocks := []float64{8.0}
	samples := make([]sim.WideSample, 1)
	trace, err := src.StepWideTrace(c[0], c[1], outNets, clocks, samples)
	if err != nil {
		t.Fatal(err)
	}
	fallbacks := uint64(0)
	for _, vdd := range []float64{0.8, 0.6, 0.5, 0.45, 0.4} {
		eng, err := sim.NewWide(nl, lib, proc, fdsoi.OperatingPoint{Vdd: vdd, Vbb: 0}, k)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.RetimeTrace(trace, clocks, samples); err != nil {
			t.Fatal(err)
		}
		_, fb := eng.RetimeStats()
		fallbacks += fb
	}
	if fallbacks == 0 {
		t.Fatal("no retime fallback across a deep mismatched Vdd drop; the order check never fired")
	}
}

// TestWideValidation pins the wide path's error behavior.
func TestWideValidation(t *testing.T) {
	lib, proc := cell.Default28nmLVT(), fdsoi.Default()
	nl, err := synth.RCA(synth.AdderConfig{Width: 4})
	if err != nil {
		t.Fatal(err)
	}
	op := fdsoi.OperatingPoint{Vdd: 1.0}
	if _, err := sim.NewWide(nl, lib, proc, op, 0); err == nil {
		t.Fatal("k = 0 accepted")
	}
	if _, err := sim.NewWide(nl, lib, proc, op, sim.MaxWideWords+1); err == nil {
		t.Fatal("k beyond MaxWideWords accepted")
	}
	const k = 2
	eng, err := sim.NewWide(nl, lib, proc, op, k)
	if err != nil {
		t.Fatal(err)
	}
	lanes := make([]uint64, nl.NumNets()*k)
	if _, err := eng.StepWideChunk(lanes[:1], lanes, 0.5); err == nil {
		t.Fatal("short prev image accepted")
	}
	if _, err := eng.StepWideChunk(lanes, lanes[:1], 0.5); err == nil {
		t.Fatal("short cur image accepted")
	}
	if _, err := eng.StepWideChunk(lanes, lanes, 0); err == nil {
		t.Fatal("non-positive tclk accepted")
	}
	if _, err := eng.StepWideChunk(lanes, lanes, math.NaN()); err == nil {
		t.Fatal("NaN tclk accepted")
	}
	one := []float64{1.0}
	samples := make([]sim.WideSample, 2)
	for name, clocks := range map[string][]float64{
		"non-positive clock": {0},
		"NaN clock":          {math.NaN()},
		"descending clocks":  {1.0, 0.5},
	} {
		if _, err := eng.StepWideTrace(lanes, lanes, nil, clocks, samples[:len(clocks)]); err == nil {
			t.Fatalf("trace: %s accepted", name)
		}
	}
	if _, err := eng.StepWideTrace(lanes, lanes, nil, one, samples); err == nil {
		t.Fatal("trace: sample count mismatch accepted")
	}
	if _, err := eng.StepWideTrace(lanes[:1], lanes, nil, one, samples[:1]); err == nil {
		t.Fatal("short prev image accepted by the trace")
	}
	if _, err := eng.StepWideTrace(lanes, lanes[:1], nil, one, samples[:1]); err == nil {
		t.Fatal("short cur image accepted by the trace")
	}
	if _, err := eng.StepWideTrace(lanes, lanes, []netlist.NetID{netlist.NetID(nl.NumNets())}, one, samples[:1]); err == nil {
		t.Fatal("out-of-range tracked net accepted")
	}
	if _, err := eng.StepWideTrace(lanes, lanes, []netlist.NetID{1, 1}, one, samples[:1]); err == nil {
		t.Fatal("duplicate tracked net accepted")
	}
	trace, err := eng.StepWideTrace(lanes, lanes, []netlist.NetID{1, 2}, one, samples[:1])
	if err != nil {
		t.Fatal("tracked set rejected after duplicate error:", err)
	}
	k1 := e2Trace(t, nl, lib, proc)
	if _, err := eng.RetimeTrace(&k1, one, samples[:1]); err == nil {
		t.Fatal("retime across lane widths accepted")
	}
	if _, err := eng.RetimeTrace(trace, []float64{math.NaN()}, samples[:1]); err == nil {
		t.Fatal("NaN retime clock accepted")
	}
	if _, err := eng.RetimeTrace(trace, []float64{1.0, 0.5}, samples); err == nil {
		t.Fatal("descending retime clocks accepted")
	}
	if _, err := eng.RetimeTrace(trace, one, samples); err == nil {
		t.Fatal("retime sample count mismatch accepted")
	}
	if ok, err := eng.RetimeTrace(trace, one, samples[:1]); err != nil || !ok {
		t.Fatalf("same-op retime rejected: ok=%v err=%v", ok, err)
	}
}

// e2Trace builds a k=1 trace so TestWideValidation can exercise the
// lane-width mismatch guard against the k=2 engine.
func e2Trace(t *testing.T, nl *netlist.Netlist, lib *cell.Library, proc fdsoi.Params) sim.WideTrace {
	t.Helper()
	eng, err := sim.NewWide(nl, lib, proc, fdsoi.OperatingPoint{Vdd: 1.0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	lanes := make([]uint64, nl.NumNets())
	tr, err := eng.StepWideTrace(lanes, lanes, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return *tr
}

// TestWideSteadyStateAllocs: after warm-up, a wide trace step capturing
// its clocks and a cross-voltage retime capturing the target's must not
// allocate — the engines own the trace and retime buffers, the caller
// owns the samples. The RCA is used because its retimes are
// order-stable (the retime must succeed for its capture walk to be
// exercised).
func TestWideSteadyStateAllocs(t *testing.T) {
	lib, proc := cell.Default28nmLVT(), fdsoi.Default()
	nl, err := synth.RCA(synth.AdderConfig{Width: 16})
	if err != nil {
		t.Fatal(err)
	}
	outNets := traceOutNets(nl)
	chunks := traceChunks(nl, 0xffff, 4*sim.WordLanes, 9)
	const k = 2
	wide := packWideChunks(nl, chunks, k)
	src, err := sim.NewWide(nl, lib, proc, fdsoi.OperatingPoint{Vdd: 1.0, Vbb: 0}, k)
	if err != nil {
		t.Fatal(err)
	}
	target, err := sim.NewWide(nl, lib, proc, fdsoi.OperatingPoint{Vdd: 0.8, Vbb: 0}, k)
	if err != nil {
		t.Fatal(err)
	}
	srcClocks, targetClocks := []float64{0.2, 0.45, 0.6}, []float64{0.3, 0.6}
	samples := make([]sim.WideSample, len(srcClocks))
	step := func(c [2][]uint64) {
		trace, err := src.StepWideTrace(c[0], c[1], outNets, srcClocks, samples)
		if err != nil {
			t.Fatal(err)
		}
		ok, err := target.RetimeTrace(trace, targetClocks, samples[:len(targetClocks)])
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatal("uniform-delay retime rejected")
		}
	}
	for _, c := range wide {
		step(c) // warm up engine- and caller-owned buffers
	}
	if allocs := testing.AllocsPerRun(50, func() {
		for _, c := range wide {
			step(c)
		}
	}); allocs > 0 {
		t.Errorf("steady-state wide step allocates %.1f times per run, want 0", allocs)
	}
}
