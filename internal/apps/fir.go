package apps

import (
	"math"
	"math/rand/v2"
	"sync"
	"sync/atomic"
)

// FIR is a low-pass filter with small integer taps (power-of-two-friendly,
// so the whole datapath is shifts and adds through the approximate adder).
// The default taps implement a 7-tap binomial smoother with gain 64.
type FIR struct {
	Taps  []int
	Shift int // output downshift: sum / 2^Shift
}

// BinomialFIR returns the [1 6 15 20 15 6 1]/64 low-pass filter.
func BinomialFIR() FIR {
	return FIR{Taps: []int{1, 6, 15, 20, 15, 6, 1}, Shift: 6}
}

// Apply filters the signal (unsigned samples < 256) with the approximate
// arithmetic; the output has the same length (edges zero-padded).
func (f FIR) Apply(x []uint64, ar *Arith) []uint64 {
	y := make([]uint64, len(x))
	terms := make([]uint64, 0, len(f.Taps))
	half := len(f.Taps) / 2
	for n := range x {
		terms = terms[:0]
		for k, c := range f.Taps {
			idx := n + k - half
			if idx < 0 || idx >= len(x) {
				continue
			}
			terms = append(terms, ar.MulSmall(x[idx], c))
		}
		y[n] = ar.SumTree(terms) >> uint(f.Shift)
	}
	return y
}

// TwoTone synthesizes a deterministic test signal: a slow sine (the band
// to keep) plus a fast sine (the band to reject) plus mild noise, offset
// into the unsigned range. Sample i is 128 + slow(i) + fast(i) + noise,
// summed left to right; the first three terms do not depend on the seed
// and come from a process-wide memo, so a call computes only its noise.
func TwoTone(n int, seed uint64) []uint64 {
	var pcg rand.PCG
	pcg.Seed(seed, 0x70e5)
	out := make([]uint64, n)
	for i, base := range twoToneBase(n) {
		v := base + (float64(pcg.Uint64()%5) - 2)
		if v < 0 {
			v = 0
		}
		if v > 255 {
			v = 255
		}
		out[i] = uint64(v)
	}
	return out
}

// toneBase holds the seed-free part of TwoTone, 128 + slow(i) + fast(i),
// for i below its length. It only grows, under toneMu, by the indices
// past its old length, so each index is computed once per process, and
// readers load it without the lock.
var (
	toneMu   sync.Mutex
	toneBase atomic.Pointer[[]float64]
)

// twoToneBase returns the seed-free part of TwoTone's first n samples.
// The slice is shared: callers must not modify it.
func twoToneBase(n int) []float64 {
	if b := toneBase.Load(); b != nil && len(*b) >= n {
		return (*b)[:n]
	}
	toneMu.Lock()
	defer toneMu.Unlock()
	var old []float64
	if b := toneBase.Load(); b != nil {
		old = *b
	}
	if len(old) >= n {
		return old[:n]
	}
	base := make([]float64, n)
	copy(base, old)
	for i := len(old); i < n; i++ {
		slow := 60 * math.Sin(2*math.Pi*float64(i)/64)
		fast := 25 * math.Sin(2*math.Pi*float64(i)/4)
		base[i] = 128 + slow + fast
	}
	toneBase.Store(&base)
	return base
}

// SignalSNR returns the ratio (dB) of reference signal power to the power
// of the deviation between got and ref.
func SignalSNR(ref, got []uint64) float64 {
	if len(ref) != len(got) {
		return math.NaN()
	}
	var sig, err float64
	for i := range ref {
		r := float64(ref[i])
		d := r - float64(got[i])
		sig += r * r
		err += d * d
	}
	if err == 0 {
		return math.Inf(1)
	}
	return 10 * math.Log10(sig/err)
}

// DotProduct accumulates element-wise products through the approximate
// adder (products themselves are exact — the study isolates the adder, as
// the paper's operator model does). Inputs must be small enough for the
// accumulation to stay within the word width.
func DotProduct(a, b []uint64, ar *Arith) uint64 {
	terms := make([]uint64, 0, len(a))
	for i := range a {
		if i >= len(b) {
			break
		}
		terms = append(terms, a[i]*b[i]&wordMask)
	}
	return ar.SumTree(terms)
}
