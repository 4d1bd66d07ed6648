// Package apps provides the error-resilient application kernels the paper
// motivates ("video processing, image recognition, ... have the inherent
// ability to tolerate hardware uncertainty"): an image smoothing filter, a
// Sobel edge detector, an FIR low-pass filter and a dot-product kernel.
//
// Every kernel performs its additions through a core.HardwareAdder, so the
// same code runs on the exact adder, on the timing-simulator oracle at any
// operating triad, or on the trained statistical model — connecting
// circuit-level BER to application-level quality (PSNR / SNR), which is
// the algorithmic-level use the paper's Section IV model targets.
package apps

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"

	"repro/internal/core"
)

// Word is the accumulator width the kernels run at; 16 bits comfortably
// holds the 3×3 kernel sums of 8-bit pixels and the FIR accumulations.
const Word = 16

const wordMask = uint64(1)<<Word - 1

// Arith bundles the approximate adder with helper operations derived from
// it (subtraction and small-constant multiplication are add networks, so
// their errors inherit the adder's behaviour — the circuit-level
// approximation composes upward exactly as it would in hardware).
//
// NewArith resolves the adder once. On core.ExactAdder every operation is
// native arithmetic mod 2^Word, which the add networks equal by ring
// identity; any other adder is called through the core.HardwareAdder
// interface. Each operation issues its adds in a fixed order, and an
// approximate adder's k-th add consumes its k-th draw, so changing the
// order or the number of adds an operation issues changes the results.
type Arith struct {
	exact bool
	adder core.HardwareAdder
}

// NewArith wraps an adder; it must be Word bits wide.
func NewArith(a core.HardwareAdder) (*Arith, error) {
	if a.Width() != Word {
		return nil, fmt.Errorf("apps: adder width %d, need %d", a.Width(), Word)
	}
	_, exact := a.(core.ExactAdder)
	return &Arith{exact: exact, adder: a}, nil
}

// Add returns (a + b) masked to the word width.
func (ar *Arith) Add(a, b uint64) uint64 {
	if ar.exact {
		return (a + b) & wordMask
	}
	return ar.adder.Add(a&wordMask, b&wordMask) & wordMask
}

// Sub returns (a − b) in two's complement via the adder: a + ~b + 1.
func (ar *Arith) Sub(a, b uint64) uint64 {
	return ar.Add(ar.Add(a, ^b&wordMask), 1)
}

// MulPow2 returns v·2^k (an exact shift: wiring, not logic).
func (ar *Arith) MulPow2(v uint64, k int) uint64 {
	return v << uint(k) & wordMask
}

// MulSmall multiplies by a small non-negative constant using
// shift-and-add through the approximate adder: the shifted terms of c's
// set bits, from the lowest, each added to the running sum.
func (ar *Arith) MulSmall(v uint64, c int) uint64 {
	if c < 0 {
		panic(fmt.Sprintf("apps: MulSmall by negative constant %d", c))
	}
	if ar.exact {
		return v * uint64(c) & wordMask
	}
	u := uint64(c)
	if u == 0 {
		return 0
	}
	acc := ar.MulPow2(v, bits.TrailingZeros64(u))
	for u &= u - 1; u != 0; u &= u - 1 {
		acc = ar.Add(acc, ar.MulPow2(v, bits.TrailingZeros64(u)))
	}
	return acc
}

// SumTree adds the values in a balanced tree (the natural hardware
// reduction shape), level by level, left to right. A single value is
// returned as given. The kernels' short operand lists reduce in a stack
// buffer; vals is never modified.
func (ar *Arith) SumTree(vals []uint64) uint64 {
	switch {
	case len(vals) == 0:
		return 0
	case len(vals) == 1:
		return vals[0]
	case ar.exact:
		var sum uint64
		for _, v := range vals {
			sum += v
		}
		return sum & wordMask
	}
	var buf [16]uint64
	work := append(buf[:0], vals...)
	for len(work) > 1 {
		next := work[:0]
		for i := 0; i+1 < len(work); i += 2 {
			next = append(next, ar.Add(work[i], work[i+1]))
		}
		if len(work)%2 == 1 {
			next = append(next, work[len(work)-1])
		}
		work = next
	}
	return work[0]
}

// Neg reports whether v is negative in Word-bit two's complement, and Abs
// returns |v| via the adder when needed.
func (ar *Arith) Abs(v uint64) uint64 {
	if v&(1<<(Word-1)) == 0 {
		return v
	}
	return ar.Add(^v&wordMask, 1)
}

// Image is a grayscale 8-bit image.
type Image struct {
	W, H int
	Pix  []uint8
}

// NewImage allocates a zero image.
func NewImage(w, h int) *Image {
	return &Image{W: w, H: h, Pix: make([]uint8, w*h)}
}

// At returns the pixel with border clamping.
func (im *Image) At(x, y int) uint8 {
	if x < 0 {
		x = 0
	}
	if y < 0 {
		y = 0
	}
	if x >= im.W {
		x = im.W - 1
	}
	if y >= im.H {
		y = im.H - 1
	}
	return im.Pix[y*im.W+x]
}

// Set writes a pixel (no bounds check; callers iterate in range).
func (im *Image) Set(x, y int, v uint8) { im.Pix[y*im.W+x] = v }

// Synthetic renders a deterministic test scene: gradient background,
// bright disc, dark rectangle, mild noise — enough structure for PSNR and
// edge detection to be meaningful.
func Synthetic(w, h int, seed uint64) *Image {
	img := NewImage(w, h)
	rng := rand.New(rand.NewPCG(seed, 0x1ca7e))
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			v := 40 + 150*x/w
			dx, dy := x-w/3, y-h/3
			if dx*dx+dy*dy < (w/5)*(w/5) {
				v = 230
			}
			if x > 2*w/3 && x < 5*w/6 && y > h/2 && y < 5*h/6 {
				v = 25
			}
			v += int(rng.Uint64()%7) - 3
			if v < 0 {
				v = 0
			}
			if v > 255 {
				v = 255
			}
			img.Set(x, y, uint8(v))
		}
	}
	return img
}

// GaussianBlur3 applies the [1 2 1; 2 4 2; 1 2 1]/16 kernel using only the
// approximate adder (weights are shift-and-add, division is a shift).
func GaussianBlur3(img *Image, ar *Arith) *Image {
	out := NewImage(img.W, img.H)
	terms := make([]uint64, 0, 9)
	for y := 0; y < img.H; y++ {
		for x := 0; x < img.W; x++ {
			terms = terms[:0]
			for dy := -1; dy <= 1; dy++ {
				for dx := -1; dx <= 1; dx++ {
					w := 1 << (2 - abs(dx) - abs(dy)) // 4, 2, or 1
					p := uint64(img.At(x+dx, y+dy))
					terms = append(terms, ar.MulSmall(p, w))
				}
			}
			sum := ar.SumTree(terms)
			v := sum >> 4
			if v > 255 {
				v = 255
			}
			out.Set(x, y, uint8(v))
		}
	}
	return out
}

// Sobel computes the gradient magnitude |gx| + |gy| with adder-based
// subtraction and absolute value; output saturates at 255.
func Sobel(img *Image, ar *Arith) *Image {
	out := NewImage(img.W, img.H)
	for y := 0; y < img.H; y++ {
		for x := 0; x < img.W; x++ {
			p := func(dx, dy int) uint64 { return uint64(img.At(x+dx, y+dy)) }
			gxPos := ar.SumTree([]uint64{p(1, -1), ar.MulPow2(p(1, 0), 1), p(1, 1)})
			gxNeg := ar.SumTree([]uint64{p(-1, -1), ar.MulPow2(p(-1, 0), 1), p(-1, 1)})
			gyPos := ar.SumTree([]uint64{p(-1, 1), ar.MulPow2(p(0, 1), 1), p(1, 1)})
			gyNeg := ar.SumTree([]uint64{p(-1, -1), ar.MulPow2(p(0, -1), 1), p(1, -1)})
			gx := ar.Abs(ar.Sub(gxPos, gxNeg))
			gy := ar.Abs(ar.Sub(gyPos, gyNeg))
			m := ar.Add(gx, gy)
			if m > 255 {
				m = 255
			}
			out.Set(x, y, uint8(m))
		}
	}
	return out
}

// PSNR returns the peak signal-to-noise ratio (dB) of img versus the
// reference; +Inf for identical images.
func PSNR(ref, img *Image) float64 {
	if ref.W != img.W || ref.H != img.H {
		return math.NaN()
	}
	var sse float64
	for i := range ref.Pix {
		d := float64(ref.Pix[i]) - float64(img.Pix[i])
		sse += d * d
	}
	if sse == 0 {
		return math.Inf(1)
	}
	mse := sse / float64(len(ref.Pix))
	return 10 * math.Log10(255*255/mse)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
