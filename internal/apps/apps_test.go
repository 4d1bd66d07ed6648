package apps

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/carry"
	"repro/internal/core"
)

func exactArith(t *testing.T) *Arith {
	t.Helper()
	ar, err := NewArith(core.ExactAdder{W: Word})
	if err != nil {
		t.Fatal(err)
	}
	return ar
}

// lossyAdder truncates carry chains at a fixed limit — a deterministic
// stand-in for a VOS adder.
type lossyAdder struct{ limit int }

func (l lossyAdder) Width() int { return Word }
func (l lossyAdder) Add(a, b uint64) uint64 {
	return carry.LimitedAdd(a, b, Word, l.limit) & wordMask
}

func TestNewArithRejectsWrongWidth(t *testing.T) {
	if _, err := NewArith(core.ExactAdder{W: 8}); err == nil {
		t.Fatal("8-bit adder accepted")
	}
}

func TestArithExactOps(t *testing.T) {
	ar := exactArith(t)
	rng := rand.New(rand.NewPCG(1, 1))
	for i := 0; i < 2000; i++ {
		a := rng.Uint64() & 0x3fff
		b := rng.Uint64() & 0x3fff
		if got := ar.Add(a, b); got != (a+b)&wordMask {
			t.Fatalf("Add(%d,%d) = %d", a, b, got)
		}
		if got := ar.Sub(a, b); got != (a-b)&wordMask {
			t.Fatalf("Sub(%d,%d) = %d", a, b, got)
		}
		for k := 0; k < 4; k++ {
			if got := ar.MulPow2(a, k); got != a<<uint(k)&wordMask {
				t.Fatalf("MulPow2(%d,%d) = %d", a, k, got)
			}
		}
		for _, c := range []int{1, 2, 3, 5, 6, 15, 20} {
			small := a & 0x3ff
			if got := ar.MulSmall(small, c); got != small*uint64(c)&wordMask {
				t.Fatalf("MulSmall(%d,%d) = %d", small, c, got)
			}
		}
	}
}

func TestArithAbs(t *testing.T) {
	ar := exactArith(t)
	if got := ar.Abs(5); got != 5 {
		t.Fatalf("Abs(5) = %d", got)
	}
	neg3 := (^uint64(3) + 1) & wordMask
	if got := ar.Abs(neg3); got != 3 {
		t.Fatalf("Abs(-3) = %d", got)
	}
}

func TestSumTree(t *testing.T) {
	ar := exactArith(t)
	if got := ar.SumTree(nil); got != 0 {
		t.Fatalf("empty SumTree = %d", got)
	}
	if got := ar.SumTree([]uint64{7}); got != 7 {
		t.Fatalf("single SumTree = %d", got)
	}
	vals := []uint64{1, 2, 3, 4, 5, 6, 7}
	if got := ar.SumTree(vals); got != 28 {
		t.Fatalf("SumTree = %d", got)
	}
	long := make([]uint64, 40)
	for i := range long {
		long[i] = uint64(i)
	}
	if got := ar.SumTree(long); got != 780 {
		t.Fatalf("SumTree of 40 values = %d", got)
	}
	if vals[6] != 7 || long[39] != 39 {
		t.Fatal("SumTree modified its input")
	}
	// The kernels' short operand lists reduce without allocating: the
	// Monte Carlo replay calls SumTree once per output sample.
	if allocs := testing.AllocsPerRun(100, func() { ar.SumTree(vals) }); allocs != 0 {
		t.Fatalf("SumTree of %d values: %v allocs, want 0", len(vals), allocs)
	}
}

func TestSyntheticDeterministic(t *testing.T) {
	a := Synthetic(64, 48, 9)
	b := Synthetic(64, 48, 9)
	for i := range a.Pix {
		if a.Pix[i] != b.Pix[i] {
			t.Fatal("synthetic image not deterministic")
		}
	}
	c := Synthetic(64, 48, 10)
	same := true
	for i := range a.Pix {
		if a.Pix[i] != c.Pix[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds gave identical images")
	}
}

func TestImageClamping(t *testing.T) {
	img := Synthetic(8, 8, 1)
	if img.At(-5, -5) != img.At(0, 0) {
		t.Fatal("negative clamp broken")
	}
	if img.At(100, 100) != img.At(7, 7) {
		t.Fatal("positive clamp broken")
	}
}

func TestBlurExactIsHighQuality(t *testing.T) {
	img := Synthetic(48, 48, 2)
	ar := exactArith(t)
	out := GaussianBlur3(img, ar)
	// Blur must smooth but not destroy: PSNR vs original moderate, and
	// output identical when repeated (deterministic).
	p := PSNR(img, out)
	if p < 15 || p > 45 {
		t.Fatalf("blur PSNR vs original = %v, outside sanity band", p)
	}
	out2 := GaussianBlur3(img, ar)
	if PSNR(out, out2) != math.Inf(1) {
		t.Fatal("blur not deterministic")
	}
}

func TestApproxBlurDegradesGracefully(t *testing.T) {
	img := Synthetic(48, 48, 3)
	exact := GaussianBlur3(img, exactArith(t))
	// Mildly lossy adder: quality must drop but stay recognizable.
	arMild, _ := NewArith(lossyAdder{limit: 12})
	mild := GaussianBlur3(img, arMild)
	pMild := PSNR(exact, mild)
	// Severely lossy adder: much worse.
	arBad, _ := NewArith(lossyAdder{limit: 2})
	bad := GaussianBlur3(img, arBad)
	pBad := PSNR(exact, bad)
	if !(pMild > pBad) {
		t.Fatalf("quality ordering violated: mild %v, bad %v", pMild, pBad)
	}
	if pMild < 25 {
		t.Fatalf("mild approximation too destructive: %v dB", pMild)
	}
	if math.IsInf(pBad, 1) {
		t.Fatal("severe approximation had no effect")
	}
}

func TestSobelFindsEdges(t *testing.T) {
	img := Synthetic(48, 48, 4)
	edges := Sobel(img, exactArith(t))
	var mean float64
	nonZero := 0
	for _, p := range edges.Pix {
		mean += float64(p)
		if p > 128 {
			nonZero++
		}
	}
	mean /= float64(len(edges.Pix))
	if nonZero == 0 {
		t.Fatal("no strong edges found in structured image")
	}
	if mean > 128 {
		t.Fatalf("edge map suspiciously bright: mean %v", mean)
	}
}

func TestPSNRBasics(t *testing.T) {
	a := Synthetic(16, 16, 5)
	if p := PSNR(a, a); !math.IsInf(p, 1) {
		t.Fatalf("identical images PSNR = %v", p)
	}
	b := NewImage(16, 16)
	copy(b.Pix, a.Pix)
	b.Pix[0] ^= 0xff
	if p := PSNR(a, b); p < 20 || p > 60 {
		t.Fatalf("single-pixel PSNR = %v", p)
	}
	c := NewImage(8, 8)
	if !math.IsNaN(PSNR(a, c)) {
		t.Fatal("size mismatch must yield NaN")
	}
}

func TestFIRRejectsFastTone(t *testing.T) {
	x := TwoTone(512, 6)
	ar := exactArith(t)
	y := BinomialFIR().Apply(x, ar)
	// The filtered signal must be smoother than the input: total
	// variation strictly lower.
	tv := func(s []uint64) float64 {
		var v float64
		for i := 1; i < len(s); i++ {
			v += math.Abs(float64(s[i]) - float64(s[i-1]))
		}
		return v
	}
	if tv(y) >= tv(x)*0.7 {
		t.Fatalf("filter did not smooth: tv in %v out %v", tv(x), tv(y))
	}
}

func TestFIRApproxOrdering(t *testing.T) {
	x := TwoTone(512, 7)
	exact := BinomialFIR().Apply(x, exactArith(t))
	arMild, _ := NewArith(lossyAdder{limit: 12})
	arBad, _ := NewArith(lossyAdder{limit: 3})
	mild := BinomialFIR().Apply(x, arMild)
	bad := BinomialFIR().Apply(x, arBad)
	sMild, sBad := SignalSNR(exact, mild), SignalSNR(exact, bad)
	if !(sMild > sBad) {
		t.Fatalf("SNR ordering violated: mild %v, bad %v", sMild, sBad)
	}
}

func TestSignalSNR(t *testing.T) {
	a := []uint64{100, 100, 100}
	if s := SignalSNR(a, a); !math.IsInf(s, 1) {
		t.Fatalf("identical signals SNR = %v", s)
	}
	b := []uint64{101, 100, 100}
	s := SignalSNR(a, b)
	want := 10 * math.Log10(30000.0/1.0)
	if math.Abs(s-want) > 1e-9 {
		t.Fatalf("SNR = %v, want %v", s, want)
	}
	if !math.IsNaN(SignalSNR(a, a[:2])) {
		t.Fatal("length mismatch must yield NaN")
	}
}

func TestDotProduct(t *testing.T) {
	ar := exactArith(t)
	a := []uint64{1, 2, 3, 4}
	b := []uint64{5, 6, 7, 8}
	if got := DotProduct(a, b, ar); got != 70 {
		t.Fatalf("DotProduct = %d", got)
	}
	// Unequal lengths truncate.
	if got := DotProduct(a, b[:2], ar); got != 17 {
		t.Fatalf("truncated DotProduct = %d", got)
	}
}

func TestKMeansExactRecoversBlobs(t *testing.T) {
	points, truth := ThreeBlobs(300, 9)
	km := KMeans{K: 3, Iters: 12}
	cents, assign := km.Clusters(points, exactArith(t), 4)
	if len(cents) != 3 || len(assign) != len(points) {
		t.Fatalf("shape: %d cents, %d assigns", len(cents), len(assign))
	}
	if rmse := CentroidRMSE(cents, truth); rmse > 8 {
		t.Fatalf("exact k-means RMSE = %v", rmse)
	}
}

func TestKMeansApproxDegradesGracefully(t *testing.T) {
	points, truth := ThreeBlobs(300, 10)
	km := KMeans{K: 3, Iters: 12}
	arMild, _ := NewArith(lossyAdder{limit: 12})
	arBad, _ := NewArith(lossyAdder{limit: 2})
	cMild, _ := km.Clusters(points, arMild, 4)
	cBad, _ := km.Clusters(points, arBad, 4)
	mild, bad := CentroidRMSE(cMild, truth), CentroidRMSE(cBad, truth)
	if mild > 15 {
		t.Fatalf("mild approximation broke clustering: RMSE %v", mild)
	}
	if bad < mild {
		t.Fatalf("severe approximation unexpectedly better: %v < %v", bad, mild)
	}
}

func TestKMeansDegenerate(t *testing.T) {
	ar := exactArith(t)
	if c, a := (KMeans{K: 0, Iters: 1}).Clusters([]uint64{1}, ar, 1); c != nil || a != nil {
		t.Fatal("K=0 should return nil")
	}
	if c, a := (KMeans{K: 2, Iters: 1}).Clusters(nil, ar, 1); c != nil || a != nil {
		t.Fatal("no points should return nil")
	}
}

func TestCentroidRMSE(t *testing.T) {
	if got := CentroidRMSE([]uint64{10, 20}, []uint64{20, 10}); got != 0 {
		t.Fatalf("order-insensitive RMSE = %v", got)
	}
	if got := CentroidRMSE([]uint64{10}, []uint64{13}); got != 3 {
		t.Fatalf("RMSE = %v", got)
	}
	if !math.IsNaN(CentroidRMSE([]uint64{1}, []uint64{1, 2})) {
		t.Fatal("length mismatch must NaN")
	}
}
