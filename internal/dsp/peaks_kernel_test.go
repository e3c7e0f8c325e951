package dsp

import (
	"math"
	"math/rand"
	"testing"
)

// refinePeakSincTrig is the reference sinc peak refinement: it evaluates
// the windowed-sinc kernel with math.Sin/math.Cos at every grid point and
// tap. refinePeakSinc reads the same factors from precomputed tables and
// must return the identical float64 for every input.
func refinePeakSincTrig(x []float64, i0 int) float64 {
	const half = 12
	const steps = 128 // over the ±1 sample span
	best, bestT := math.Abs(x[i0]), float64(i0)
	for s := -steps / 2; s <= steps/2; s++ {
		t := float64(i0) + 2*float64(s)/steps
		v := 0.0
		for j := i0 - half; j <= i0+half; j++ {
			if j < 0 || j >= len(x) {
				continue
			}
			d := t - float64(j)
			var k float64
			if d == 0 {
				k = 1
			} else {
				k = math.Sin(math.Pi*d) / (math.Pi * d)
			}
			w := 0.5 * (1 + math.Cos(math.Pi*d/float64(half+1)))
			v += x[j] * k * w
		}
		if a := math.Abs(v); a > best {
			best, bestT = a, t
		}
	}
	return bestT
}

// peakKernelInput draws one test signal of length n: white noise, a
// band-limited impulse at a random fractional position over a noise floor,
// or a sparse train of taps spanning several decades of amplitude.
func peakKernelInput(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	switch rng.Intn(3) {
	case 0:
		for i := range x {
			x[i] = rng.NormFloat64()
		}
	case 1:
		AddDelayedImpulse(x, rng.Float64()*float64(n-1), 1)
		for i := range x {
			x[i] += 1e-3 * rng.NormFloat64()
		}
	default:
		for k := 0; k < 1+n/8; k++ {
			x[rng.Intn(n)] = (rng.Float64() - 0.5) * math.Pow(10, 3*rng.Float64())
		}
	}
	return x
}

func checkRefinePeak(t *testing.T, x []float64, i0 int) {
	t.Helper()
	got, want := refinePeakSinc(x, i0), refinePeakSincTrig(x, i0)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("len %d i0 %d: tabulated kernel %v (%#x), trig oracle %v (%#x)",
			len(x), i0, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// TestRefinePeakSincMatchesTrig asserts the tabulated kernel is
// bit-identical to the trig oracle over random inputs, at peaks near both
// edges (where taps fall outside x and are skipped) and on inputs shorter
// than the 25-tap kernel.
func TestRefinePeakSincMatchesTrig(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 60; trial++ {
		n := 26 + rng.Intn(400)
		x := peakKernelInput(rng, n)
		for _, i0 := range []int{1, 2, 11, 12, n - 13, n - 2, 1 + rng.Intn(n-2)} {
			checkRefinePeak(t, x, i0)
		}
	}
	// Every position of every length up to and just past the kernel span,
	// so each combination of skipped taps on either side is exercised.
	for n := 1; n <= 27; n++ {
		for trial := 0; trial < 3; trial++ {
			x := peakKernelInput(rng, n)
			for i0 := 0; i0 < n; i0++ {
				checkRefinePeak(t, x, i0)
			}
		}
	}
	// Inputs mirror-symmetric about i0 with a dip at i0: the interpolant's
	// maximum is a mathematically exact tie between grid points i0±δ, so
	// which one wins rides on the last bit of each sum. This catches any
	// change in rounding (e.g. reordering the x*k*w operands), which
	// random inputs, whose maxima are well separated, would not.
	for trial := 0; trial < 200; trial++ {
		n := 25 + rng.Intn(40)
		i0 := peakHalf + rng.Intn(n-2*peakHalf)
		x := make([]float64, n)
		for k := 1; k <= peakHalf; k++ {
			v := 0.3 * rng.NormFloat64()
			if k == 1 {
				v = 1 + rng.Float64()
			}
			x[i0-k] = v
			if i0+k < n {
				x[i0+k] = v
			}
		}
		x[i0] = 0.5 * rng.Float64()
		checkRefinePeak(t, x, i0)
	}
	// FirstPeak end to end on band-limited impulses, the alignment input.
	for trial := 0; trial < 40; trial++ {
		n := 64 + rng.Intn(256)
		x := DelayedImpulse(n, 2+rng.Float64()*float64(n-4), 1)
		p := FindPeaks(x, 0.3, 1)[0]
		if p.Index > 0 && p.Index < n-1 {
			checkRefinePeak(t, x, p.Index)
		}
	}
}

// BenchmarkRefinePeak times one sub-sample refinement of a band-limited
// HRIR-like first tap, tabulated against the trig oracle.
func BenchmarkRefinePeak(b *testing.B) {
	x := DelayedImpulse(512, 96.3, 1)
	rng := rand.New(rand.NewSource(3))
	for i := range x {
		x[i] += 1e-3 * rng.NormFloat64()
	}
	i0 := FindPeaks(x, 0.3, 1)[0].Index
	for _, bc := range []struct {
		name string
		fn   func([]float64, int) float64
	}{{"table", refinePeakSinc}, {"trig", refinePeakSincTrig}} {
		b.Run(bc.name, func(b *testing.B) {
			for b.Loop() {
				bc.fn(x, i0)
			}
		})
	}
}
