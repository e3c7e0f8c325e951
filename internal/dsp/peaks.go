package dsp

import "math"

// Peak describes a local maximum of |x|.
type Peak struct {
	// Index is the sample index of the peak.
	Index int
	// Value is the signed sample value at the peak.
	Value float64
}

// FindPeaks returns all local maxima of |x| whose magnitude is at least
// minRel times the global maximum magnitude, separated by at least minDist
// samples (greedy, strongest first). Results are sorted by index.
func FindPeaks(x []float64, minRel float64, minDist int) []Peak {
	if len(x) == 0 {
		return nil
	}
	if minDist < 1 {
		minDist = 1
	}
	maxMag := MaxAbs(x)
	if maxMag == 0 {
		return nil
	}
	thresh := minRel * maxMag
	var cand []Peak
	for i := range x {
		m := math.Abs(x[i])
		if m < thresh {
			continue
		}
		prev := 0.0
		if i > 0 {
			prev = math.Abs(x[i-1])
		}
		next := 0.0
		if i < len(x)-1 {
			next = math.Abs(x[i+1])
		}
		if m >= prev && m > next {
			cand = append(cand, Peak{Index: i, Value: x[i]})
		}
	}
	// Greedy non-max suppression by magnitude.
	order := make([]int, len(cand))
	for i := range order {
		order[i] = i
	}
	for i := 0; i < len(order); i++ {
		for j := i + 1; j < len(order); j++ {
			if math.Abs(cand[order[j]].Value) > math.Abs(cand[order[i]].Value) {
				order[i], order[j] = order[j], order[i]
			}
		}
	}
	taken := make([]bool, len(cand))
	kept := make([]bool, len(cand))
	for _, oi := range order {
		if taken[oi] {
			continue
		}
		kept[oi] = true
		for j := range cand {
			if j != oi && absInt(cand[j].Index-cand[oi].Index) < minDist {
				taken[j] = true
			}
		}
	}
	var out []Peak
	for i := range cand {
		if kept[i] {
			out = append(out, cand[i])
		}
	}
	// Sort by index (insertion, counts are small).
	for i := 1; i < len(out); i++ {
		v := out[i]
		j := i - 1
		for j >= 0 && out[j].Index > v.Index {
			out[j+1] = out[j]
			j--
		}
		out[j+1] = v
	}
	return out
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// FirstPeak returns the earliest local maximum of |x| with magnitude at
// least minRel times the global maximum, refined to 1/64-sample precision
// by maximizing the windowed-sinc (band-limited) interpolant of x around
// it (see refinePeakSinc); a peak on the first or last sample is not
// refined. It returns the (possibly fractional) index and the peak's
// signed value, or (-1, 0) if no peak qualifies. UNIQ uses the first
// channel tap to measure the diffraction path (§4.1).
func FirstPeak(x []float64, minRel float64) (index float64, value float64) {
	peaks := FindPeaks(x, minRel, 1)
	if len(peaks) == 0 {
		return -1, 0
	}
	p := peaks[0]
	idx := float64(p.Index)
	if p.Index > 0 && p.Index < len(x)-1 {
		// Refine by band-limited (windowed-sinc) interpolation on a fine
		// grid around the integer peak: for band-limited channels this is
		// far more accurate than parabolic fitting on |x|.
		idx = refinePeakSinc(x, p.Index)
	}
	return idx, p.Value
}

// Sinc-refinement geometry: the interpolant is evaluated on a grid of
// peakSteps+1 points spanning ±1 sample around the integer peak, summing
// the 2*peakHalf+1 nearest samples under a Hann-tapered sinc kernel.
const (
	peakHalf  = 12
	peakSteps = 128
)

// peakSinc and peakHann tabulate the two kernel factors of refinePeakSinc,
// indexed [s+peakSteps/2][j-i0+peakHalf] for grid step s and tap j around
// the integer peak i0. The offset between grid point and tap is
// d = (i0 + 2s/peakSteps) - j = (i0-j) + s/64: a small integer plus a
// multiple of 1/64, so it is computed exactly for every i0 and both
// factors depend only on (i0-j, s). The tables therefore hold exactly the
// float64 values the per-call sin/cos evaluation would produce, and
// refinePeakSinc keeps the two factors as separate operands of
// x[j]*k*w, so its result is bit-identical to evaluating them inline.
var peakSinc, peakHann = peakKernel()

func peakKernel() (sinc, hann [peakSteps + 1][2*peakHalf + 1]float64) {
	for si := range sinc {
		s := si - peakSteps/2
		for ji := range sinc[si] {
			d := float64(peakHalf-ji) + 2*float64(s)/peakSteps
			if d == 0 {
				sinc[si][ji] = 1
			} else {
				sinc[si][ji] = math.Sin(math.Pi*d) / (math.Pi * d)
			}
			hann[si][ji] = 0.5 * (1 + math.Cos(math.Pi*d/float64(peakHalf+1)))
		}
	}
	return sinc, hann
}

// refinePeakSinc locates the magnitude maximum of the band-limited
// interpolant of x within ±1 sample of the integer peak at i0, to 1/64
// sample resolution. Taps outside x are skipped.
func refinePeakSinc(x []float64, i0 int) float64 {
	lo, hi := max(i0-peakHalf, 0), min(i0+peakHalf, len(x)-1)
	xs := x[lo : hi+1]
	off := lo - i0 + peakHalf // kernel column of xs[0]
	best, bestT := math.Abs(x[i0]), float64(i0)
	for si := range peakSinc {
		ks := peakSinc[si][off : off+len(xs)]
		ws := peakHann[si][off : off+len(xs)]
		v := 0.0
		for j, xj := range xs {
			v += xj * ks[j] * ws[j]
		}
		if a := math.Abs(v); a > best {
			best, bestT = a, float64(i0)+2*float64(si-peakSteps/2)/peakSteps
		}
	}
	return bestT
}

// TruncateAfter zeroes every sample of x at or beyond index n and returns a
// copy. UNIQ uses this to strip room reflections, which arrive later than
// head diffraction and pinna multipath (§4.6).
func TruncateAfter(x []float64, n int) []float64 {
	out := make([]float64, len(x))
	if n > 0 {
		copy(out, x[:min(n, len(x))])
	}
	return out
}
