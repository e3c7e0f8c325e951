package render

import (
	"math"
	"testing"

	"repro/internal/dsp"
	"repro/internal/geom"
	"repro/internal/hrtf"
	"repro/internal/room"
	"repro/internal/sim"
)

// testTable builds a ground-truth far-field table for rendering tests.
func testTable(t *testing.T) *hrtf.Table {
	t.Helper()
	tab, err := sim.MeasureGroundTruthFar(sim.NewVolunteer(1, 3), 48000, 2)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestRenderMovingStaticEqualsConvolution(t *testing.T) {
	// With a constant angle, block rendering must equal a single
	// convolution (the Bartlett windows sum to one).
	tab := testTable(t)
	r := &Renderer{Table: tab}
	mono := dsp.Tone(500, 0.1, tab.SampleRate)
	l1, r1, err := r.RenderMoving(mono, func(float64) float64 { return 70 })
	if err != nil {
		t.Fatal(err)
	}
	h, err := tab.FarAt(70)
	if err != nil {
		t.Fatal(err)
	}
	l2, r2 := h.Render(mono)
	// Compare on the overlapping span.
	for i := 100; i < len(l2)-100 && i < len(l1); i++ {
		if math.Abs(l1[i]-l2[i]) > 1e-6 {
			t.Fatalf("left mismatch at %d: %g vs %g", i, l1[i], l2[i])
		}
		if math.Abs(r1[i]-r2[i]) > 1e-6 {
			t.Fatalf("right mismatch at %d: %g vs %g", i, r1[i], r2[i])
		}
	}
}

func TestRenderMovingNoClicks(t *testing.T) {
	// A source sweeping 0..180 degrees should produce no discontinuities
	// larger than the signal's own slew.
	tab := testTable(t)
	r := &Renderer{Table: tab}
	mono := dsp.Tone(400, 0.5, tab.SampleRate)
	sweep := func(t float64) float64 { return 360 * t } // fast sweep
	l, _, err := r.RenderMoving(mono, sweep)
	if err != nil {
		t.Fatal(err)
	}
	maxJump := 0.0
	for i := 1; i < len(l); i++ {
		if d := math.Abs(l[i] - l[i-1]); d > maxJump {
			maxJump = d
		}
	}
	// A 400 Hz unit tone slews at most 2*pi*400/48000 ~ 0.052 per
	// sample; allow the HRIR gain and a 3x margin.
	if maxJump > 0.3 {
		t.Errorf("click detected: max inter-sample jump %g", maxJump)
	}
}

func TestRenderMovingITDFollowsAngle(t *testing.T) {
	tab := testTable(t)
	r := &Renderer{Table: tab}
	click := dsp.DelayedImpulse(2048, 1024, 1)
	for _, deg := range []float64{30, 90, 150} {
		l, rr, err := r.RenderMoving(click, func(float64) float64 { return deg })
		if err != nil {
			t.Fatal(err)
		}
		li, _ := dsp.FirstPeak(l, 0.3)
		ri, _ := dsp.FirstPeak(rr, 0.3)
		gotITD := (li - ri) / tab.SampleRate
		h, _ := tab.FarAt(deg)
		wantITD := h.ITD()
		if math.Abs(gotITD-wantITD) > 4e-5 {
			t.Errorf("%g deg: rendered ITD %g, want %g", deg, gotITD, wantITD)
		}
	}
}

func TestRenderMovingErrors(t *testing.T) {
	r := &Renderer{}
	if _, _, err := r.RenderMoving([]float64{1}, func(float64) float64 { return 0 }); err != ErrNoTable {
		t.Errorf("want ErrNoTable, got %v", err)
	}
	tab := testTable(t)
	r = &Renderer{Table: tab}
	l, rr, err := r.RenderMoving(nil, func(float64) float64 { return 0 })
	if err != nil || l != nil || rr != nil {
		t.Error("empty input should render to nothing")
	}
}

// TestMirrorIntoSpan pins the fold rule as the renderer applies it: a
// static source at any angle renders exactly as its folded in-span angle,
// with the ears swapped when the fold crossed hemispheres, and angles past
// a narrower table's span clamp to its edges.
func TestMirrorIntoSpan(t *testing.T) {
	tab := testTable(t)
	// A narrow table spanning [20, 60], filled from the full table.
	narrow := hrtf.NewTable(tab.SampleRate, 20, 10, 5)
	for i := range narrow.Far {
		h, err := tab.FarAt(narrow.Angle(i))
		if err != nil {
			t.Fatal(err)
		}
		narrow.Near[i], narrow.Far[i] = h.Clone(), h.Clone()
	}
	cases := []struct {
		table    *hrtf.Table
		in, want float64
		swap     bool
	}{
		// Interior and mirrored angles.
		{tab, 10, 10, false}, {tab, 190, 170, true}, {tab, 350, 10, true},
		{tab, -30, 30, true}, {tab, 370, 10, false},
		// Span edges, exactly: 0 and 180 render as themselves, as do
		// their full-turn aliases.
		{tab, 0, 0, false}, {tab, 180, 180, false}, {tab, 360, 0, false},
		{tab, -360, 0, false}, {tab, 540, 180, false}, {tab, -180, 180, false},
		// Just past an edge: mirrors back inside, never out of span.
		{tab, 180.5, 179.5, true}, {tab, -0.5, 0.5, true}, {tab, 359.5, 0.5, true},
		// Angles outside a narrower table's span clamp to its edges.
		{narrow, 5, 20, false}, {narrow, 20, 20, false}, {narrow, 60, 60, false},
		{narrow, 170, 60, false}, {narrow, 355, 20, true},
	}
	click := make([]float64, 2000)
	click[0], click[960] = 1, 0.5
	for _, tc := range cases {
		r := &Renderer{Table: tc.table}
		gotL, gotR, err := r.RenderMoving(click, func(float64) float64 { return tc.in })
		if err != nil {
			t.Fatal(err)
		}
		wantL, wantR, err := r.RenderMoving(click, func(float64) float64 { return tc.want })
		if err != nil {
			t.Fatal(err)
		}
		if tc.swap {
			wantL, wantR = wantR, wantL
		}
		if len(gotL) != len(wantL) || len(gotR) != len(wantR) {
			t.Fatalf("render(%g): length mismatch", tc.in)
		}
		for i := range gotL {
			if math.Abs(gotL[i]-wantL[i]) > 1e-12 || math.Abs(gotR[i]-wantR[i]) > 1e-12 {
				t.Errorf("render(%g) over [%g, %g] differs at sample %d from render(%g) with swap=%v",
					tc.in, tc.table.MinAngle, tc.table.MaxAngle(), i, tc.want, tc.swap)
				break
			}
		}
	}
}

func TestHeadTrackerSwapsHemispheres(t *testing.T) {
	tab := testTable(t)
	ht := &HeadTracker{
		Renderer:  Renderer{Table: tab},
		SourceDeg: 60,
		// Head turns past the source: relative angle goes 60 -> -60
		// (i.e. source crosses to the right hemisphere).
		YawAt: func(t float64) float64 { return 240 * t },
	}
	click := make([]float64, 48000/2)
	for i := 0; i < len(click); i += 4800 {
		click[i] = 1
	}
	l, r, err := ht.Render(click)
	if err != nil {
		t.Fatal(err)
	}
	if len(l) == 0 || len(r) == 0 {
		t.Fatal("empty tracked render")
	}
	// Early clicks (source on the left): left ear louder. Late clicks
	// (source crossed right): right ear louder.
	early := int(0.1 * 48000)
	late := len(l) - int(0.1*48000)
	if dsp.Energy(l[:early]) <= dsp.Energy(r[:early]) {
		t.Error("early segment should favour the left ear")
	}
	if dsp.Energy(r[late:]) <= dsp.Energy(l[late:]) {
		t.Error("late segment should favour the right ear")
	}
}

// TestHeadTrackerCrossingNoClicks bounds the inter-sample jump of a
// tracked tone whose source crosses hemispheres, through 0° and through
// 180°: the engine swaps ears per block under the Bartlett crossfade, so
// neither ear may click at the crossing.
func TestHeadTrackerCrossingNoClicks(t *testing.T) {
	tab := testTable(t)
	mono := dsp.Tone(400, 0.5, tab.SampleRate)
	for _, tc := range []struct{ source, yawRate float64 }{
		{60, 240},   // relative 60° → −60°
		{150, -120}, // relative 150° → 210°
	} {
		ht := &HeadTracker{
			Renderer:  Renderer{Table: tab},
			SourceDeg: tc.source,
			YawAt:     func(t float64) float64 { return tc.yawRate * t },
		}
		l, r, err := ht.Render(mono)
		if err != nil {
			t.Fatal(err)
		}
		for ear, x := range map[string][]float64{"left": l, "right": r} {
			maxJump := 0.0
			for i := 1; i < len(x); i++ {
				maxJump = math.Max(maxJump, math.Abs(x[i]-x[i-1]))
			}
			// Same bound as TestRenderMovingNoClicks.
			if maxJump > 0.3 {
				t.Errorf("source %g° yaw rate %g°/s: %s ear jumps %g", tc.source, tc.yawRate, ear, maxJump)
			}
		}
	}
}

func TestHeadTrackerNeedsYaw(t *testing.T) {
	ht := &HeadTracker{Renderer: Renderer{Table: testTable(t)}}
	if _, _, err := ht.Render([]float64{1}); err == nil {
		t.Error("missing yaw source should fail")
	}
}

func TestRoomRendererAddsReverb(t *testing.T) {
	tab := testTable(t)
	center := geom.Vec{X: 3, Y: 3}
	anech := &RoomRenderer{Table: tab, Room: room.Config{Width: 6, Depth: 6, Origin: center, Absorption: 0.99, MaxOrder: 0}}
	reverb := &RoomRenderer{Table: tab, Room: room.Config{Width: 6, Depth: 6, Origin: center, Absorption: 0.45, MaxOrder: 2}}
	click := dsp.DelayedImpulse(512, 256, 1)
	al, _, err := anech.Render(click, 45, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	rl, _, err := reverb.Render(click, 45, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rl) <= len(al) {
		t.Error("reverberant render should be longer (echo tail)")
	}
	if dsp.Energy(rl) <= dsp.Energy(al)*1.05 {
		t.Errorf("reverberant render should carry extra energy: %g vs %g",
			dsp.Energy(rl), dsp.Energy(al))
	}
}

func TestRoomRendererErrors(t *testing.T) {
	rr := &RoomRenderer{}
	if _, _, err := rr.Render([]float64{1}, 0, 1); err != ErrNoTable {
		t.Errorf("want ErrNoTable, got %v", err)
	}
	// A reverberant room whose origin lies outside the walls must be
	// rejected (the fixed room.Config.Validate reaches this path through
	// the scene engine).
	bad := &RoomRenderer{Table: testTable(t), Room: room.Config{
		Width: 4, Depth: 5, Origin: geom.Vec{X: -1, Y: 2}, Absorption: 0.5, MaxOrder: 2,
	}}
	if _, _, err := bad.Render([]float64{1}, 45, 1); err == nil {
		t.Error("out-of-room origin should fail the render")
	}
}

// TestRoomRendererDirectPathMirrorPair is the regression test for the
// direct-arrival hemisphere bug: the pre-fix code clamped a
// right-hemisphere direct angle into the table span (290° became 180°)
// while image arrivals folded to their mirror with the ears swapped. In
// free field, a source at 360-θ must now be exactly the θ render with
// the channels exchanged.
func TestRoomRendererDirectPathMirrorPair(t *testing.T) {
	tab := testTable(t)
	free := &RoomRenderer{Table: tab, Room: room.Config{
		Width: 6, Depth: 6, Origin: geom.Vec{X: 3, Y: 3}, Absorption: 0.5, MaxOrder: 0,
	}}
	click := dsp.DelayedImpulse(2048, 1024, 1)
	l1, r1, err := free.Render(click, 70, 2)
	if err != nil {
		t.Fatal(err)
	}
	l2, r2, err := free.Render(click, 290, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(l1) != len(l2) {
		t.Fatalf("mirror renders differ in length: %d vs %d", len(l1), len(l2))
	}
	for i := range l1 {
		if l1[i] != r2[i] || r1[i] != l2[i] {
			t.Fatalf("sample %d: 290° render is not the ear-swapped 70° render "+
				"((%g,%g) vs swapped (%g,%g))", i, l2[i], r2[i], r1[i], l1[i])
		}
	}
	// Sanity: the pair is nontrivial (the two ears actually differ).
	same := true
	for i := range l1 {
		if l1[i] != r1[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("70° render has identical ears; mirror test is vacuous")
	}

	// With a room symmetric about the listener's X axis the whole
	// reverberant render mirrors too (tolerance: the mirrored image
	// geometry is float-rounded, not bit-identical).
	rev := &RoomRenderer{Table: tab, Room: room.Config{
		Width: 6, Depth: 6, Origin: geom.Vec{X: 3, Y: 3}, Absorption: 0.45, MaxOrder: 2,
	}}
	l1, r1, err = rev.Render(click, 70, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	l2, r2, err = rev.Render(click, 290, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range l1 {
		if math.Abs(l1[i]-r2[i]) > 1e-9 || math.Abs(r1[i]-l2[i]) > 1e-9 {
			t.Fatalf("sample %d: symmetric-room mirror broke: (%g,%g) vs swapped (%g,%g)",
				i, l2[i], r2[i], r1[i], l1[i])
		}
	}
}

// TestRoomRendererMatchesDirectConvolutionReference pins the physics of
// the scene-engine room path against a literal direct-convolution
// image-source reference (the pre-refactor algorithm): per arrival,
// convolve with the nearest-angle HRIR, scale by wall absorption and
// spherical spreading, shift by the excess path delay, swap ears on
// right-hemisphere arrivals. Overlap-add and direct convolution agree to
// float rounding.
func TestRoomRendererMatchesDirectConvolutionReference(t *testing.T) {
	tab := testTable(t)
	cfg := room.Config{Width: 6, Depth: 6, Origin: geom.Vec{X: 2.2, Y: 3.4}, Absorption: 0.45, MaxOrder: 2}
	mono := dsp.Tone(500, 0.05, tab.SampleRate)
	const angle, dist = 45, 1.5
	sr := tab.SampleRate

	// Reference: direct time-domain convolution per arrival.
	src := geom.FromPolar(geom.Radians(angle), dist)
	directDist := src.Norm()
	type arrival struct {
		angle, gain, delay float64
		right              bool
	}
	arrivals := []arrival{{angle: angle, gain: 1}}
	for _, img := range cfg.Images(src) {
		d := img.Pos.Norm()
		ar := arrival{
			angle: geom.Degrees(img.Pos.PolarAngle()),
			gain:  img.Gain * directDist / d,
			delay: (d - directDist) / 343.0,
		}
		if ar.angle > 180 {
			ar.angle = 360 - ar.angle
			ar.right = true
		}
		arrivals = append(arrivals, ar)
	}
	var refL, refR []float64
	for _, ar := range arrivals {
		h, err := tab.FarAt(math.Min(math.Max(ar.angle, tab.MinAngle), tab.MaxAngle()))
		if err != nil || h.Empty() {
			continue
		}
		l, r := h.Render(mono)
		if ar.right {
			l, r = r, l
		}
		shift := int(ar.delay * sr)
		refL = growMix(refL, dsp.Scale(l, ar.gain), shift)
		refR = growMix(refR, dsp.Scale(r, ar.gain), shift)
	}

	rr := &RoomRenderer{Table: tab, Room: cfg}
	gotL, gotR, err := rr.Render(mono, angle, dist)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotL) < len(refL) {
		t.Fatalf("render %d samples shorter than reference %d", len(gotL), len(refL))
	}
	for i := range gotL {
		wantL, wantR := 0.0, 0.0
		if i < len(refL) {
			wantL, wantR = refL[i], refR[i]
		}
		if math.Abs(gotL[i]-wantL) > 1e-6 || math.Abs(gotR[i]-wantR) > 1e-6 {
			t.Fatalf("sample %d: engine (%g,%g), reference (%g,%g)",
				i, gotL[i], gotR[i], wantL, wantR)
		}
	}
}

// growMix adds src into dst at offset, growing dst as needed (the
// direct-convolution reference's overlap-add).
func growMix(dst, src []float64, offset int) []float64 {
	if need := offset + len(src); need > len(dst) {
		dst = append(dst, make([]float64, need-len(dst))...)
	}
	for i, v := range src {
		dst[offset+i] += v
	}
	return dst
}
