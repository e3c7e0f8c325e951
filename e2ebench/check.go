package main

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/head"
	"repro/internal/service"
	"repro/internal/stream"
)

// headTolerance bounds how far an enrolled profile's fitted head
// parameters (a, b, c) may sit from the simulated volunteer's true head,
// per parameter, metres. Over 30 screened volunteers solved with the
// default pipeline the worst parameter was 16.9 mm off.
const headTolerance = 0.025

// aoaMedianTolerance bounds the median, over every AoA event of a run,
// of the distance between an event's committed angle and the bearing its
// audio was rendered at, degrees. The estimator's error is heavy-tailed:
// over 120 two-second noise sessions at bearings in [30, 150] deg on
// solved tables, the median event error was 1.0 deg and the p90 2.1 deg,
// but about 3% of sessions were grossly wrong (session median error
// 20-94 deg). A per-session bound would fail a run in four on that tail,
// so the bound is on the run's median, which a wrong table or a broken
// estimator moves.
const aoaMedianTolerance = 5.0

// checkEnrolled verifies an enrolled profile: it belongs to user, carries
// a near- and far-field table, passed the gesture check and its head
// parameters lie within headTolerance of the volunteer's true head.
func checkEnrolled(p *service.StoredProfile, user string, truth head.Params) error {
	if p.User != user {
		return fmt.Errorf("profile for %q answered for %q", user, p.User)
	}
	if p.Table == nil || len(p.Table.Near) == 0 || len(p.Table.Far) == 0 {
		return fmt.Errorf("profile %q has no near/far table", user)
	}
	if !p.GestureOK {
		return fmt.Errorf("profile %q failed the gesture check: %s", user, p.GestureReason)
	}
	got := [3]float64{p.HeadParams.A, p.HeadParams.B, p.HeadParams.C}
	want := [3]float64{truth.A, truth.B, truth.C}
	for i, name := range []string{"a", "b", "c"} {
		if d := math.Abs(got[i] - want[i]); !(d <= headTolerance) {
			return fmt.Errorf("profile %q head %s = %.4f m, true %.4f m (off by %.4f > %.3f)",
				user, name, got[i], want[i], d, headTolerance)
		}
	}
	return nil
}

// checkSeeded verifies a read profile against the seeded one: same owner,
// same provenance and the same table floats.
func checkSeeded(p *service.StoredProfile, user, jobID string, wantHash uint64) error {
	if p.User != user {
		return fmt.Errorf("profile for %q answered for %q", user, p.User)
	}
	if p.JobID != jobID {
		return fmt.Errorf("profile %q has job %q, seeded %q", user, p.JobID, jobID)
	}
	if p.Table == nil {
		return fmt.Errorf("profile %q has no table", user)
	}
	if h := tableHash(p.Table); h != wantHash {
		return fmt.Errorf("profile %q table hash %016x, seeded %016x", user, h, wantHash)
	}
	return nil
}

// checkStereo verifies that the received stereo stream equals the direct
// engine replay bit for bit after the wire's float32 rounding.
func checkStereo(gotL, gotR, wantL, wantR []float64) error {
	if len(gotL) != len(wantL) || len(gotR) != len(wantR) {
		return fmt.Errorf("stream gave %d/%d samples, replay %d/%d", len(gotL), len(gotR), len(wantL), len(wantR))
	}
	for i := range gotL {
		if math.Float32bits(float32(gotL[i])) != math.Float32bits(float32(wantL[i])) ||
			math.Float32bits(float32(gotR[i])) != math.Float32bits(float32(wantR[i])) {
			return fmt.Errorf("sample %d differs from replay: (%g, %g) vs (%g, %g)",
				i, gotL[i], gotR[i], wantL[i], wantR[i])
		}
	}
	return nil
}

// checkAngles verifies that a session's AoA events equal the direct
// tracker replay, field for field.
func checkAngles(got, want []stream.AngleEvent) error {
	if len(got) != len(want) {
		return fmt.Errorf("stream gave %d events, replay %d", len(got), len(want))
	}
	if len(got) == 0 {
		return errors.New("no AoA events")
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("event %d differs from replay: %+v vs %+v", i, got[i], want[i])
		}
	}
	return nil
}

// checkAoAAccuracy verifies that the median of a run's AoA event errors
// (degrees from the rendered bearing) is within aoaMedianTolerance.
func checkAoAAccuracy(errs []float64) error {
	if len(errs) == 0 {
		return nil
	}
	if m := median(errs); !(m <= aoaMedianTolerance) {
		return fmt.Errorf("median AoA event error %.1f deg exceeds %.1f deg", m, aoaMedianTolerance)
	}
	return nil
}
