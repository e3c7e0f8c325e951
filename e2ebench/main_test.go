package main

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/head"
	"repro/internal/hrtf"
)

var (
	sharedOnce sync.Once
	sharedFx   *fixture
	sharedErr  error
)

// testFixture solves the seed sessions once for the check tests.
func testFixture(t *testing.T) *fixture {
	t.Helper()
	sharedOnce.Do(func() {
		sharedFx, sharedErr = buildFixture(rand.New(rand.NewSource(7)), t.TempDir(), 16)
	})
	if sharedErr != nil {
		t.Fatal(sharedErr)
	}
	return sharedFx
}

func TestCheckEnrolledRejectsAlteredHead(t *testing.T) {
	fx := testFixture(t)
	p := *fx.bases[0]
	p.User = "alice"
	truth := p.HeadParams
	if err := checkEnrolled(&p, "alice", truth); err != nil {
		t.Fatalf("untouched profile rejected: %v", err)
	}
	altered := p
	altered.HeadParams.B += 2 * headTolerance
	if err := checkEnrolled(&altered, "alice", truth); err == nil {
		t.Fatal("profile with an altered head parameter passed")
	}
	if err := checkEnrolled(&p, "bob", truth); err == nil {
		t.Fatal("another user's profile passed")
	}
	noTable := p
	noTable.Table = nil
	if err := checkEnrolled(&noTable, "alice", head.Params{}); err == nil {
		t.Fatal("profile without a table passed")
	}
}

func TestCheckSeededRejectsFlippedSample(t *testing.T) {
	fx := testFixture(t)
	user := fx.users[0]
	p := fx.seededProfile(user, 0)
	want := fx.baseHash[fx.userBase[user]]
	if err := checkSeeded(p, user, p.JobID, want); err != nil {
		t.Fatalf("seeded profile rejected: %v", err)
	}
	tab := &hrtf.Table{
		SampleRate: p.Table.SampleRate, AngleStep: p.Table.AngleStep, MinAngle: p.Table.MinAngle,
		Near: p.Table.Near, Far: append([]hrtf.HRIR(nil), p.Table.Far...),
	}
	ir := tab.Far[len(tab.Far)/2]
	ir.Left = append([]float64(nil), ir.Left...)
	ir.Left[3] = -ir.Left[3] + 1e-9
	tab.Far[len(tab.Far)/2] = ir
	flipped := *p
	flipped.Table = tab
	if err := checkSeeded(&flipped, user, p.JobID, want); err == nil {
		t.Fatal("profile with one flipped sample passed")
	}
	if err := checkSeeded(p, user, "seed-x", want); err == nil {
		t.Fatal("profile with another job's provenance passed")
	}
}

func TestCheckStereoAgainstReplay(t *testing.T) {
	fx := testFixture(t)
	rng := rand.New(rand.NewSource(3))
	for _, kind := range []sessionKind{kindRender, kindScene} {
		s, err := newSession(rng, fx, kind, 20)
		if err != nil {
			t.Fatal(err)
		}
		e, err := s.runEngine()
		if err != nil {
			t.Fatal(err)
		}
		if err := s.check(e); err == nil {
			t.Fatalf("%s: empty stream matched the replay", kindNames[kind])
		}
		// A correct server returns the replay's output, rounded to float32.
		for i := range e.l {
			s.gotL = append(s.gotL, float64(float32(e.l[i])))
			s.gotR = append(s.gotR, float64(float32(e.r[i])))
		}
		if err := s.check(e); err != nil {
			t.Fatalf("%s: stream equal to the replay rejected: %v", kindNames[kind], err)
		}
		s.gotR[len(s.gotR)/2] += 1e-3
		if err := s.check(e); err == nil {
			t.Fatalf("%s: stream with one flipped sample passed", kindNames[kind])
		}
	}
}

func TestCheckAnglesAgainstReplay(t *testing.T) {
	fx := testFixture(t)
	s, err := newSession(rand.New(rand.NewSource(5)), fx, kindAoA, 60)
	if err != nil {
		t.Fatal(err)
	}
	e, err := s.runEngine()
	if err != nil {
		t.Fatal(err)
	}
	s.events = append(s.events, e.events...)
	if err := s.check(e); err != nil {
		t.Fatalf("events equal to the replay rejected: %v", err)
	}
	s.events[len(s.events)-1].AngleDeg += 0.5
	if err := s.check(e); err == nil {
		t.Fatal("altered AoA event passed")
	}
}

func TestCheckAoAAccuracy(t *testing.T) {
	if err := checkAoAAccuracy([]float64{0.5, 1, 1.5, 90, 120}); err != nil {
		t.Fatalf("run with a minority of gross errors rejected: %v", err)
	}
	if err := checkAoAAccuracy([]float64{0.5, 9, 12, 90, 120}); err == nil {
		t.Fatal("run whose median event is 12 deg off passed")
	}
}

// TestWorkloadsSmoke runs each workload briefly through the whole
// topology with every correctness check on, and one traced run that must
// report every per-layer metric.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("stands up the full topology")
	}
	for _, tc := range []struct {
		name   string
		traced bool
	}{
		{"enroll", false},
		{"profile-read", false},
		{"stream", false},
		{"stream", true},
	} {
		res, report, err := benchmark(t.TempDir(), tc.name, 1, 3*time.Second, tc.traced)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Fatalf("%s: correct=%v attempted=%d failed=%d problems=%v",
				tc.name, res.Correct, res.Attempted, res.Failed, report["problems"])
		}
		names := endToEnd
		if tc.traced {
			names = perLayer
		}
		if len(res.Metrics) != len(names) {
			t.Errorf("%s traced=%v: %d metrics, want %d", tc.name, tc.traced, len(res.Metrics), len(names))
		}
		for _, m := range names {
			got, ok := res.Metrics[m.name]
			if !ok || got.Unit != m.unit {
				t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", tc.name, tc.traced, m.name, got, m.unit)
			}
		}
	}
}
