package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"testing"

	"repro/internal/sim"
)

// personalizeGoldenHash is the SHA-256 over the JSON encoding of the full
// personalization output (table, head params, track, radii) for the frozen
// session below, captured before the sweep-batch Localizer rewrite and the
// fusion Localizer cache (commit 77f7551). The geometry fast paths, the
// delay-field build and the cache are all required to be bit-invisible in
// the output, so this hash must never change. Refresh deliberately with
//
//	GOLDEN_UPDATE=1 go test -run TestPersonalizeGoldenBitExact ./internal/core
//
// only when an intentional numerical change is being made.
const personalizeGoldenHash = "b059b20b5dbafd92eb4195fff676d8fc2d2d419078193b44bc87f68bfd42958e"

// TestPersonalizeGoldenBitExact runs the pipeline on a frozen simulated
// session and asserts the output table is bit-identical to the pre-rewrite
// golden. TestPersonalizeWorkerDeterminism proves worker-count invariance
// within one binary; this test pins the numbers across PRs, so a refactor
// that silently perturbs the fusion trajectory (e.g. a lossy Localizer
// cache) cannot pass.
func TestPersonalizeGoldenBitExact(t *testing.T) {
	v := sim.NewVolunteer(3, 9001)
	s, err := sim.RunSession(v, sim.SessionConfig{NumStops: 12})
	if err != nil {
		t.Fatal(err)
	}
	p, err := Personalize(sessionInput(s), coarseOptions(-1))
	if err != nil {
		t.Fatal(err)
	}
	got := hashPersonalization(t, p)
	if os.Getenv("GOLDEN_UPDATE") != "" {
		t.Logf("golden hash: %s", got)
		return
	}
	if got != personalizeGoldenHash {
		t.Fatalf("personalization output drifted from the frozen golden:\n got  %s\n want %s\n"+
			"the delay-field/cache rewrite must be bit-invisible; if this change is intentional, refresh with GOLDEN_UPDATE=1",
			got, personalizeGoldenHash)
	}
}

// personalizeDefaultGoldenHash pins the pipeline uniqd actually runs: the
// default options (fast fusion cascade, default near-field and far-field
// synthesis) over a full 37-stop sweep. It was captured before the
// tabulated peak kernel and the per-synthesis alignment memo, both of
// which must be bit-invisible. Refresh deliberately with
//
//	GOLDEN_UPDATE=1 go test -run TestPersonalizeDefaultGoldenBitExact ./internal/core
//
// only when an intentional numerical change is being made.
const personalizeDefaultGoldenHash = "4de878a401d9f379be62417807a7724636ea0f63830139239be51b9773974156"

// TestPersonalizeDefaultGoldenBitExact is TestPersonalizeGoldenBitExact
// for the default pipeline, hashing the same four output parts.
func TestPersonalizeDefaultGoldenBitExact(t *testing.T) {
	v := sim.NewVolunteer(3, 9001)
	s, err := sim.RunSession(v, sim.SessionConfig{NumStops: 37})
	if err != nil {
		t.Fatal(err)
	}
	p, err := Personalize(sessionInput(s), PipelineOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	got := hashPersonalization(t, p)
	if os.Getenv("GOLDEN_UPDATE") != "" {
		t.Logf("golden hash: %s", got)
		return
	}
	if got != personalizeDefaultGoldenHash {
		t.Fatalf("default personalization output drifted from the frozen golden:\n got  %s\n want %s\n"+
			"the far-field fast path must be bit-invisible; if this change is intentional, refresh with GOLDEN_UPDATE=1",
			got, personalizeDefaultGoldenHash)
	}
}

// hashPersonalization is the SHA-256 over the JSON encoding of the output
// table, head parameters, track and radii.
func hashPersonalization(t *testing.T, p *Personalization) string {
	t.Helper()
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, part := range []any{p.Table, p.HeadParams, p.TrackDeg, p.Radii} {
		if err := enc.Encode(part); err != nil {
			t.Fatal(err)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
