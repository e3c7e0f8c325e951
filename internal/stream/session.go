package stream

import "repro/internal/hrtf"

// SessionOptions tunes a streaming render session.
type SessionOptions struct {
	// Convolver forwards engine tuning (block size, pending bound).
	Convolver ConvolverOptions
	// SourceDeg is the initial world-frame source bearing in degrees
	// (default 90: straight ahead in the paper's [0, 180] convention).
	// A zero value means "unset" unless HasSource is true.
	SourceDeg float64
	// HasSource marks SourceDeg as explicitly set, so a hard-side 0°
	// bearing is requestable. Without it, SourceDeg == 0 keeps its
	// historical meaning of "use the 90° default".
	HasSource bool
}

// SessionStats is a point-in-time snapshot of a session's accounting.
type SessionStats struct {
	// FramesIn / FramesOut count PushFrame and producing ReadFrame calls.
	FramesIn  uint64 `json:"framesIn"`
	FramesOut uint64 `json:"framesOut"`
	// SamplesIn / SamplesOut count accepted input and delivered output
	// samples.
	SamplesIn  uint64 `json:"samplesIn"`
	SamplesOut uint64 `json:"samplesOut"`
	// OverrunSamples counts input dropped because the pending bound was
	// full; UnderrunSamples counts output a reader asked for before it
	// was ready (reader starvation).
	OverrunSamples  uint64 `json:"overrunSamples"`
	UnderrunSamples uint64 `json:"underrunSamples"`
	// Blocks is the number of convolution blocks processed.
	Blocks uint64 `json:"blocks"`
	// Flushed and Drained report end-of-input and end-of-output.
	Flushed bool `json:"flushed"`
	Drained bool `json:"drained"`
}

// Session is the single-source stream: a one-source free-field Scene
// whose source 0 sits at SessionOptions.SourceDeg. The rendered angle is
// the world-frame bearing minus the head yaw (SetPose), folded into the
// table span with the ears swapped for right-hemisphere angles — the
// paper's symmetric-head mirror convention. Backpressure, locking and
// accounting are the Scene's: pushes beyond the pending bound are dropped
// and counted as overruns, reads ahead of the render count as underruns,
// and producers and consumers may run on different goroutines.
// SetBearing(0, deg) moves the source.
type Session struct{ *Scene }

// NewSession opens a streaming session over a personalization table.
func NewSession(t *hrtf.Table, opt SessionOptions) (*Session, error) {
	source := opt.SourceDeg
	if source == 0 && !opt.HasSource {
		// Zero value means "unset": keep the 90° straight-ahead default.
		// Callers that really want a 0° bearing set HasSource.
		source = 90
	}
	sc, err := NewScene(t, SceneOptions{
		Convolver: opt.Convolver,
		Sources:   []SceneSource{{BearingDeg: source}},
	})
	if err != nil {
		return nil, err
	}
	return &Session{sc}, nil
}

// PushFrame feeds one mono input frame, returning how many samples were
// accepted; the rest were dropped at the pending bound (counted in
// OverrunSamples).
func (s *Session) PushFrame(mono []float64) int {
	n, _ := s.Scene.PushFrame(0, mono) // source 0 always exists
	return n
}

// Stats snapshots the session's accounting.
func (s *Session) Stats() SessionStats { return s.Scene.Stats().SessionStats }
