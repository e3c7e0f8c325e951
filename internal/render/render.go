// Package render turns personalized HRTF tables into application-grade
// binaural audio: block-based rendering of *moving* sources (the "head
// rotates, motion sensors update θ" scenario of the paper's introduction)
// with click-free crossfades, and an extension implementing §7's "room
// multipath integration" — filtering with both a room impulse response and
// the HRTF for plausible in-room externalization.
//
// Every renderer here is a whole-buffer wrapper over the streaming engine
// (internal/stream), so all of them share its one fold rule: the table
// spans the left hemisphere, and a right-hemisphere angle renders through
// its mirror with the ears swapped.
package render

import (
	"errors"

	"repro/internal/hrtf"
	"repro/internal/room"
	"repro/internal/stream"
)

// Renderer renders binaural audio from an angle-indexed HRTF table.
type Renderer struct {
	// Table supplies the HRIRs (far-field entries are used).
	Table *hrtf.Table
	// BlockSize is the rendering granularity in samples (default: 20 ms
	// worth). Each block uses the HRIR of the source's angle at the
	// block center; adjacent blocks crossfade.
	BlockSize int
}

// ErrNoTable is returned when the renderer has no HRTF data.
var ErrNoTable = errors.New("render: renderer needs a populated table")

// RenderMoving renders a mono source whose direction changes over time.
// angleAt maps a time in seconds (from the start of the signal) to the
// source's polar angle in degrees; any angle works — a right-hemisphere
// angle (say 300°) renders through its left-hemisphere mirror (60°) with
// the ears swapped, and angles past a narrow table's span clamp to its
// edges. The output has the length of the input plus the HRIR tail.
//
// The whole-buffer path is a thin wrapper over the streaming engine
// (stream.Convolver): the signal is pushed through in one go with angleAt
// sampled at each block center, so batch and live renders share one kernel
// — 50%-overlap Bartlett blocks whose windows sum to one, so a static
// source renders exactly as a single convolution — and cannot drift apart.
func (r *Renderer) RenderMoving(mono []float64, angleAt func(t float64) float64) (left, right []float64, err error) {
	if r.Table == nil || r.Table.NumAngles() == 0 {
		return nil, nil, ErrNoTable
	}
	if len(mono) == 0 {
		return nil, nil, nil
	}
	c, err := stream.NewConvolver(r.Table, stream.ConvolverOptions{
		BlockSize: r.BlockSize,
		// One push must accept the whole signal: batch rendering has no
		// backpressure.
		MaxPending: len(mono) + 1,
	})
	if err != nil {
		return nil, nil, ErrNoTable
	}
	c.SetAngleFunc(angleAt)
	c.Push(mono)
	c.Flush()
	outLen := len(mono) + c.TailLen()
	left = make([]float64, outLen)
	right = make([]float64, outLen)
	c.Read(left, right)
	return left, right, nil
}

// HeadTracker renders a world-fixed source for a listener whose head yaw
// changes over time (earphone IMU input): the relative angle is
// recomputed per block, and the engine swaps ears block by block when the
// source crosses to the right hemisphere.
type HeadTracker struct {
	// Renderer does the block rendering.
	Renderer Renderer
	// SourceDeg is the world-fixed source bearing.
	SourceDeg float64
	// YawAt maps time (s) to the listener's head yaw (degrees).
	YawAt func(t float64) float64
}

// Render produces the binaural stream for the tracked scene: a moving
// render at the head-relative angle SourceDeg − YawAt(t).
func (ht *HeadTracker) Render(mono []float64) (left, right []float64, err error) {
	if ht.YawAt == nil {
		return nil, nil, errors.New("render: head tracker needs a yaw source")
	}
	return ht.Renderer.RenderMoving(mono, func(t float64) float64 { return ht.SourceDeg - ht.YawAt(t) })
}

// RoomRenderer implements §7's extension: render a source inside a room by
// filtering with the HRTF of the direct path *and* of each early room
// image, producing in-room binaural audio instead of the anechoic default.
type RoomRenderer struct {
	// Table supplies the far-field HRIRs.
	Table *hrtf.Table
	// Room describes the listening room.
	Room room.Config
}

// Render places the mono source at the given polar angle and distance
// (metres) inside the room and returns the reverberant binaural pair.
//
// Like RenderMoving, the whole-buffer path is a thin wrapper over the
// streaming engine — here a one-source stream.Scene — so batch and live
// room renders share one kernel and cannot drift apart (the scene tests
// pin them sample-for-sample). The direct path folds into the table span
// exactly like the image arrivals: a right-hemisphere source (say 250°)
// renders through its 110° mirror with the ears swapped, instead of the
// historical bug of clamping it to 180°.
func (rr *RoomRenderer) Render(mono []float64, angleDeg, distance float64) (left, right []float64, err error) {
	if rr.Table == nil || rr.Table.NumAngles() == 0 {
		return nil, nil, ErrNoTable
	}
	if len(mono) == 0 {
		return nil, nil, nil
	}
	sc, err := stream.NewScene(rr.Table, stream.SceneOptions{
		Convolver: stream.ConvolverOptions{
			// One push must accept the whole signal: batch rendering has
			// no backpressure.
			MaxPending: len(mono) + 1,
		},
		Room:    rr.Room,
		Sources: []stream.SceneSource{{BearingDeg: angleDeg, Distance: distance}},
	})
	if err != nil {
		if rr.Room.MaxOrder > 0 {
			if verr := rr.Room.Validate(); verr != nil {
				return nil, nil, verr
			}
		}
		return nil, nil, ErrNoTable
	}
	sc.PushFrame(0, mono)
	sc.Flush()
	outLen := len(mono) + sc.TailLen()
	left = make([]float64, outLen)
	right = make([]float64, outLen)
	sc.ReadFrame(left, right)
	return left, right, nil
}
