// Package stream is the real-time serving engine for personalized HRTFs:
// chunk-at-a-time binaural rendering and angle-of-arrival tracking with
// bounded latency and bounded memory, the workloads the paper's payoff
// applications (§2, §8 — spatial audio for a moving head, HRTF-aware AoA)
// actually run.
//
// Three engines, one per job:
//
//   - Convolver: block overlap-save convolution against per-angle far-field
//     HRIR spectra precomputed once per hrtf.Table (through the dsp plan
//     cache), with click-free Bartlett crossfades on angle, ear-swap and
//     profile switches. Every angle it renders folds through FoldIntoSpan:
//     right-hemisphere angles play through their mirror with the ears
//     swapped. The steady-state hot path performs no allocations.
//   - Scene: N sources, each a convolver carrying its direct path and room
//     image arrivals, mixed on one timeline behind one lock, with head
//     pose, per-source bearings and backpressure (bounded pending input,
//     explicit overrun/underrun accounting). Session is the one-source
//     free-field Scene every single-source stream runs on.
//   - AoATracker: sliding-window relative-channel cross-correlation plus
//     eq. 11 matching over incoming stereo frames, with hysteresis and
//     exponential smoothing, emitting one angle estimate per hop.
//
// The batch renderers (render.RenderMoving, HeadTracker and RoomRenderer)
// are re-expressed on top of Convolver and Scene, so the streaming and
// whole-buffer paths share one kernel and one fold rule and cannot drift.
package stream
