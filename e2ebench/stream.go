package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sync"
	"time"

	"repro/internal/geom"
	"repro/internal/hrtf"
	"repro/internal/room"
	"repro/internal/service"
	"repro/internal/stream"
)

const (
	// streamConns is the number of concurrent stream connections.
	streamConns = 2
	// frameDur is the client's audio frame: 10 ms, due on the audio clock.
	frameDur = 10 * time.Millisecond
	// sessionFrames is one session's length in frames (2 s of audio); the
	// probe variant streams probeFrames.
	sessionFrames = 200
	probeFrames   = 50
	// slotSlack pads a session's slot: a connection starts a session every
	// audio length plus slotSlack (room for opening and the convolution
	// tail). Sessions are due on that fixed schedule, so the two
	// connections' mixes stay half a cycle apart and their scene sessions
	// never overlap.
	slotSlack = 200 * time.Millisecond
	// poseEvery sends a head-yaw update every this many frames (100 ms).
	poseEvery = 10
	// sceneSources and sceneOrder shape the room scenes.
	sceneSources = 3
	sceneOrder   = 2
	// maxPending mirrors the service's generous engine bound (TCP is the
	// backpressure on the HTTP path), so the replay runs the same engine.
	maxPending = 1 << 15
	// streamOutChunk mirrors the service's largest output frame.
	streamOutChunk = 4096
)

type sessionKind int

const (
	kindRender sessionKind = iota
	kindScene
	kindAoA
)

var kindNames = [...]string{"render", "scene", "aoa"}

// sessionMix is the cycle of session kinds on each connection; the second
// connection starts half a cycle later. Render frames outnumber scene
// frames two to one, so the frame median sits in the render mode and the
// upper quartile in the scene mode instead of either straddling the two.
var sessionMix = []sessionKind{kindRender, kindRender, kindScene, kindAoA}

// mark is a receipt: cumulative output samples (or the AoA event's end
// sample), cumulative response bytes and the time they arrived.
type mark struct {
	samples int
	bytes   int64
	t       time.Time
}

// session is one pre-generated stream session and, after it ran, what the
// client received.
type session struct {
	kind     sessionKind
	user     string
	table    *hrtf.Table
	frameLen int
	frames   int

	sourceDeg float64            // render: world bearing
	scene     service.SceneDesc  // scene: layout
	mono      [][]float64        // render/scene: per-source input audio
	poses     map[int]float64    // frame -> yaw sent before its audio
	bearings  map[int][2]float64 // scene: frame -> (source, bearing)
	left      []float64          // aoa: binaural input
	right     []float64          // aoa
	bearing   float64            // aoa: rendered head-relative bearing

	op         uint64
	t0         time.Time // audio clock origin (response headers in)
	sends      []time.Time
	gotL, gotR []float64
	bytes      int64 // response bytes received
	recv       []mark
	events     []stream.AngleEvent
	err        error
}

func (s *session) due(frame int) time.Time { return s.t0.Add(time.Duration(frame+1) * frameDur) }

// audioSeconds is the session's input audio length.
func (s *session) audioSeconds() float64 { return float64(s.frames) * frameDur.Seconds() }

// streamWorkload: each connection runs a seeded sequence of full-duplex
// sessions through the gateway's raw relay, cycling render (pose updates),
// multi-source room scene and AoA on pre-rendered binaural audio.
type streamWorkload struct {
	probe bool
	plan  [][]*session // per connection
	slot  time.Duration
	users []string
}

func noise(rng *rand.Rand, n int, amp float64) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = float64(float32(amp * rng.NormFloat64())) // exact on the float32 wire
	}
	return x
}

func uniform(rng *rand.Rand, lo, hi float64) float64 { return lo + (hi-lo)*rng.Float64() }

// newSession draws one session of kind for a seeded population user.
func newSession(rng *rand.Rand, fx *fixture, kind sessionKind, frames int) (*session, error) {
	user := fx.users[rng.Intn(len(fx.users))]
	t := fx.bases[fx.userBase[user]].Table
	s := &session{
		kind: kind, user: user, table: t, frames: frames,
		frameLen: int(math.Round(t.SampleRate * frameDur.Seconds())),
		poses:    map[int]float64{},
		bearings: map[int][2]float64{},
	}
	n := frames * s.frameLen
	switch kind {
	case kindRender, kindScene:
		yaw := 0.0
		for f := 0; f < frames; f += poseEvery {
			yaw += uniform(rng, -10, 10)
			s.poses[f] = yaw
		}
		sources := 1
		if kind == kindScene {
			sources = sceneSources
			w, d := uniform(rng, 5, 6), uniform(rng, 6, 7)
			s.scene.Room = &service.SceneRoom{
				Width: w, Depth: d,
				OriginX: uniform(rng, 1.8, w-1.8), OriginY: uniform(rng, 1.8, d-1.8),
				Absorption: uniform(rng, 0.3, 0.6), MaxOrder: sceneOrder,
			}
			for i := 0; i < sources; i++ {
				s.scene.Sources = append(s.scene.Sources, service.SceneSourceDesc{
					BearingDeg: uniform(rng, 0, 360), Distance: uniform(rng, 0.8, 1.5), Gain: 0.5,
				})
			}
			for f := poseEvery / 2; f < frames; f += 5 * poseEvery {
				s.bearings[f] = [2]float64{float64(rng.Intn(sources)), uniform(rng, 0, 360)}
			}
		} else {
			s.sourceDeg = uniform(rng, 0, 360)
		}
		for i := 0; i < sources; i++ {
			s.mono = append(s.mono, noise(rng, n, 0.1))
		}
	case kindAoA:
		s.bearing = uniform(rng, 30, 150)
		sess, err := stream.NewSession(t, stream.SessionOptions{SourceDeg: s.bearing, HasSource: true})
		if err != nil {
			return nil, err
		}
		src := noise(rng, n, 0.1)
		l, r := make([]float64, 0, n+sess.TailLen()), make([]float64, 0, n+sess.TailLen())
		bl, br := make([]float64, streamOutChunk), make([]float64, streamOutChunk)
		for off := 0; off < n; off += sess.BlockSize() {
			sess.PushFrame(src[off:min(off+sess.BlockSize(), n)])
			for sess.Available() > 0 {
				k := sess.ReadFrame(bl[:min(sess.Available(), streamOutChunk)], br)
				l, r = append(l, bl[:k]...), append(r, br[:k]...)
			}
		}
		sess.Flush()
		for sess.Available() > 0 {
			k := sess.ReadFrame(bl[:min(sess.Available(), streamOutChunk)], br)
			l, r = append(l, bl[:k]...), append(r, br[:k]...)
		}
		for i := 0; i < n; i++ {
			l[i], r[i] = float64(float32(l[i])), float64(float32(r[i]))
		}
		s.left, s.right = l[:n], r[:n]
	}
	return s, nil
}

// prepare draws each connection's session sequence for the longest run.
func (w *streamWorkload) prepare(rng *rand.Rand, fx *fixture, window time.Duration) error {
	conns, frames := streamConns, sessionFrames
	if w.probe {
		frames = probeFrames
	}
	w.slot = time.Duration(frames)*frameDur + slotSlack
	perConn := int(window/w.slot) + 2
	if w.probe {
		conns, perConn = 1, len(sessionMix)
	}
	w.plan = make([][]*session, conns)
	for c := range w.plan {
		for i := 0; i < perConn; i++ {
			s, err := newSession(rng, fx, sessionMix[(2*c+i)%len(sessionMix)], frames)
			if err != nil {
				return err
			}
			w.plan[c] = append(w.plan[c], s)
		}
	}
	return nil
}

func (w *streamWorkload) keys() []string { return w.users }

func (w *streamWorkload) warmKeys(fx *fixture) []string { return fx.users }

// streamer is the client side of one open session: the public
// service.Client stream types, adapted to the session's frames.
type streamer struct {
	sendFrame func(f int) error // pose/bearing updates, then audio, for frame f
	closeSend func() error
	recv      func() error // the next output frame or event; io.EOF at the end
	close     func() error
}

// open starts the session through the gateway with the public client.
func (s *session) open(ctx context.Context, api *service.Client) (*streamer, error) {
	lo := func(f int) int { return f * s.frameLen }
	switch s.kind {
	case kindRender, kindScene:
		var rs *service.RenderStream
		var ss *service.SceneStream
		var err error
		if s.kind == kindRender {
			rs, err = api.StreamRender(ctx, s.user, s.sourceDeg)
		} else if ss, err = api.StreamRenderScene(ctx, s.user, s.scene); err == nil {
			rs = &ss.RenderStream
		}
		if err != nil {
			return nil, err
		}
		return &streamer{
			sendFrame: func(f int) error {
				if yaw, ok := s.poses[f]; ok {
					if err := rs.SendPose(yaw); err != nil {
						return err
					}
				}
				if ss == nil {
					return rs.SendAudio(s.mono[0][lo(f):lo(f+1)])
				}
				if b, ok := s.bearings[f]; ok {
					if err := ss.SendBearing(int(b[0]), b[1]); err != nil {
						return err
					}
				}
				for i, m := range s.mono {
					if err := ss.SendSourceAudio(i, m[lo(f):lo(f+1)]); err != nil {
						return err
					}
				}
				return nil
			},
			closeSend: rs.CloseSend,
			recv: func() error {
				l, r, err := rs.Recv()
				if err != nil {
					return err
				}
				s.gotL, s.gotR = append(s.gotL, l...), append(s.gotR, r...)
				s.bytes += int64(5 + 8*len(l)) // frame header + interleaved float32
				s.recv = append(s.recv, mark{samples: len(s.gotL), bytes: s.bytes, t: time.Now()})
				return nil
			},
			close: rs.Close,
		}, nil
	}
	as, err := api.StreamAoA(ctx, s.user, service.AoAStreamOptions{})
	if err != nil {
		return nil, err
	}
	return &streamer{
		sendFrame: func(f int) error { return as.SendStereo(s.left[lo(f):lo(f+1)], s.right[lo(f):lo(f+1)]) },
		closeSend: as.CloseSend,
		recv: func() error {
			ev, err := as.Recv()
			if err != nil {
				return err
			}
			now := time.Now()
			line, err := json.Marshal(ev) // the server writes json.Encoder lines
			if err != nil {
				return err
			}
			s.events = append(s.events, ev)
			s.bytes += int64(len(line) + 1)
			end := int(math.Round(ev.TimeSec * s.table.SampleRate))
			s.recv = append(s.recv, mark{samples: end, bytes: s.bytes, t: now})
			return nil
		},
		close: as.Close,
	}, nil
}

// runSession opens the session through the gateway, streams its frames on
// the audio clock — frame f is due, and sent, once its 10 ms of audio
// would have been captured — and receives until the server ends the
// response.
func runSession(t *topology, s *session) error {
	ctx, cancel := context.WithTimeout(withOp(context.Background(), s.op), 2*time.Minute)
	defer cancel()
	st, err := s.open(ctx, &service.Client{BaseURL: t.url, HTTPClient: t.client})
	if err != nil {
		return fmt.Errorf("open %s session: %w", kindNames[s.kind], err)
	}
	defer st.close()
	s.t0 = time.Now()
	sendErr := make(chan error, 1)
	go func() {
		for f := 0; f < s.frames; f++ {
			sleepUntil(s.due(f))
			s.sends = append(s.sends, time.Now())
			if err := st.sendFrame(f); err != nil {
				sendErr <- err
				return
			}
		}
		sendErr <- st.closeSend()
	}()
	var rerr error
	for rerr == nil {
		rerr = st.recv()
	}
	if rerr == io.EOF {
		rerr = nil
	} else {
		st.close() // unblocks the sender
	}
	if serr := <-sendErr; serr != nil && rerr == nil {
		return serr
	}
	return rerr
}

// engineRun is the direct engine's output for a session's frames.
type engineRun struct {
	l, r   []float64           // render/scene output
	events []stream.AngleEvent // AoA events
	// perUnit is the engine time per block (render, scene) or hop (AoA);
	// open is the engine's construction time.
	perUnit, open time.Duration
}

// runEngine feeds the session's frames through the engine directly,
// exactly as the service's handler feeds them.
func (s *session) runEngine() (engineRun, error) {
	var e engineRun
	bl, br := make([]float64, streamOutChunk), make([]float64, streamOutChunk)
	var busy time.Duration
	switch s.kind {
	case kindRender:
		t0 := time.Now()
		sess, err := stream.NewSession(s.table, stream.SessionOptions{
			SourceDeg: s.sourceDeg, HasSource: true,
			Convolver: stream.ConvolverOptions{MaxPending: maxPending},
		})
		e.open = time.Since(t0)
		if err != nil {
			return e, err
		}
		drain := func() {
			for n := min(sess.Available(), streamOutChunk); n > 0; n = min(sess.Available(), streamOutChunk) {
				n = sess.ReadFrame(bl[:n], br[:n])
				e.l, e.r = append(e.l, bl[:n]...), append(e.r, br[:n]...)
			}
		}
		block := sess.BlockSize()
		for f := 0; f < s.frames; f++ {
			t0 := time.Now()
			if yaw, ok := s.poses[f]; ok {
				sess.SetPose(yaw)
			}
			m := s.mono[0][f*s.frameLen : (f+1)*s.frameLen]
			for off := 0; off < len(m); off += block {
				sess.PushFrame(m[off:min(off+block, len(m))])
				drain()
			}
			busy += time.Since(t0)
		}
		sess.Flush()
		drain()
		if b := sess.Stats().Blocks; b > 0 {
			e.perUnit = busy / time.Duration(b)
		}
	case kindScene:
		opt := stream.SceneOptions{Convolver: stream.ConvolverOptions{MaxPending: maxPending}}
		rd := s.scene.Room
		opt.Room = room.Config{
			Width: rd.Width, Depth: rd.Depth,
			Origin:     geom.Vec{X: rd.OriginX, Y: rd.OriginY},
			Absorption: rd.Absorption, MaxOrder: rd.MaxOrder,
		}
		for _, src := range s.scene.Sources {
			opt.Sources = append(opt.Sources, stream.SceneSource{BearingDeg: src.BearingDeg, Distance: src.Distance, Gain: src.Gain})
		}
		t0 := time.Now()
		sc, err := stream.NewScene(s.table, opt)
		e.open = time.Since(t0)
		if err != nil {
			return e, err
		}
		drain := func() {
			for n := min(sc.Available(), streamOutChunk); n > 0; n = min(sc.Available(), streamOutChunk) {
				n = sc.ReadFrame(bl[:n], br[:n])
				e.l, e.r = append(e.l, bl[:n]...), append(e.r, br[:n]...)
			}
		}
		block := sc.BlockSize()
		for f := 0; f < s.frames; f++ {
			t0 := time.Now()
			if yaw, ok := s.poses[f]; ok {
				sc.SetPose(yaw)
			}
			if b, ok := s.bearings[f]; ok {
				if err := sc.SetBearing(int(b[0]), b[1]); err != nil {
					return e, err
				}
			}
			for i, src := range s.mono {
				m := src[f*s.frameLen : (f+1)*s.frameLen]
				for off := 0; off < len(m); off += block {
					if _, err := sc.PushFrame(i, m[off:min(off+block, len(m))]); err != nil {
						return e, err
					}
					drain()
				}
			}
			busy += time.Since(t0)
		}
		sc.Flush()
		drain()
		// One scene block mixes every source's block.
		if b := sc.Stats().Blocks / uint64(len(s.mono)); b > 0 {
			e.perUnit = busy / time.Duration(b)
		}
	case kindAoA:
		t0 := time.Now()
		tr, err := stream.NewAoATracker(s.table, stream.TrackerOptions{})
		e.open = time.Since(t0)
		if err != nil {
			return e, err
		}
		for f := 0; f < s.frames; f++ {
			l, r := s.left[f*s.frameLen:(f+1)*s.frameLen], s.right[f*s.frameLen:(f+1)*s.frameLen]
			t0 := time.Now()
			for off := 0; off < len(l); off += tr.Window() {
				hi := min(off+tr.Window(), len(l))
				e.events = append(e.events, tr.Push(l[off:hi], r[off:hi])...)
			}
			busy += time.Since(t0)
		}
		if h := tr.Windows(); h > 0 {
			e.perUnit = busy / time.Duration(h)
		}
	}
	return e, nil
}

// check compares what the stream returned with the engine's own output.
func (s *session) check(e engineRun) error {
	if s.kind == kindAoA {
		return checkAngles(s.events, e.events)
	}
	return checkStereo(s.gotL, s.gotR, e.l, e.r)
}

// frameLatencies returns, per received output frame whose last sample
// lies within the input, the time from the due time of the input frame
// holding that sample to the frame's receipt, ms.
func (s *session) frameLatencies() []float64 {
	var out []float64
	limit := s.frames * s.frameLen
	for _, m := range s.recv {
		if m.samples <= 0 || m.samples > limit {
			continue
		}
		out = append(out, ms(m.t.Sub(s.due((m.samples-1)/s.frameLen))))
	}
	return out
}

func (w *streamWorkload) run(t *topology, fx *fixture, tr *tracer, window time.Duration) (*outcome, error) {
	var (
		mu  sync.Mutex
		ran []*session
		wg  sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(window)
	cpu0 := cpuTime()
	for c := range w.plan {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; len(w.plan[c]) > 0; k++ {
				due := start.Add(time.Duration(k) * w.slot)
				if !due.Before(deadline) {
					return
				}
				sleepUntil(due)
				s := w.plan[c][0]
				w.plan[c] = w.plan[c][1:]
				s.op = tr.newOp()
				s.err = runSession(t, s)
				mu.Lock()
				ran = append(ran, s)
				w.users = append(w.users, s.user)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	cpu := cpuTime() - cpu0

	out := &outcome{attempted: len(ran), named: map[string]metric{}}
	var frames, aoa, aoaErr, lags []float64
	var audioS float64
	perKind := map[sessionKind][]float64{}
	var blockUS = map[sessionKind][]float64{}
	var openUS []float64
	// Replay every session through the engine, one per CPU.
	engines := make([]engineRun, len(ran))
	engineErrs := make([]error, len(ran))
	sem := make(chan struct{}, streamConns)
	for i, s := range ran {
		if s.err != nil {
			continue
		}
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			engines[i], engineErrs[i] = s.runEngine()
		}()
	}
	wg.Wait()
	for i, s := range ran {
		if s.err == nil {
			err := engineErrs[i]
			if err == nil {
				err = s.check(engines[i])
				blockUS[s.kind] = append(blockUS[s.kind], us(engines[i].perUnit))
				openUS = append(openUS, us(engines[i].open))
			}
			s.err = err
		}
		if s.err != nil {
			out.fail("%s session for %s: %v", kindNames[s.kind], s.user, s.err)
			continue
		}
		audioS += s.audioSeconds()
		lat := s.frameLatencies()
		if s.kind == kindAoA {
			aoa = append(aoa, lat...)
			for _, ev := range s.events {
				aoaErr = append(aoaErr, math.Abs(ev.AngleDeg-s.bearing))
			}
		} else {
			frames = append(frames, lat...)
			perKind[s.kind] = append(perKind[s.kind], lat...)
		}
		for f, sent := range s.sends {
			lags = append(lags, ms(sent.Sub(s.due(f))))
		}
	}
	if err := checkAoAAccuracy(aoaErr); err != nil {
		out.attempted++ // the run-level accuracy check
		out.fail("%v", err)
	}
	if len(frames) == 0 {
		return out, nil
	}
	out.ops = audioS
	out.p50 = median(frames)
	out.p75 = percentile(frames, 0.75)
	out.cpuPerOp = ms(cpu) / audioS
	out.named["frame_p50_ms"] = metric{out.p50, "ms"}
	out.named["frame_p90_ms"] = metric{percentile(frames, 0.9), "ms"}
	out.named["frame_p95_ms"] = metric{percentile(frames, 0.95), "ms"}
	out.named["frame_p99_ms"] = metric{percentile(frames, 0.99), "ms"}
	out.named["render_frame_p50_ms"] = metric{median(perKind[kindRender]), "ms"}
	out.named["scene_frame_p50_ms"] = metric{median(perKind[kindScene]), "ms"}
	out.named["aoa_event_p50_ms"] = metric{median(aoa), "ms"}
	out.named["aoa_error_p50_deg"] = metric{median(aoaErr), "deg"}
	out.named["aoa_error_p90_deg"] = metric{percentile(aoaErr, 0.9), "deg"}
	out.named["stream_cpu_per_audio_s"] = metric{cpu.Seconds() / audioS, "s/s"}
	out.named["error_ratio"] = metric{float64(out.failed) / float64(out.attempted), "ratio"}
	out.named["frames"] = metric{float64(len(frames)), "count"}
	out.named["sessions"] = metric{float64(len(ran)), "count"}
	out.named["gen.lag_p99_ms"] = metric{percentile(lags, 0.99), "ms"}
	if tr != nil && tr.on.Load() {
		out.layers = streamLayers(ran, tr)
		out.layers["gen.lag_p99_ms"] = percentile(lags, 0.99)
		out.layers["stream.render_block_us"] = median(blockUS[kindRender])
		out.layers["stream.scene_block_us"] = median(blockUS[kindScene])
		out.layers["stream.aoa_hop_us"] = median(blockUS[kindAoA])
		out.layers["stream.session_open_us"] = median(openUS)
		for k, v := range out.layers {
			if v == 0 && (k == "stream.render_block_us" || k == "stream.scene_block_us" || k == "stream.aoa_hop_us") {
				delete(out.layers, k) // that kind did not run
			}
		}
	}
	return out, nil
}

// streamLayers derives the relay and node-handler times per output frame
// from the node span's flushes, the node's body reads and the client's
// receipts, matched by cumulative response bytes.
func streamLayers(ran []*session, tr *tracer) map[string]float64 {
	idx := tr.index()
	var relay, handler, relayed []float64
	for _, s := range ran {
		if s.err != nil || s.op == 0 {
			continue
		}
		spans := idx[s.op]
		g, n := find(spans, gatewayLayer, "stream"), findNode(spans, "stream")
		if g == nil || n == nil {
			continue
		}
		relayed = append(relayed, float64(g.in+g.out))
		n.mu.Lock()
		flushes, reads := n.flushes, n.reads
		n.mu.Unlock()
		fi := 0
		for _, m := range s.recv {
			for fi < len(flushes) && flushes[fi].n < m.bytes {
				fi++
			}
			if fi == len(flushes) {
				break
			}
			relay = append(relay, ms(m.t.Sub(flushes[fi].t)))
		}
		var prev int64
		ri := 0
		for _, f := range flushes {
			if f.n == prev {
				continue
			}
			prev = f.n
			for ri+1 < len(reads) && !reads[ri+1].t.After(f.t) {
				ri++
			}
			if ri < len(reads) && !reads[ri].t.After(f.t) {
				handler = append(handler, ms(f.t.Sub(reads[ri].t)))
			}
		}
	}
	layers := map[string]float64{}
	if len(relay) > 0 {
		layers["cluster.stream_relay_ms"] = median(relay)
		layers["service.stream_frame_ms"] = median(handler)
	}
	if len(relayed) > 0 {
		layers["cluster.bytes_relayed_per_op"] = mean(relayed)
	}
	return layers
}
