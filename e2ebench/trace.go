package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// gatewayLayer names gateway spans; node spans carry the node's name.
const gatewayLayer = "gw"

// opHeader carries the benchmark's operation ID from the load generator
// to the gateway and, through the traced transport, on to the node.
const opHeader = "Bench-Op"

type opKey struct{}

// ioMark is a timestamped cumulative byte count on a request body (reads)
// or response (flushes).
type ioMark struct {
	t time.Time
	n int64
}

// span is one handler invocation at one layer. Spans of one operation
// share op; a node span's parent is the gateway span with the same op and
// route.
type span struct {
	op    uint64
	layer string // gatewayLayer or the node name
	route string // submit, job, profile, stream or other

	mu         sync.Mutex
	start, end time.Time
	in, out    int64
	reads      []ioMark // stream routes only
	flushes    []ioMark // stream routes only
	marks      bool
}

func (s *span) dur() time.Duration { return s.end.Sub(s.start) }

// stageEvent is one core pipeline stage reported to a node's observer.
type stageEvent struct {
	stage string
	dur   time.Duration
	end   time.Time
	err   bool
}

// tracer records spans at the handler boundaries of the gateway and both
// nodes, and pipeline stages from each node's core.Observer. Spans are
// kept in memory and written out when the run ends. While off, the
// wrappers pass requests straight through.
type tracer struct {
	on     atomic.Bool
	nextOp atomic.Uint64

	mu      sync.Mutex
	spans   []*span
	stages  map[string][]stageEvent
	skipped map[string]int
}

func newTracer() *tracer {
	return &tracer{stages: map[string][]stageEvent{}, skipped: map[string]int{}}
}

// newOp returns a fresh operation ID, or 0 (untraced) when tr is nil or
// off.
func (tr *tracer) newOp() uint64 {
	if tr == nil || !tr.on.Load() {
		return 0
	}
	return tr.nextOp.Add(1)
}

// withOp carries op in ctx; traceTransport turns it into the operation
// header on the outgoing request. The load generator's client and, in a
// traced run, the gateway's backend client both use it.
func withOp(ctx context.Context, op uint64) context.Context {
	if op == 0 {
		return ctx
	}
	return context.WithValue(ctx, opKey{}, op)
}

func routeOf(r *http.Request) string {
	p := r.URL.Path
	switch {
	case r.Method == http.MethodPost && p == "/v1/sessions":
		return "submit"
	case strings.HasPrefix(p, "/v1/jobs/"):
		return "job"
	case strings.HasPrefix(p, "/v1/stream/"):
		return "stream"
	case r.Method == http.MethodGet && strings.HasPrefix(p, "/v1/profiles/"):
		return "profile"
	}
	return "other"
}

// wrap times h at one layer. The gateway's wrapper also puts the op into
// the request context, where the traced transport finds it on the
// gateway's outgoing backend request.
func (tr *tracer) wrap(h http.Handler, layer string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		op, _ := strconv.ParseUint(r.Header.Get(opHeader), 10, 64)
		if op == 0 || !tr.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		sp := &span{op: op, layer: layer, route: routeOf(r), start: time.Now()}
		sp.marks = sp.route == "stream"
		r.Body = &traceBody{rc: r.Body, sp: sp}
		if layer == gatewayLayer {
			r = r.WithContext(withOp(r.Context(), op))
		}
		h.ServeHTTP(&traceWriter{ResponseWriter: w, sp: sp}, r)
		sp.mu.Lock()
		sp.end = time.Now()
		sp.mu.Unlock()
		tr.mu.Lock()
		tr.spans = append(tr.spans, sp)
		tr.mu.Unlock()
	})
}

// traceBody counts and timestamps request-body reads.
type traceBody struct {
	rc io.ReadCloser
	sp *span
}

func (b *traceBody) Read(p []byte) (int, error) {
	n, err := b.rc.Read(p)
	if n > 0 {
		now := time.Now()
		b.sp.mu.Lock()
		b.sp.in += int64(n)
		if b.sp.marks {
			b.sp.reads = append(b.sp.reads, ioMark{now, b.sp.in})
		}
		b.sp.mu.Unlock()
	}
	return n, err
}

func (b *traceBody) Close() error { return b.rc.Close() }

// traceWriter counts response bytes and timestamps flushes. Unwrap lets
// http.ResponseController reach EnableFullDuplex on the real writer.
type traceWriter struct {
	http.ResponseWriter
	sp *span
}

func (w *traceWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.sp.mu.Lock()
	w.sp.out += int64(n)
	w.sp.mu.Unlock()
	return n, err
}

func (w *traceWriter) Flush() {
	_ = http.NewResponseController(w.ResponseWriter).Flush()
	if w.sp.marks {
		now := time.Now()
		w.sp.mu.Lock()
		w.sp.flushes = append(w.sp.flushes, ioMark{now, w.sp.out})
		w.sp.mu.Unlock()
	}
}

func (w *traceWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// traceTransport sets the operation header from the request context.
type traceTransport struct{ base http.RoundTripper }

func (t traceTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if op, ok := req.Context().Value(opKey{}).(uint64); ok {
		req = req.Clone(req.Context())
		req.Header.Set(opHeader, strconv.FormatUint(op, 10))
	}
	return t.base.RoundTrip(req)
}

// observer returns node's pipeline observer.
func (tr *tracer) observer(node string) core.Observer { return stageObserver{tr: tr, node: node} }

type stageObserver struct {
	tr   *tracer
	node string
}

func (o stageObserver) StageDone(stage string, d time.Duration, err error) {
	ev := stageEvent{stage: stage, dur: d, end: time.Now(), err: err != nil}
	o.tr.mu.Lock()
	o.tr.stages[o.node] = append(o.tr.stages[o.node], ev)
	o.tr.mu.Unlock()
}

func (o stageObserver) SkippedStops(n int) {
	o.tr.mu.Lock()
	o.tr.skipped[o.node] += n
	o.tr.mu.Unlock()
}

// index groups the recorded spans by op.
func (tr *tracer) index() map[uint64][]*span {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	out := map[uint64][]*span{}
	for _, s := range tr.spans {
		out[s.op] = append(out[s.op], s)
	}
	return out
}

// find returns op's span at layer on route, or nil.
func find(spans []*span, layer, route string) *span {
	for _, s := range spans {
		if s.layer == layer && s.route == route {
			return s
		}
	}
	return nil
}

// findNode returns op's node-side span on route, or nil.
func findNode(spans []*span, route string) *span {
	for _, s := range spans {
		if s.layer != gatewayLayer && s.route == route {
			return s
		}
	}
	return nil
}

// solve is one pipeline run on a node: its stage events in order.
type solve struct {
	node   string
	stages []stageEvent
}

func (s solve) begin() time.Time  { return s.stages[0].end.Add(-s.stages[0].dur) }
func (s solve) finish() time.Time { return s.stages[len(s.stages)-1].end }

func (s solve) total() time.Duration {
	var d time.Duration
	for _, e := range s.stages {
		d += e.dur
	}
	return d
}

// solves splits each node's stage events into pipeline runs (a run starts
// at channel estimation; each node has one solve worker, so runs do not
// interleave).
func (tr *tracer) solves() []solve {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var out []solve
	for node, evs := range tr.stages {
		cur := -1
		for _, e := range evs {
			if e.stage == core.StageChannelEstimation || cur < 0 {
				out = append(out, solve{node: node})
				cur = len(out) - 1
			}
			out[cur].stages = append(out[cur].stages, e)
		}
	}
	return out
}

// solveFor returns the solve on node that began within the job's
// [started, finished] window (millisecond job timestamps).
func solveFor(solves []solve, node string, startedMS, finishedMS int64) (solve, bool) {
	lo := time.UnixMilli(startedMS - 1)
	hi := time.UnixMilli(finishedMS + 1)
	for _, s := range solves {
		if s.node == node && !s.begin().Before(lo) && !s.begin().After(hi) {
			return s, true
		}
	}
	return solve{}, false
}

func (tr *tracer) skippedStops() int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	n := 0
	for _, v := range tr.skipped {
		n += v
	}
	return n
}

// dump writes the recorded spans and stage events as JSON lines.
func (tr *tracer) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	tr.mu.Lock()
	for _, s := range tr.spans {
		s.mu.Lock()
		rec := map[string]any{
			"op": s.op, "layer": s.layer, "route": s.route,
			"startUnixNs": s.start.UnixNano(), "endUnixNs": s.end.UnixNano(),
			"inBytes": s.in, "outBytes": s.out,
			"reads": len(s.reads), "flushes": len(s.flushes),
		}
		s.mu.Unlock()
		if err = enc.Encode(rec); err != nil {
			break
		}
	}
	for node, evs := range tr.stages {
		for _, e := range evs {
			if err != nil {
				break
			}
			err = enc.Encode(map[string]any{
				"node": node, "stage": e.stage, "durNs": int64(e.dur),
				"endUnixNs": e.end.UnixNano(), "failed": e.err,
			})
		}
	}
	tr.mu.Unlock()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
