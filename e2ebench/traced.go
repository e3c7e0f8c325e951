package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/service"
)

// perLayer names the per-layer metrics a traced run reports, with units.
var perLayer = []struct{ name, unit string }{
	{"cluster.submit_relay_ms", "ms"},
	{"cluster.poll_relay_ms", "ms"},
	{"cluster.read_relay_ms", "ms"},
	{"cluster.stream_relay_ms", "ms"},
	{"cluster.bytes_relayed_per_op", "bytes"},
	{"service.submit_handler_ms", "ms"},
	{"service.submit_bytes", "bytes"},
	{"service.queue_wait_ms", "ms"},
	{"service.polls_per_enroll", "count"},
	{"service.job_tail_ms", "ms"},
	{"service.profile_handler_ms", "ms"},
	{"service.profile_bytes", "bytes"},
	{"service.stream_frame_ms", "ms"},
	{"service.stream_overrun_samples", "count"},
	{"service.stream_underrun_samples", "count"},
	{"core.channel_estimation_ms", "ms"},
	{"core.sensor_fusion_ms", "ms"},
	{"core.gesture_check_ms", "ms"},
	{"core.nearfield_interpolation_ms", "ms"},
	{"core.farfield_synthesis_ms", "ms"},
	{"core.solve_ms", "ms"},
	{"core.skipped_stops", "count"},
	{"store.cache_hit_ratio", "ratio"},
	{"store.get_hit_us", "us"},
	{"store.get_miss_us", "us"},
	{"store.put_us", "us"},
	{"store.segments", "count"},
	{"store.dead_ratio", "ratio"},
	{"stream.render_block_us", "us"},
	{"stream.scene_block_us", "us"},
	{"stream.aoa_hop_us", "us"},
	{"stream.session_open_us", "us"},
	{"setup.node_new_ms", "ms"},
	{"setup.gateway_ready_ms", "ms"},
	{"runtime.alloc_mb_per_op", "MB"},
	{"runtime.gc_cycles_per_op", "count"},
	{"runtime.heap_peak_mb", "MB"},
	{"gen.lag_p99_ms", "ms"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.enroll_accounted_ratio", "ratio"},
	{"run.error_ratio", "ratio"},
}

// probeWindow bounds a probe workload's run; probes stop on their own
// operation count well before it.
const probeWindow = 2 * time.Minute

// heapSampler records the peak in-use heap until stopped.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			var m runtime.MemStats
			runtime.ReadMemStats(&m)
			h.peak = max(h.peak, m.HeapInuse)
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak, MiB.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20)
}

// storeCounters sums both nodes' LRU hits and misses.
func storeCounters(t *topology) (hits, misses uint64) {
	for _, n := range t.nodes {
		h, m, _, _ := n.svc.Store().Stats()
		hits += h
		misses += m
	}
	return hits, misses
}

// streamDrops sums both nodes' stream overrun and underrun totals from
// /debug/metrics.
func streamDrops(t *topology) (overrun, underrun float64, err error) {
	for _, n := range t.nodes {
		c := &service.Client{BaseURL: n.srv.URL, HTTPClient: t.client}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		m, err := c.MetricsJSON(ctx)
		cancel()
		if err != nil {
			return 0, 0, err
		}
		overrun += m["uniqd_stream_overrun_samples_total"]
		underrun += m["uniqd_stream_underrun_samples_total"]
	}
	return overrun, underrun, nil
}

// tracedRun measures the workload for half the window untraced and half
// traced (the difference is the tracing overhead), then runs the probe
// workloads for the layers the workload leaves idle, times direct store
// calls over the workload's keys, and derives every per-layer metric.
func tracedRun(w workload, probes []workload, t *topology, fx *fixture, tr *tracer, window time.Duration, dir string) (map[string]float64, map[string]any, *outcome, error) {
	half := window / 2
	a, err := w.run(t, fx, nil, half)
	if err != nil {
		return nil, nil, nil, err
	}
	h0, m0 := storeCounters(t)
	over0, under0, err := streamDrops(t)
	if err != nil {
		return nil, nil, nil, err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	heap := startHeapSampler()
	tr.on.Store(true)
	b, err := w.run(t, fx, tr, half)
	heapPeak := heap.finish()
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return nil, nil, nil, err
	}
	h1, m1 := storeCounters(t)

	layers := map[string]float64{}
	for k, v := range b.layers {
		layers[k] = v
	}
	all := &outcome{
		attempted: a.attempted + b.attempted,
		failed:    a.failed + b.failed,
		problems:  append(a.problems, b.problems...),
	}
	report := map[string]any{"untraced": a.named, "traced": b.named}
	if b.detail != nil {
		report["enroll"] = b.detail
	}
	for _, p := range probes {
		po, err := p.run(t, fx, tr, probeWindow)
		if err != nil {
			return nil, nil, nil, err
		}
		all.attempted += po.attempted
		all.failed += po.failed
		all.problems = append(all.problems, po.problems...)
		for k, v := range po.layers {
			if _, ok := layers[k]; !ok {
				layers[k] = v
			}
		}
		if po.detail != nil && b.detail == nil {
			report["enroll"] = po.detail
		}
	}
	tr.on.Store(false)
	over1, under1, err := streamDrops(t)
	if err != nil {
		return nil, nil, nil, err
	}
	layers["service.stream_overrun_samples"] = over1 - over0
	layers["service.stream_underrun_samples"] = under1 - under0
	if dh, dm := h1-h0, m1-m0; dh+dm > 0 {
		layers["store.cache_hit_ratio"] = float64(dh) / float64(dh+dm)
	}
	var segments int
	var live, dead int64
	for _, n := range t.nodes {
		st := n.svc.Store().SegStats()
		segments += st.Segments
		live += st.LiveBytes
		dead += st.DeadBytes
	}
	layers["store.segments"] = float64(segments)
	layers["store.dead_ratio"] = float64(dead) / float64(max(live+dead, 1))
	hit, miss, put := storeProbe(t, fx, w.keys())
	layers["store.get_hit_us"], layers["store.get_miss_us"], layers["store.put_us"] = hit, miss, put

	ops := max(b.ops, 1e-9)
	layers["runtime.alloc_mb_per_op"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20) / ops
	layers["runtime.gc_cycles_per_op"] = float64(ms1.NumGC-ms0.NumGC) / ops
	layers["runtime.heap_peak_mb"] = heapPeak
	if a.p50 > 0 {
		layers["trace.overhead_ratio"] = (b.p50 - a.p50) / a.p50
	}
	layers["run.error_ratio"] = float64(all.failed) / float64(max(all.attempted, 1))
	report["overhead"] = map[string]float64{
		"untracedP50Ms": a.p50, "tracedP50Ms": b.p50,
		"untracedP75Ms": a.p75, "tracedP75Ms": b.p75,
		"untracedCpuMsPerOp": a.cpuPerOp, "tracedCpuMsPerOp": b.cpuPerOp,
	}
	if err := tr.dump(traceFile(dir)); err != nil {
		return nil, nil, nil, fmt.Errorf("write spans: %w", err)
	}
	report["spans"] = traceFile(dir)
	return layers, report, all, nil
}

// storeProbe times direct Store.Get calls on each key's owner over the
// workload's key sequence followed by a seeded sweep of the population
// (which misses the LRU), classifying each by the store's hit/miss
// counters, and Store.Put calls rewriting the first keys' profiles. It
// returns the median hit, miss and put times, µs.
func storeProbe(t *topology, fx *fixture, keys []string) (hit, miss, put float64) {
	const maxKeys, maxPuts = 200, 40
	keys = append([]string(nil), keys[:min(len(keys), maxKeys)]...)
	rng := rand.New(rand.NewSource(fx.probeSeed))
	for i := 0; i < maxKeys; i++ {
		keys = append(keys, fx.users[rng.Intn(len(fx.users))])
	}
	ring := t.gw.Registry().Ring()
	var hits, misses, puts []float64
	for i, k := range keys {
		st := t.node(ring.Owner(k)).svc.Store()
		h0, m0, _, _ := st.Stats()
		t0 := time.Now()
		p, err := st.Get(k)
		d := time.Since(t0)
		if err != nil {
			continue
		}
		h1, m1, _, _ := st.Stats()
		switch {
		case m1 > m0 && h1 == h0:
			misses = append(misses, us(d))
		case h1 > h0 && m1 == m0:
			hits = append(hits, us(d))
		}
		if i < maxPuts {
			t0 := time.Now()
			if err := st.Put(p); err == nil {
				puts = append(puts, us(time.Since(t0)))
			}
		}
	}
	return median(hits), median(misses), median(puts)
}
