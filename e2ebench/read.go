package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/service"
)

const (
	// readConns bounds the open loop's concurrent connections.
	readConns = 2
	// readRate is the fixed arrival rate, reads per second: about half
	// the rate at which two CPUs saturate on gateway profile reads.
	readRate = 5.0
	// zipfS skews the key draw: a few hot users, a long cold tail.
	zipfS = 1.1
	// maxReads bounds the pre-drawn key sequence; its first readWarmKeys
	// keys warm the LRUs before timing.
	maxReads     = 20000
	readWarmKeys = 500
)

// readWorkload: GET /v1/profiles/{user} on a fixed schedule, keys drawn
// from a Zipf distribution over the seeded population. Open loop: app
// starts come from independent users, so each read is timed from when it
// was due.
type readWorkload struct {
	seq   []string // the key sequence
	jobID map[string]string
	used  atomic.Int64
}

type readOp struct {
	op   uint64
	user string
	due  time.Time
	sent time.Time
	end  time.Time
	err  error
}

func (w *readWorkload) prepare(rng *rand.Rand, fx *fixture, _ time.Duration) error {
	w.jobID = map[string]string{}
	for i, u := range fx.users {
		w.jobID[u] = fx.seededProfile(u, i).JobID
	}
	z := rand.NewZipf(rng, zipfS, 1, uint64(len(fx.users)-1))
	perm := rng.Perm(len(fx.users))
	w.seq = make([]string, maxReads)
	for i := range w.seq {
		w.seq[i] = fx.users[perm[z.Uint64()]]
	}
	w.used.Store(readWarmKeys)
	return nil
}

func (w *readWorkload) keys() []string { return w.seq[readWarmKeys:w.used.Load()] }

// warmKeys is the head of the workload's own key sequence: it leaves the
// LRUs holding the hot keys, as steady traffic does.
func (w *readWorkload) warmKeys(*fixture) []string { return w.seq[:readWarmKeys] }

func (w *readWorkload) run(t *topology, fx *fixture, tr *tracer, window time.Duration) (*outcome, error) {
	type body struct {
		o    *readOp
		data []byte
	}
	var (
		ops    []*readOp
		mu     sync.Mutex
		next   atomic.Int64
		wg     sync.WaitGroup
		checks = make(chan body, 8) // a few bodies in flight to the checker
		done   = make(chan struct{})
	)
	base := w.used.Load()
	start := time.Now().Add(10 * time.Millisecond)
	deadline := start.Add(window)
	cpu0 := cpuTime()
	// The checker decodes and verifies bodies off the connections' path.
	go func() {
		defer close(done)
		for b := range checks {
			var p service.StoredProfile
			if err := json.Unmarshal(b.data, &p); err != nil {
				b.o.err = fmt.Errorf("decode: %w", err)
				continue
			}
			b.o.err = checkSeeded(&p, b.o.user, w.jobID[b.o.user], fx.baseHash[fx.userBase[b.o.user]])
		}
	}()
	for c := 0; c < readConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				due := start.Add(time.Duration(float64(i) / readRate * float64(time.Second)))
				if base+i >= maxReads || !due.Before(deadline) {
					return
				}
				o := &readOp{op: tr.newOp(), user: w.seq[base+i], due: due}
				mu.Lock()
				ops = append(ops, o)
				mu.Unlock()
				sleepUntil(due)
				o.sent = time.Now()
				ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
				data, err := getJSON(ctx, t, "/v1/profiles/"+o.user, o.op, nil)
				cancel()
				o.end = time.Now()
				if err != nil {
					o.err = err
					continue
				}
				checks <- body{o, data}
			}
		}()
	}
	wg.Wait()
	close(checks)
	<-done
	cpu := cpuTime() - cpu0
	w.used.Add(int64(len(ops)))

	out := &outcome{attempted: len(ops), named: map[string]metric{}}
	var lat, lags []float64
	for _, o := range ops {
		if o.err != nil {
			out.fail("read %s: %v", o.user, o.err)
			continue
		}
		lat = append(lat, ms(o.end.Sub(o.due)))
		lags = append(lags, ms(o.sent.Sub(o.due)))
	}
	if len(lat) == 0 {
		return out, nil
	}
	out.ops = float64(len(lat))
	out.p50 = median(lat)
	out.p75 = percentile(lat, 0.75)
	out.cpuPerOp = ms(cpu) / float64(len(lat))
	out.named["read_p50_ms"] = metric{out.p50, "ms"}
	out.named["read_p90_ms"] = metric{percentile(lat, 0.9), "ms"}
	out.named["read_p99_ms"] = metric{percentile(lat, 0.99), "ms"}
	out.named["read_cpu_ms"] = metric{out.cpuPerOp, "ms"}
	out.named["error_ratio"] = metric{float64(out.failed) / float64(out.attempted), "ratio"}
	out.named["reads"] = metric{float64(len(lat)), "count"}
	out.named["gen.lag_p99_ms"] = metric{percentile(lags, 0.99), "ms"}
	if tr != nil && tr.on.Load() {
		out.layers = readLayers(ops, tr)
		out.layers["gen.lag_p99_ms"] = percentile(lags, 0.99)
	}
	return out, nil
}

// readLayers splits each traced read into gateway relay and node handler.
func readLayers(ops []*readOp, tr *tracer) map[string]float64 {
	idx := tr.index()
	var relay, handler, size, relayed []float64
	for _, o := range ops {
		spans := idx[o.op]
		if o.err != nil || o.op == 0 {
			continue
		}
		g, n := find(spans, gatewayLayer, "profile"), findNode(spans, "profile")
		if g == nil || n == nil {
			continue
		}
		relay = append(relay, ms(g.dur()-n.dur()))
		handler = append(handler, ms(n.dur()))
		size = append(size, float64(n.out))
		relayed = append(relayed, float64(g.in+g.out))
	}
	layers := map[string]float64{}
	if len(relay) == 0 {
		return layers
	}
	layers["cluster.read_relay_ms"] = median(relay)
	layers["cluster.bytes_relayed_per_op"] = mean(relayed)
	layers["service.profile_handler_ms"] = median(handler)
	layers["service.profile_bytes"] = median(size)
	return layers
}
