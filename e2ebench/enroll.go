package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/service"
)

const (
	// enrollClients is the closed loop's client count (one per CPU).
	enrollClients = 2
	// enrollPool is how many distinct volunteers' sessions are
	// pre-encoded; each request draws one and a fresh user name. Solve
	// time varies by volunteer, so a larger pool steadies the figures.
	enrollPool = 12
	// pollEvery is the job-status polling period (service.Client's
	// WaitJob default).
	pollEvery = 100 * time.Millisecond
)

// enrollWorkload: each client POSTs a pre-encoded 37-stop session, polls
// the job until it is done, then GETs the profile. Closed loop: each phone
// waits for its own reply.
type enrollWorkload struct {
	probe  bool
	vols   []volunteer
	inputs [][]byte // JSON-encoded core.SessionInput per volunteer

	mu    sync.Mutex
	seq   *rand.Rand
	users []string
}

// enrollOp is one enrolment as the client saw it.
type enrollOp struct {
	op     uint64
	user   string
	vol    int
	lag    time.Duration // the client's own gap before sending (checking the last profile)
	t0     time.Time     // POST sent
	ack    time.Time     // submit acknowledged
	done   time.Time     // the poll that saw the job done returned
	end    time.Time     // profile body fully read
	polls  int
	status service.JobStatus
	node   string
	err    error
}

func (w *enrollWorkload) prepare(rng *rand.Rand, fx *fixture, _ time.Duration) error {
	n := enrollPool
	if w.probe {
		n = 1
	}
	vols, err := screenedVolunteers(rng, n)
	if err != nil {
		return fmt.Errorf("enrol sessions: %w", err)
	}
	w.vols = vols
	for _, v := range vols {
		b, err := json.Marshal(v.in)
		if err != nil {
			return err
		}
		w.inputs = append(w.inputs, b)
	}
	w.seq = rand.New(rand.NewSource(rng.Int63()))
	return nil
}

// warmKeys caches the whole (small) population, as the prior refits that
// follow every 16 enrolments on a node do.
func (w *enrollWorkload) warmKeys(fx *fixture) []string { return fx.users }

func (w *enrollWorkload) keys() []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]string(nil), w.users...)
}

// next draws the next request's volunteer and fresh user name.
func (w *enrollWorkload) next() *enrollOp {
	w.mu.Lock()
	defer w.mu.Unlock()
	o := &enrollOp{vol: w.seq.Intn(len(w.vols)), user: fmt.Sprintf("e%012x", w.seq.Int63()&(1<<48-1))}
	w.users = append(w.users, o.user)
	return o
}

// getJSON GETs path from the gateway, tagged with op, and decodes a 200
// answer into out; it returns the raw body.
func getJSON(ctx context.Context, t *topology, path string, op uint64, out any) ([]byte, error) {
	req, err := http.NewRequestWithContext(withOp(ctx, op), http.MethodGet, t.url+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := t.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %d %s", path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return nil, fmt.Errorf("GET %s: decode: %w", path, err)
		}
	}
	return data, nil
}

// enroll runs one enrolment and checks the resulting profile.
func (w *enrollWorkload) enroll(t *topology, o *enrollOp) error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	in := w.inputs[o.vol]
	prefix := `{"user":"` + o.user + `","input":`
	body := io.MultiReader(strings.NewReader(prefix), bytes.NewReader(in), strings.NewReader("}"))
	req, err := http.NewRequestWithContext(withOp(ctx, o.op), http.MethodPost, t.url+"/v1/sessions", body)
	if err != nil {
		return err
	}
	req.ContentLength = int64(len(prefix) + len(in) + 1)
	req.Header.Set("Content-Type", "application/json")
	o.t0 = time.Now()
	resp, err := t.client.Do(req)
	if err != nil {
		return err
	}
	var sub service.SubmitResponse
	derr := json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("submit answered %d", resp.StatusCode)
	}
	if derr != nil {
		return fmt.Errorf("submit: decode: %w", derr)
	}
	o.ack = time.Now()
	if at := strings.LastIndex(sub.JobID, "@"); at >= 0 {
		o.node = sub.JobID[at+1:]
	}
	for {
		var st service.JobStatus
		if _, err := getJSON(ctx, t, "/v1/jobs/"+sub.JobID, o.op, &st); err != nil {
			return err
		}
		o.polls++
		if st.State.Terminal() {
			o.done = time.Now()
			o.status = st
			break
		}
		time.Sleep(pollEvery)
	}
	if o.status.State != service.JobDone {
		return fmt.Errorf("job %s ended %s: %s", sub.JobID, o.status.State, o.status.Error)
	}
	data, err := getJSON(ctx, t, "/v1/profiles/"+o.user, o.op, nil)
	if err != nil {
		return err
	}
	o.end = time.Now()
	var p service.StoredProfile
	if err := json.Unmarshal(data, &p); err != nil {
		return fmt.Errorf("profile %q: decode: %w", o.user, err)
	}
	return checkEnrolled(&p, o.user, w.vols[o.vol].vol.Head)
}

func (w *enrollWorkload) run(t *topology, fx *fixture, tr *tracer, window time.Duration) (*outcome, error) {
	clients, maxOps := enrollClients, 0
	if w.probe {
		clients, maxOps = 1, 1
	}
	var (
		mu  sync.Mutex
		ops []*enrollOp
		wg  sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(window)
	cpu0 := cpuTime()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := time.Time{}
			for time.Now().Before(deadline) {
				mu.Lock()
				full := maxOps > 0 && len(ops) >= maxOps
				mu.Unlock()
				if full {
					return
				}
				o := w.next()
				o.op = tr.newOp()
				if !last.IsZero() {
					o.lag = time.Since(last)
				}
				o.err = w.enroll(t, o)
				last = o.end
				mu.Lock()
				ops = append(ops, o)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	cpu := cpuTime() - cpu0

	out := &outcome{attempted: len(ops), named: map[string]metric{}}
	var lat, lags []float64
	for _, o := range ops {
		if o.err != nil {
			out.fail("enrol %s: %v", o.user, o.err)
			continue
		}
		lat = append(lat, o.end.Sub(o.t0).Seconds())
		if o.lag > 0 {
			lags = append(lags, ms(o.lag))
		}
	}
	if len(lat) == 0 {
		return out, nil
	}
	out.ops = float64(len(lat))
	out.p50 = 1000 * median(lat)
	out.p75 = 1000 * percentile(lat, 0.75)
	out.cpuPerOp = ms(cpu) / float64(len(lat))
	out.named["enroll_p50_s"] = metric{median(lat), "s"}
	out.named["enroll_p90_s"] = metric{percentile(lat, 0.9), "s"}
	out.named["enroll_per_s"] = metric{float64(len(lat)) / elapsed.Seconds(), "1/s"}
	out.named["enroll_cpu_s"] = metric{cpu.Seconds() / float64(len(lat)), "s"}
	out.named["error_ratio"] = metric{float64(out.failed) / float64(out.attempted), "ratio"}
	out.named["enrolments"] = metric{float64(len(lat)), "count"}
	if tr != nil && tr.on.Load() {
		out.layers, out.detail = enrollLayers(ops, tr)
		out.layers["gen.lag_p99_ms"] = percentile(lags, 0.99)
	}
	return out, nil
}

// enrollLayers attributes each traced enrolment's latency to the layers
// on its blocking path: gateway relay and node handler for the submit,
// queue wait, the five core stages, the job tail (store Put and
// bookkeeping), polling slack and the profile GET.
func enrollLayers(ops []*enrollOp, tr *tracer) (map[string]float64, map[string]any) {
	idx := tr.index()
	solves := tr.solves()
	var (
		submitRelay, pollRelay, readRelay          []float64
		submitHandler, submitBytes, profileHandler []float64
		profileBytes, relayed, queueWait, wasted   []float64
		jobTail, solveMS, slack, getMS, accounted  []float64
		submitMS                                   []float64
		stageMS                                    = map[string][]float64{}
	)
	for _, o := range ops {
		spans := idx[o.op]
		if o.err != nil || o.op == 0 || len(spans) == 0 {
			continue
		}
		gs, ns := find(spans, gatewayLayer, "submit"), findNode(spans, "submit")
		gp, np := find(spans, gatewayLayer, "profile"), findNode(spans, "profile")
		if gs == nil || ns == nil || gp == nil || np == nil {
			continue
		}
		submitRelay = append(submitRelay, ms(gs.dur()-ns.dur()))
		submitHandler = append(submitHandler, ms(ns.dur()))
		submitBytes = append(submitBytes, float64(ns.in))
		readRelay = append(readRelay, ms(gp.dur()-np.dur()))
		profileHandler = append(profileHandler, ms(np.dur()))
		profileBytes = append(profileBytes, float64(np.out))
		var gwJobs, nodeJobs []*span
		var bytes int64
		for _, s := range spans {
			if s.layer == gatewayLayer {
				bytes += s.in + s.out
				if s.route == "job" {
					gwJobs = append(gwJobs, s)
				}
			} else if s.route == "job" {
				nodeJobs = append(nodeJobs, s)
			}
		}
		relayed = append(relayed, float64(bytes))
		for _, g := range gwJobs {
			for _, n := range nodeJobs {
				if !n.start.Before(g.start) && !n.end.After(g.end) {
					pollRelay = append(pollRelay, ms(g.dur()-n.dur()))
					break
				}
			}
		}
		wasted = append(wasted, float64(o.polls-1))
		st := o.status
		qw := float64(st.StartedUnixMS - st.SubmittedUnixMS)
		queueWait = append(queueWait, qw)
		sv, ok := solveFor(solves, o.node, st.StartedUnixMS, st.FinishedUnixMS)
		if !ok {
			continue
		}
		for _, e := range sv.stages {
			stageMS[e.stage] = append(stageMS[e.stage], ms(e.dur))
		}
		finished := time.UnixMilli(st.FinishedUnixMS)
		tail := ms(finished.Sub(sv.finish()))
		jobTail = append(jobTail, tail)
		solveMS = append(solveMS, ms(sv.total()))
		slack = append(slack, ms(o.done.Sub(finished)))
		getMS = append(getMS, ms(o.end.Sub(o.done)))
		submitMS = append(submitMS, ms(o.ack.Sub(o.t0)))
		sum := ms(o.ack.Sub(o.t0)) + qw + ms(sv.total()) + tail + ms(o.done.Sub(finished)) + ms(o.end.Sub(o.done))
		accounted = append(accounted, sum/ms(o.end.Sub(o.t0)))
	}
	layers := map[string]float64{}
	if len(submitRelay) == 0 {
		return layers, nil
	}
	layers["cluster.submit_relay_ms"] = median(submitRelay)
	layers["cluster.poll_relay_ms"] = median(pollRelay)
	layers["cluster.read_relay_ms"] = median(readRelay)
	layers["cluster.bytes_relayed_per_op"] = mean(relayed)
	layers["service.submit_handler_ms"] = median(submitHandler)
	layers["service.submit_bytes"] = median(submitBytes)
	layers["service.queue_wait_ms"] = mean(queueWait)
	layers["service.polls_per_enroll"] = mean(wasted)
	layers["service.profile_handler_ms"] = median(profileHandler)
	layers["service.profile_bytes"] = median(profileBytes)
	detail := map[string]any{}
	if len(solveMS) > 0 {
		layers["service.job_tail_ms"] = median(jobTail)
		layers["core.solve_ms"] = median(solveMS)
		layers["core.skipped_stops"] = float64(tr.skippedStops())
		shares := map[string]float64{}
		for _, stage := range coreStages {
			layers["core."+stage+"_ms"] = median(stageMS[stage])
			shares[stage] = mean(stageMS[stage]) / mean(solveMS)
		}
		layers["trace.enroll_accounted_ratio"] = median(accounted)
		detail["coreStageShares"] = shares
		detail["blockingPathMedianMs"] = map[string]float64{
			"submit (client->gateway->node ack)": median(submitMS),
			"  of which gateway relay":           median(submitRelay),
			"  of which node submit handler":     median(submitHandler),
			"queue wait":                         median(queueWait),
			"core solve":                         median(solveMS),
			"job tail":                           median(jobTail),
			"polling slack":                      median(slack),
			"profile GET":                        median(getMS),
		}
		detail["accountedRatioMedian"] = median(accounted)
		detail["accountedMargin"] = accountedMargin
		detail["tracedEnrolments"] = len(solveMS)
	}
	return layers, detail
}

// accountedMargin is how far the blocking-path sum may sit from an
// enrolment's latency (as a share) for the trace to count as explaining
// it.
const accountedMargin = 0.05

// coreStages are the pipeline stages in execution order.
var coreStages = []string{
	core.StageChannelEstimation,
	core.StageSensorFusion,
	core.StageGestureCheck,
	core.StageNearField,
	core.StageFarField,
}
