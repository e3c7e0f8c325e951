package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/hrtf"
	"repro/internal/prior"
	"repro/internal/segstore"
	"repro/internal/service"
	"repro/internal/sim"
)

const (
	// nodeNames are the uniqd nodes behind the gateway: one solve worker
	// each, so total solve workers equal a 2-CPU machine's core count.
	nodeA, nodeB = "n1", "n2"
	// seedBases is the number of real solves behind the seeded population.
	seedBases = 3
	// readPopulation is the profile-read workload's seeded population
	// across both nodes: about 384 per node, three times each node's
	// 128-entry LRU. A default-resolution profile is ~0.9 MB on disk.
	readPopulation = 768
	// smallPopulation seeds the enroll and stream workloads: enough to warm
	// the prior, and small enough that the prior refit each node runs after
	// every 16 enrolments costs about one solve, not several.
	smallPopulation = 128
	// priorBands mirrors the service's spectral-signature band count.
	priorBands = 8
	// cacheSize is uniqd's default LRU size.
	cacheSize = 128
	// setupReps is how often set-up is repeated per run (setup_s is their
	// median; the last topology serves the workload).
	setupReps = 3
)

var nodeNames = []string{nodeA, nodeB}

// volunteer is one simulated participant with its measurement session.
type volunteer struct {
	vol sim.Volunteer
	in  core.SessionInput
}

// simulate runs the default 37-stop, good-gesture session for v.
func simulate(v sim.Volunteer) (core.SessionInput, error) {
	s, err := sim.RunSession(v, sim.SessionConfig{})
	if err != nil {
		return core.SessionInput{}, err
	}
	in := core.SessionInput{
		Probe:      s.Probe,
		SampleRate: s.SampleRate,
		IMU:        s.IMU,
		SystemIR:   s.SystemIR,
		SyncOffset: s.SyncOffset,
	}
	for _, m := range s.Measurements {
		in.Stops = append(in.Stops, core.StopRecording{Time: m.Time, Left: m.Rec.Left, Right: m.Rec.Right})
	}
	return in, nil
}

// simulateAll simulates the volunteers two at a time.
func simulateAll(vols []sim.Volunteer) ([]volunteer, error) {
	out := make([]volunteer, len(vols))
	errs := make([]error, len(vols))
	sem := make(chan struct{}, 2)
	var wg sync.WaitGroup
	for i, v := range vols {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			in, err := simulate(v)
			out[i], errs[i] = volunteer{vol: v, in: in}, err
		}()
	}
	wg.Wait()
	return out, errors.Join(errs...)
}

// drawVolunteers picks n distinct volunteers from rng.
func drawVolunteers(rng *rand.Rand, n int) []sim.Volunteer {
	seed := rng.Int63()
	seen := map[int]bool{}
	var out []sim.Volunteer
	for len(out) < n {
		id := 1 + rng.Intn(10000)
		if seen[id] {
			continue
		}
		seen[id] = true
		out = append(out, sim.NewVolunteer(id, seed))
	}
	return out
}

// gestureGate is a pipeline observer that records whether a solve passed
// the gesture check and then cancels the solve, so screening a sweep costs
// channel estimation and fusion only.
type gestureGate struct {
	cancel context.CancelFunc
	ok     bool
}

func (g *gestureGate) StageDone(stage string, _ time.Duration, err error) {
	if stage == core.StageGestureCheck && err == nil {
		g.ok = true
		g.cancel()
	}
}

func (g *gestureGate) SkippedStops(int) {}

// screenLimits are stricter than the service's gesture limits (10 deg
// residual, 25% close stops), so a sweep that passes them also passes
// the service's check when the prior's warm start moves the fit a little.
var screenLimits = core.GestureLimits{MaxResidualDeg: 8, MaxCloseFraction: 0.2}

// screenedVolunteers draws n volunteers whose simulated sweeps pass the
// gesture check with margin. A real phone redoes a rejected sweep; the
// benchmark draws another volunteer instead, so every enrolment it times
// is one the service accepts.
func screenedVolunteers(rng *rand.Rand, n int) ([]volunteer, error) {
	var out []volunteer
	for tries := 0; len(out) < n; tries++ {
		if tries > 8 {
			return nil, fmt.Errorf("only %d of %d drawn volunteers passed the gesture check", len(out), n)
		}
		vols, err := simulateAll(drawVolunteers(rng, n-len(out)))
		if err != nil {
			return nil, err
		}
		for _, v := range vols {
			ctx, cancel := context.WithCancel(context.Background())
			gate := &gestureGate{cancel: cancel}
			_, _ = core.PersonalizeContext(ctx, v.in, core.PipelineOptions{Gesture: screenLimits, Observer: gate})
			cancel()
			if gate.ok {
				out = append(out, v)
			}
		}
	}
	return out, nil
}

// tableHash fingerprints every float of a table (geometry and both ears
// of every near- and far-field HRIR).
func tableHash(t *hrtf.Table) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(x float64) {
		u := math.Float64bits(x)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	put(t.SampleRate)
	put(t.AngleStep)
	put(t.MinAngle)
	for _, set := range [][]hrtf.HRIR{t.Near, t.Far} {
		put(float64(len(set)))
		for _, ir := range set {
			put(float64(len(ir.Left)))
			for _, x := range ir.Left {
				put(x)
			}
			put(float64(len(ir.Right)))
			for _, x := range ir.Right {
				put(x)
			}
		}
	}
	return h.Sum64()
}

// fixture is everything a run generates before set-up: the solved base
// profiles and the seeded population written into each owner's store.
type fixture struct {
	bases    []*service.StoredProfile
	baseHash []uint64
	users    []string       // the population, in seeded order
	userBase map[string]int // user -> index into bases
	owner    map[string]string
	template string // directory holding one seeded store per node
	// probeSeed seeds the traced run's population sweep of the stores.
	probeSeed int64
}

// seededProfile is the population entry stored for user.
func (fx *fixture) seededProfile(user string, i int) *service.StoredProfile {
	p := *fx.bases[fx.userBase[user]]
	p.User = user
	p.JobID = fmt.Sprintf("seed-%d", i)
	return &p
}

// buildFixture solves seedBases real sessions and writes a population of
// n users into per-node segment stores under dir/template, each user on
// the node cluster.Ring assigns it. Each store also gets the population
// prior a running node persists after fitting it over its profiles, so
// set-up loads the prior as a restarted uniqd does.
func buildFixture(rng *rand.Rand, dir string, n int) (*fixture, error) {
	vols, err := screenedVolunteers(rng, seedBases)
	if err != nil {
		return nil, fmt.Errorf("seed sessions: %w", err)
	}
	fx := &fixture{
		userBase:  map[string]int{},
		owner:     map[string]string{},
		template:  filepath.Join(dir, "template"),
		probeSeed: rng.Int63(),
	}
	for i, v := range vols {
		res, err := core.PersonalizeContext(context.Background(), v.in, core.PipelineOptions{})
		if err != nil {
			return nil, fmt.Errorf("solve seed session %d: %w", i, err)
		}
		p := &service.StoredProfile{
			CreatedUnixMS:   time.Now().UnixMilli(),
			HeadParams:      res.HeadParams,
			MeanResidualDeg: res.MeanResidualDeg,
			GestureOK:       res.Gesture.OK,
			GestureReason:   res.Gesture.Reason,
			SkippedStops:    res.SkippedStops,
			Table:           res.Table,
		}
		fx.bases = append(fx.bases, p)
		fx.baseHash = append(fx.baseHash, tableHash(p.Table))
	}
	ring := cluster.NewRing(0)
	for _, n := range nodeNames {
		if err := ring.Add(n); err != nil {
			return nil, err
		}
	}
	signatures := make([][]float64, len(fx.bases))
	for i, p := range fx.bases {
		signatures[i] = prior.SpectralSignature(p.Table, priorBands)
	}
	byNode := map[string][]*service.StoredProfile{}
	samples := map[string][]prior.Sample{}
	seen := map[string]bool{}
	for len(fx.users) < n {
		u := fmt.Sprintf("p%012x", rng.Int63()&(1<<48-1))
		if seen[u] {
			continue
		}
		seen[u] = true
		i := len(fx.users)
		fx.users = append(fx.users, u)
		fx.userBase[u] = rng.Intn(len(fx.bases))
		owner := ring.Owner(u)
		fx.owner[u] = owner
		p := fx.seededProfile(u, i)
		byNode[owner] = append(byNode[owner], p)
		samples[owner] = append(samples[owner], prior.Sample{
			Params: p.HeadParams, ResidualDeg: p.MeanResidualDeg, Spectrum: signatures[fx.userBase[u]],
		})
	}
	errs := make([]error, len(nodeNames))
	var wg sync.WaitGroup
	for i, node := range nodeNames {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = seedStore(filepath.Join(fx.template, node), byNode[node], samples[node])
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return fx, nil
}

// seedStore bulk-loads profiles into a segment store in dir and persists
// the prior fitted over samples next to it.
func seedStore(dir string, profiles []*service.StoredProfile, samples []prior.Sample) error {
	st, err := segstore.Open(dir, segstore.Options{NoSync: true})
	if err != nil {
		return err
	}
	err = st.PutBatch(profiles)
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("seed store %s: %w", dir, err)
	}
	model, err := prior.Fit(samples, prior.FitOptions{})
	if err != nil {
		return fmt.Errorf("fit prior for %s: %w", dir, err)
	}
	return prior.Save(filepath.Join(dir, prior.FileName), model)
}

// benchNode is one uniqd node: a real service.Service over its own store,
// served over loopback.
type benchNode struct {
	name string
	svc  *service.Service
	srv  *httptest.Server
}

// topology is the deployed shape: two uniqd nodes behind one gateway.
type topology struct {
	nodes  []*benchNode
	gw     *cluster.Gateway
	gwSrv  *httptest.Server
	url    string       // the gateway's base URL
	client *http.Client // the load generator's client
}

func (t *topology) node(name string) *benchNode {
	for _, n := range t.nodes {
		if n.name == name {
			return n
		}
	}
	return nil
}

// close stops the gateway, the servers and the services.
func (t *topology) close() {
	if t.gwSrv != nil {
		t.gwSrv.Close()
	}
	if t.gw != nil {
		t.gw.Close()
	}
	for _, n := range t.nodes {
		n.srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		_ = n.svc.Shutdown(ctx) // drained and closed; nothing left to report
		cancel()
	}
	t.client.CloseIdleConnections()
}

// setupTiming is one set-up's timings.
type setupTiming struct {
	total     time.Duration
	nodeNew   []time.Duration // service.New per node
	gwToReady time.Duration   // NewGateway until /healthz answers healthy
}

// newClient returns the load generator's HTTP client, separate from the
// default transport the gateway uses for its backends. It tags each
// request with its operation (see withOp).
func newClient() *http.Client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = 8
	return &http.Client{Transport: traceTransport{base: tr}}
}

// startTopology brings up both nodes over the seeded stores and the
// gateway, timing from the first service.New until the gateway's /healthz
// answers healthy with both nodes available. tr is nil for an untraced
// run; otherwise every handler is wrapped and each node's pipeline reports
// to a stage observer.
func startTopology(fx *fixture, tr *tracer) (*topology, setupTiming, error) {
	runtime.GC()
	var st setupTiming
	t := &topology{client: newClient()}
	start := time.Now()
	var specs []cluster.NodeSpec
	for _, name := range nodeNames {
		cfg := service.Config{
			StoreDir:          filepath.Join(fx.template, name),
			CacheSize:         cacheSize,
			Workers:           1,
			QueueDepth:        64,
			JobTimeout:        10 * time.Minute,
			PriorEnabled:      true,
			PriorRefreshEvery: 16,
			PriorMinProfiles:  3,
		}
		if tr != nil {
			cfg.Pipeline.Observer = tr.observer(name)
		}
		t0 := time.Now()
		svc, err := service.New(cfg)
		if err != nil {
			t.close()
			return nil, st, fmt.Errorf("start node %s: %w", name, err)
		}
		st.nodeNew = append(st.nodeNew, time.Since(t0))
		var h http.Handler = svc.Handler()
		if tr != nil {
			h = tr.wrap(h, name)
		}
		n := &benchNode{name: name, svc: svc, srv: httptest.NewServer(h)}
		t.nodes = append(t.nodes, n)
		specs = append(specs, cluster.NodeSpec{Name: name, BaseURL: n.srv.URL})
	}
	t0 := time.Now()
	gcfg := cluster.GatewayConfig{Nodes: specs}
	if tr != nil {
		gcfg.HTTPClient = &http.Client{Transport: traceTransport{base: http.DefaultTransport}}
	}
	gw, err := cluster.NewGateway(gcfg)
	if err != nil {
		t.close()
		return nil, st, err
	}
	t.gw = gw
	var h http.Handler = gw.Handler()
	if tr != nil {
		h = tr.wrap(h, gatewayLayer)
	}
	t.gwSrv = httptest.NewServer(h)
	t.url = t.gwSrv.URL
	if err := waitHealthy(t.client, t.url, len(nodeNames)); err != nil {
		t.close()
		return nil, st, err
	}
	st.gwToReady = time.Since(t0)
	st.total = time.Since(start)
	return t, st, nil
}

// warmUp reads keys from their owners' stores, filling the LRUs.
func warmUp(t *topology, fx *fixture, keys []string) error {
	for _, k := range keys {
		if _, err := t.node(fx.owner[k]).svc.Store().Get(k); err != nil {
			return fmt.Errorf("warm-up read of %s: %w", k, err)
		}
	}
	return nil
}

// waitHealthy polls the gateway's /healthz until it answers 200 with want
// nodes available.
func waitHealthy(c *http.Client, url string, want int) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := c.Get(url + "/healthz")
		if err == nil {
			var body struct {
				Status    string `json:"status"`
				Available int    `json:"available"`
			}
			derr := json.NewDecoder(resp.Body).Decode(&body)
			resp.Body.Close()
			if derr == nil && resp.StatusCode == http.StatusOK && body.Available == want {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("gateway not healthy after 30s (last error: %v)", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// setUp starts the topology setupReps times over the same seeded stores
// (each start recovers what the previous clean shutdown left, which is the
// seeded state), keeps the last topology and returns every timing.
func setUp(fx *fixture, tr *tracer) (*topology, []setupTiming, error) {
	var timings []setupTiming
	for {
		t, st, err := startTopology(fx, tr)
		if err != nil {
			return nil, nil, err
		}
		timings = append(timings, st)
		if len(timings) == setupReps {
			return t, timings, nil
		}
		t.close()
	}
}
