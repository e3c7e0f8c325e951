// Command e2ebench is UNIQ's end-to-end benchmark. One process stands up
// the deployed topology — two uniqd nodes (service.New over real segment
// stores, uniqd's defaults, one solve worker each) behind one uniqgw
// gateway (cluster.Gateway), all served over loopback — and drives one
// seeded workload through the gateway:
//
//	enroll        closed loop, 2 clients: submit a 37-stop session, poll, fetch the profile
//	profile-read  open loop, fixed rate: Zipf-keyed profile GETs over a population 4x each LRU
//	stream        open loop on the audio clock: render, scene and AoA stream sessions
//
// Usage (from the repository root):
//
//	bash e2ebench/run.sh --workload enroll --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the last line of standard output is one JSON object with
// the end-to-end metrics; with --trace 1 it carries the per-layer metrics
// of a traced run instead. The line before it reports provenance and the
// workload's own metrics by name. See README.md for every metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/buildinfo"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what one workload run measured.
type outcome struct {
	attempted int
	failed    int // errors, refusals and failed correctness checks
	problems  []string
	// p50 and p75 are the workload's operation latency median and upper
	// quartile, ms; cpuPerOp is process CPU per operation, ms.
	p50, p75, cpuPerOp float64
	// named holds the workload's metrics under their own names.
	named map[string]metric
	// ops is the work done, in the workload's unit (enrolments, reads or
	// audio seconds), for per-operation runtime figures.
	ops float64
	// layers holds the per-layer metrics the run measured (traced only)
	// and detail any breakdown worth reporting alongside them.
	layers map[string]float64
	detail map[string]any
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.problems) < 8 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// workload is one seeded traffic mix.
type workload interface {
	// prepare generates and pre-encodes every input before set-up.
	// window is the longest run it must supply inputs for.
	prepare(rng *rand.Rand, fx *fixture, window time.Duration) error
	// run drives the topology for window; with tr on it also derives the
	// per-layer metrics from the spans of its own operations.
	run(t *topology, fx *fixture, tr *tracer, window time.Duration) (*outcome, error)
	// keys is the profile key sequence the run used, for the store probe.
	keys() []string
	// warmKeys are read from their owners' stores before timing, so the
	// run starts with the LRUs holding what steady traffic leaves there.
	warmKeys(fx *fixture) []string
}

// newWorkload returns the named workload. probe selects the small
// fixed-size variant of enroll or stream a traced run uses to measure
// layers its workload leaves idle.
func newWorkload(name string, probe bool) (workload, error) {
	switch name {
	case "enroll":
		return &enrollWorkload{probe: probe}, nil
	case "profile-read":
		return &readWorkload{}, nil
	case "stream":
		return &streamWorkload{probe: probe}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want enroll, profile-read or stream)", name)
}

// endToEnd names the end-to-end metrics and their units.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"p75_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MB"},
}

func main() {
	os.Exit(run())
}

func run() int {
	workloadName := flag.String("workload", "", "enroll, profile-read or stream")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 20, "measured run length, seconds")
	trace := flag.Int("trace", 0, "1 runs traced and reports per-layer metrics")
	flag.Parse()
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "e2ebench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	res, report, err := benchmark(".bench_build", *workloadName, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(report); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	return 0
}

// provenance identifies the machine and build next to the numbers.
func provenance(workload string, seed int64, window time.Duration, traced bool) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"workload":   workload,
		"seed":       seed,
		"runSeconds": window.Seconds(),
		"traced":     traced,
		"numCPU":     runtime.NumCPU(),
		"goMaxProcs": runtime.GOMAXPROCS(0),
		"goVersion":  runtime.Version(),
		"commit":     commit,
		"version":    buildinfo.Version(),
	}
}

// benchmark runs one workload end to end, keeping its stores and spans
// under scratch, and returns the result line and the report line.
func benchmark(scratch, name string, seed int64, window time.Duration, traced bool) (*result, map[string]any, error) {
	w, err := newWorkload(name, false)
	if err != nil {
		return nil, nil, err
	}
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, nil, err
	}
	dir, err := os.MkdirTemp(scratch, "run-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)

	rng := rand.New(rand.NewSource(seed))
	n := smallPopulation
	if name == "profile-read" {
		n = readPopulation
	}
	fx, err := buildFixture(rng, dir, n)
	if err != nil {
		return nil, nil, err
	}
	if err := w.prepare(rng, fx, window); err != nil {
		return nil, nil, err
	}
	var probes []workload
	if traced {
		for _, p := range probeSet(name) {
			pw, _ := newWorkload(p, true)
			if err := pw.prepare(rng, fx, probeWindow); err != nil {
				return nil, nil, err
			}
			probes = append(probes, pw)
		}
	}
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	topo, timings, err := setUp(fx, tr)
	if err != nil {
		return nil, nil, err
	}
	defer topo.close()
	if err := warmUp(topo, fx, w.warmKeys(fx)); err != nil {
		return nil, nil, err
	}

	report := map[string]any{"provenance": provenance(name, seed, window, traced)}
	var setups, nodeNew, gwReady []float64
	for _, st := range timings {
		setups = append(setups, st.total.Seconds())
		gwReady = append(gwReady, ms(st.gwToReady))
		for _, d := range st.nodeNew {
			nodeNew = append(nodeNew, ms(d))
		}
	}
	res := &result{Metrics: map[string]metric{}}
	var out *outcome
	if !traced {
		if out, err = w.run(topo, fx, nil, window); err != nil {
			return nil, nil, err
		}
		values := map[string]float64{
			"setup_s":       median(setups),
			"p50_ms":        out.p50,
			"p75_ms":        out.p75,
			"cpu_ms_per_op": out.cpuPerOp,
			"peak_rss_mb":   peakRSSMB(),
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{values[m.name], m.unit}
		}
		report["metrics"] = out.named
	} else {
		layers, traceReport, o, err := tracedRun(w, probes, topo, fx, tr, window, dir)
		if err != nil {
			return nil, nil, err
		}
		out = o
		layers["setup.node_new_ms"] = median(nodeNew)
		layers["setup.gateway_ready_ms"] = median(gwReady)
		for _, name := range perLayer {
			v, ok := layers[name.name]
			if !ok {
				return nil, nil, fmt.Errorf("traced run measured no value for %s", name.name)
			}
			res.Metrics[name.name] = metric{v, name.unit}
		}
		report["trace"] = traceReport
	}
	res.Attempted, res.Failed = out.attempted, out.failed
	res.Correct = out.failed == 0 && out.attempted > 0
	if len(out.problems) > 0 {
		report["problems"] = out.problems
	}
	if res.Attempted == 0 {
		return nil, nil, errors.New("no operation attempted")
	}
	report["setupSeconds"] = setups
	return res, report, nil
}

// probeSet names the probe workloads a traced run of name adds, so that
// every layer is measured: enroll covers submit, poll, solve and read;
// stream covers the stream relay and engine, one session of each kind
// (a short traced half of the stream workload may miss a kind).
func probeSet(name string) []string {
	if name == "enroll" {
		return []string{"stream"}
	}
	return []string{"enroll", "stream"}
}

// traceFile is where a traced run writes its spans.
func traceFile(dir string) string { return filepath.Join(filepath.Dir(dir), "trace-last.jsonl") }
