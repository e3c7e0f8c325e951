package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/url"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/obs"
	"repro/internal/service"
)

// GatewayConfig assembles a Gateway.
type GatewayConfig struct {
	// Nodes are the backend uniqd nodes (at least one).
	Nodes []NodeSpec
	// VNodes is the virtual-node count per backend (default DefaultVNodes).
	VNodes int
	// ProbeInterval / ProbeTimeout / EjectAfter tune the health prober
	// (see RegistryConfig).
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	EjectAfter    int
	// ReadFallback is how many ring successors a profile read tries after
	// the owner fails — a dead primary degrades to a (possibly stale)
	// successor copy instead of an error (default 1, negative disables).
	ReadFallback int
	// MaxBodyBytes bounds request bodies on unary routes (default 64 MiB).
	MaxBodyBytes int64
	// HTTPClient overrides the backend client (probes and unary
	// forwarding); nil uses http.DefaultClient.
	HTTPClient *http.Client
	// Logger receives routing and node-state records; nil discards them.
	Logger *slog.Logger
}

// Gateway fronts N uniqd nodes: it owns the ring, the node registry and
// the forwarding handler. Jobs it acknowledges carry node-qualified IDs
// ("<jobid>@<node>") so polls route back to the accepting node.
type Gateway struct {
	cfg     GatewayConfig
	reg     *Registry
	metrics *gatewayMetrics
	log     *slog.Logger
	handler http.Handler
}

// NewGateway validates the fleet, starts the health prober and builds the
// HTTP handler. Call Close on shutdown.
func NewGateway(cfg GatewayConfig) (*Gateway, error) {
	if len(cfg.Nodes) == 0 {
		return nil, errors.New("cluster: gateway needs at least one backend node")
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 64 << 20
	}
	if cfg.ReadFallback == 0 {
		cfg.ReadFallback = 1
	}
	if cfg.ReadFallback < 0 {
		cfg.ReadFallback = 0
	}
	if cfg.Logger == nil {
		cfg.Logger = obs.NopLogger()
	}
	reg, err := NewRegistry(RegistryConfig{
		ProbeInterval: cfg.ProbeInterval,
		ProbeTimeout:  cfg.ProbeTimeout,
		EjectAfter:    cfg.EjectAfter,
		HTTPClient:    cfg.HTTPClient,
		Logger:        cfg.Logger,
	}, NewRing(cfg.VNodes), cfg.Nodes)
	if err != nil {
		return nil, err
	}
	g := &Gateway{
		cfg:     cfg,
		reg:     reg,
		metrics: newGatewayMetrics(obs.NewRegistry(), reg),
		log:     cfg.Logger,
	}

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions", g.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", g.handleJob)
	mux.HandleFunc("GET /v1/profiles", g.handleList)
	mux.HandleFunc("GET /v1/profiles/{user}", g.handleProfile)
	mux.HandleFunc("POST /v1/profiles/{user}/aoa", g.handleUserPost)
	mux.HandleFunc("POST /v1/profiles/{user}/render", g.handleUserPost)
	mux.HandleFunc("POST /v1/stream/render/{user}", g.handleStream)
	mux.HandleFunc("POST /v1/stream/aoa/{user}", g.handleStream)
	mux.HandleFunc("GET /v1/cluster/nodes", g.handleNodes)
	mux.HandleFunc("GET /debug/metrics", g.handleMetrics)
	mux.HandleFunc("GET /healthz", g.handleHealth)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		gwError(w, http.StatusNotFound, service.CodeNoRoute, "no route for %s %s", r.Method, r.URL.Path)
	})
	g.handler = g.instrument(mux)
	return g, nil
}

// Handler returns the gateway's HTTP handler.
func (g *Gateway) Handler() http.Handler { return g.handler }

// Registry exposes the node registry (uniqctl nodes, tests).
func (g *Gateway) Registry() *Registry { return g.reg }

// Close stops the health prober.
func (g *Gateway) Close() { g.reg.Close() }

// --- shared helpers ---

// gwStatusRecorder captures the front-door status for metrics; Unwrap lets
// the streaming relay reach Flush/EnableFullDuplex.
type gwStatusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *gwStatusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *gwStatusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

func (g *Gateway) instrument(next *http.ServeMux) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := &gwStatusRecorder{ResponseWriter: w, code: http.StatusOK}
		next.ServeHTTP(rec, r)
		route := r.Pattern
		if route == "" {
			route = "unmatched"
		}
		g.metrics.observeRequest(route, rec.code)
	})
}

// gwJSON / gwError mirror uniqd's uniform response shape so a caller sees
// the same wire contract through the gateway as against a single node.
func gwJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

type gwErrorBody struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
}

func gwError(w http.ResponseWriter, code int, errCode, format string, args ...any) {
	gwJSON(w, code, gwErrorBody{Error: fmt.Sprintf(format, args...), Code: errCode})
}

// --- user-keyed routes ---

// handleSubmit forwards a session to its user's owner. Only the routing
// key is decoded; the body travels as the caller sent it. Transport-level
// failover is safe for submits: a node that never answered never accepted
// the job, so trying the successor cannot double-run a session.
func (g *Gateway) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, ok := g.readBody(w, r)
	if !ok {
		return
	}
	// Decode the first JSON value, as a node does, so every body a node
	// would take gets through.
	var key struct{ User string }
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&key); err != nil {
		gwError(w, http.StatusBadRequest, service.CodeBadJSON, "bad JSON body: %v", err)
		return
	}
	a, err := g.forward(r, key.User, g.reg.Len(), body, nil)
	if err != nil || a.status != http.StatusAccepted {
		reply(w, a, err)
		return
	}
	// Qualify the job ID with the accepting node so polls route back to it
	// without a global job table.
	rewrite(w, a, func(ack *service.SubmitResponse) {
		ack.JobID += "@" + a.node.Name
		ack.StatusURL = "/v1/jobs/" + ack.JobID
	})
}

// rewrite decodes a node's small JSON reply (a submit ack or a job
// status), applies edit and writes it with the node's status.
func rewrite[T any](w http.ResponseWriter, a *answer, edit func(*T)) {
	var v T
	if err := json.Unmarshal(a.body, &v); err != nil {
		reply(w, nil, fmt.Errorf("unreadable reply from %s: %w", a.node.Name, err))
		return
	}
	edit(&v)
	gwJSON(w, a.status, v)
}

func (g *Gateway) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	at := strings.LastIndex(id, "@")
	if at <= 0 || at == len(id)-1 {
		gwError(w, http.StatusNotFound, service.CodeJobNotFound,
			"job id %q is not node-qualified (want <jobid>@<node>)", id)
		return
	}
	bare, nodeName := id[:at], id[at+1:]
	n, ok := g.reg.Node(nodeName)
	if !ok {
		gwError(w, http.StatusNotFound, service.CodeJobNotFound, "unknown node %q in job id", nodeName)
		return
	}
	a, err := g.exchange(r, n, "/v1/jobs/"+url.PathEscape(bare), nil)
	if err != nil || a.status != http.StatusOK {
		reply(w, a, err)
		return
	}
	// Keep the node-qualified form callers poll with.
	rewrite(w, a, func(st *service.JobStatus) { st.ID = id })
}

func (g *Gateway) handleProfile(w http.ResponseWriter, r *http.Request) {
	a, err := g.forward(r, r.PathValue("user"), 1+g.cfg.ReadFallback, nil, func(status int) bool {
		// Not-found and 5xx both fall through to the successors: the owner
		// may have just taken over an arc it never stored, while the
		// previous owner still holds the profile. Bad user IDs are bad
		// everywhere; don't walk the ring for them.
		return status != http.StatusOK && status != http.StatusBadRequest
	})
	if err == nil && a.status == http.StatusOK {
		w.Header().Set("Uniq-Served-By", a.node.Name)
		if a.hop > 0 {
			// A successor answered: after a failover or rebalance this
			// may be a stale copy — say so rather than hide it.
			w.Header().Set("Uniq-Fallback", "true")
			g.metrics.fallback.Inc()
		}
	}
	reply(w, a, err)
}

// handleUserPost forwards the unary per-profile queries (AoA, render) to
// the user's owner, failing over to a successor on transport errors.
func (g *Gateway) handleUserPost(w http.ResponseWriter, r *http.Request) {
	body, ok := g.readBody(w, r)
	if !ok {
		return
	}
	a, err := g.forward(r, r.PathValue("user"), 1+g.cfg.ReadFallback, body, nil)
	reply(w, a, err)
}

// --- fan-out list ---

func (g *Gateway) handleList(w http.ResponseWriter, r *http.Request) {
	nodes := g.reg.Healthy()
	if len(nodes) == 0 {
		reply(w, nil, errNoNodes)
		return
	}
	type part struct {
		a     *answer
		err   error
		users []string
	}
	parts := make([]part, len(nodes))
	var wg sync.WaitGroup
	for i, n := range nodes {
		wg.Add(1)
		go func(p *part, n *Node) {
			defer wg.Done()
			p.a, p.err = g.exchange(r, n, r.URL.EscapedPath(), nil)
			if p.err == nil && p.a.status == http.StatusOK {
				var list struct{ Users []string }
				if err := json.Unmarshal(p.a.body, &list); err != nil {
					p.err = fmt.Errorf("decode user list from %s: %w", n.Name, err)
				}
				p.users = list.Users
			}
		}(&parts[i], n)
	}
	wg.Wait()
	merged := make([]string, 0, 64)
	failed := 0
	for _, p := range parts {
		if p.err != nil || p.a.status != http.StatusOK {
			failed++
		}
		merged = append(merged, p.users...)
	}
	if failed == len(nodes) {
		reply(w, parts[0].a, parts[0].err)
		return
	}
	// Ejected nodes are excluded from the fan-out upfront; their keys are
	// just as absent from the merge as those of a node that failed mid
	// fan-out, so both degrade to a partial list rather than erroring the
	// whole fleet view. The header lets callers distinguish partial from
	// complete.
	if ejected := g.reg.Ring().Len() - len(nodes); failed > 0 || ejected > 0 {
		w.Header().Set("Uniq-Partial", "true")
		g.metrics.fanParts.Inc()
	}
	slices.Sort(merged)
	gwJSON(w, http.StatusOK, map[string][]string{"users": slices.Compact(merged)})
}

// --- cluster introspection ---

func (g *Gateway) handleNodes(w http.ResponseWriter, r *http.Request) {
	gwJSON(w, http.StatusOK, map[string]any{
		"ring":  map[string]any{"nodes": g.reg.Ring().Nodes(), "vnodesPerNode": g.ringVNodes()},
		"nodes": g.reg.Snapshot(),
	})
}

func (g *Gateway) ringVNodes() int {
	if g.cfg.VNodes > 0 {
		return g.cfg.VNodes
	}
	return DefaultVNodes
}

func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "json" {
		gwJSON(w, http.StatusOK, g.metrics.reg.Flatten())
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	g.metrics.reg.WriteText(w)
}

func (g *Gateway) handleHealth(w http.ResponseWriter, r *http.Request) {
	counts := g.reg.CountByState()
	available := counts[NodeHealthy] + counts[NodeProbation]
	body := map[string]any{
		"status":    "ok",
		"nodes":     g.reg.Len(),
		"available": available,
		"version":   buildinfo.Version(),
	}
	if available == 0 {
		body["status"] = "degraded"
		w.Header().Set("Retry-After", "1")
		gwJSON(w, http.StatusServiceUnavailable, body)
		return
	}
	gwJSON(w, http.StatusOK, body)
}

// NodesView is the body of GET /v1/cluster/nodes.
type NodesView struct {
	Ring struct {
		Nodes         []string `json:"nodes"`
		VNodesPerNode int      `json:"vnodesPerNode"`
	} `json:"ring"`
	Nodes []NodeInfo `json:"nodes"`
}

// FetchNodes retrieves a gateway's cluster view (uniqctl nodes).
func FetchNodes(ctx context.Context, gatewayURL string) (NodesView, error) {
	var out NodesView
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		strings.TrimRight(gatewayURL, "/")+"/v1/cluster/nodes", nil)
	if err != nil {
		return out, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("cluster: gateway returned %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return out, fmt.Errorf("cluster: decode nodes view: %w", err)
	}
	return out, nil
}
