package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/service"
)

// relayHeaders are the node response headers the gateway passes on to the
// caller; everything else about an answer is its status and body bytes.
var relayHeaders = []string{"Content-Type", "Retry-After", "Uniq-Sample-Rate"}

var errNoNodes = errors.New("cluster: no available node for key")

// send builds and sends the upstream request of every forwarded route: the
// caller's method, query and Content-Type against node n at path (the job
// route strips its node qualifier; every other route keeps the caller's
// path), carrying body. A body of unknown length — a live stream — goes
// chunked with its headers flushed at once, so the node can answer before
// the caller's stream ends.
func (g *Gateway) send(r *http.Request, n *Node, path string, body io.Reader) (*http.Response, error) {
	if r.URL.RawQuery != "" {
		path += "?" + r.URL.RawQuery
	}
	out, err := http.NewRequestWithContext(r.Context(), r.Method, n.BaseURL+path, body)
	if err != nil {
		return nil, err
	}
	if ct := r.Header.Get("Content-Type"); ct != "" {
		out.Header.Set("Content-Type", ct)
	}
	if out.ContentLength == 0 && out.Body != nil && out.Body != http.NoBody {
		out.ContentLength = -1
	}
	client := g.cfg.HTTPClient
	if client == nil {
		client = http.DefaultClient
	}
	return client.Do(out)
}

// account classifies one finished exchange for the breaker and metrics:
// any HTTP response — success or error — proves the node alive; a
// transport or mid-body read failure (err) counts against it.
func (g *Gateway) account(n *Node, route string, start time.Time, status int, err error) {
	outcome := outcomeOK
	switch {
	case err != nil:
		g.reg.ReportFailure(n, err)
		outcome = outcomeTransport
	case status >= 500:
		outcome = outcomeUpstream5xx
	case status < 200 || status > 299:
		outcome = outcomeUpstream4xx
	}
	if err == nil {
		g.reg.ReportSuccess(n)
	}
	g.metrics.observeRoute(n.Name, route, outcome, time.Since(start))
}

// answer is one node's buffered reply to a unary request.
type answer struct {
	node   *Node
	hop    int // position of node in the ring walk; > 0 is a successor
	status int
	header http.Header
	body   []byte
}

// exchange runs one unary request against n and buffers the whole reply,
// so a walk can still move on after a mid-body failure.
func (g *Gateway) exchange(r *http.Request, n *Node, path string, body []byte) (*answer, error) {
	start := time.Now()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	resp, err := g.send(r, n, path, rd)
	if err != nil {
		g.account(n, r.Pattern, start, 0, err)
		return nil, err
	}
	defer resp.Body.Close()
	a := &answer{node: n, status: resp.StatusCode, header: resp.Header}
	a.body, err = io.ReadAll(resp.Body)
	if err != nil {
		err = fmt.Errorf("read answer from %s: %w", n.Name, err)
	}
	g.account(n, r.Pattern, start, a.status, err)
	if err != nil {
		return nil, err
	}
	return a, nil
}

// forward sends a unary request to key's candidates in ring order. A
// transport failure always moves on to the next candidate (the node may
// just be gone, and one that never answered never acted on the request);
// an HTTP answer ends the walk unless walkOn(status) asks for the next
// candidate too. It returns the exchange that ended the walk.
func (g *Gateway) forward(r *http.Request, key string, max int, body []byte, walkOn func(status int) bool) (*answer, error) {
	nodes := g.reg.Pick(key, max)
	if len(nodes) == 0 {
		return nil, errNoNodes
	}
	var a *answer
	var err error
	for hop, n := range nodes {
		if a, err = g.exchange(r, n, r.URL.EscapedPath(), body); err != nil {
			continue
		}
		a.hop = hop
		if walkOn == nil || !walkOn(a.status) {
			break
		}
	}
	return a, err
}

// reply writes a forwarded exchange to the caller: the node's answer as
// the node wrote it, 503 when no node could take the key, or 502 when the
// last candidate did not answer.
func reply(w http.ResponseWriter, a *answer, err error) {
	switch {
	case errors.Is(err, errNoNodes):
		w.Header().Set("Retry-After", "1")
		gwError(w, http.StatusServiceUnavailable, "no_nodes", "no available backend node")
	case err != nil:
		gwError(w, http.StatusBadGateway, "node_unreachable", "backend unreachable: %v", err)
	default:
		copyHeaders(w.Header(), a.header)
		w.WriteHeader(a.status)
		_, _ = w.Write(a.body)
	}
}

func copyHeaders(dst, src http.Header) {
	for _, h := range relayHeaders {
		if v := src.Get(h); v != "" {
			dst.Set(h, v)
		}
	}
}

// readBody buffers a unary request body under MaxBodyBytes, so a transport
// failover can replay it, answering 413 (or 400 on a broken upload)
// itself.
func (g *Gateway) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, g.cfg.MaxBodyBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			gwError(w, http.StatusRequestEntityTooLarge, service.CodeTooLarge, "body exceeds %d bytes", tooBig.Limit)
		} else {
			gwError(w, http.StatusBadRequest, service.CodeBadRequest, "read body: %v", err)
		}
		return nil, false
	}
	return body, true
}

// handleStream relays a full-duplex chunked stream (/v1/stream/render/...,
// /v1/stream/aoa/...) to the key owner. Unlike the unary routes there is
// no transport-level failover: the caller's request body is consumed as it
// forwards, so a mid-dial retry could replay a partial stream. The caller
// reconnects instead — by then the prober has moved the key.
func (g *Gateway) handleStream(w http.ResponseWriter, r *http.Request) {
	nodes := g.reg.Pick(r.PathValue("user"), 1)
	if len(nodes) == 0 {
		reply(w, nil, errNoNodes)
		return
	}
	n := nodes[0]
	start := time.Now()
	resp, err := g.send(r, n, r.URL.EscapedPath(), r.Body)
	if err != nil {
		g.account(n, r.Pattern, start, 0, err)
		reply(w, nil, err)
		return
	}
	defer resp.Body.Close()
	err = relayStream(w, resp, n.Name)
	g.account(n, r.Pattern, start, resp.StatusCode, err)
}

// relayStream pipes a node's streaming response through to the caller,
// returning a mid-stream failure to read from the node.
func relayStream(w http.ResponseWriter, resp *http.Response, node string) error {
	copyHeaders(w.Header(), resp.Header)
	w.Header().Set("Uniq-Served-By", node)
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		// Pre-stream rejection (no profile, draining, bad params): the
		// node's JSON error body passes through with its status.
		w.Header().Set("Connection", "close")
		w.WriteHeader(resp.StatusCode)
		_, _ = io.Copy(w, io.LimitReader(resp.Body, 1<<20))
		return nil
	}

	rc := http.NewResponseController(w)
	// Full duplex: keep reading the caller's request body while writing the
	// node's response — the stream protocol interleaves both directions.
	if err := rc.EnableFullDuplex(); err != nil {
		w.Header().Set("Connection", "close")
		gwError(w, http.StatusInternalServerError, service.CodeInternal, "full-duplex relay unsupported: %v", err)
		return nil
	}
	w.WriteHeader(resp.StatusCode)
	_ = rc.Flush()

	// Flush per read so low-rate sessions (one AoA event at a time) see
	// output promptly instead of when a buffer fills.
	buf := make([]byte, 32<<10)
	for {
		nr, rerr := resp.Body.Read(buf)
		if nr > 0 {
			if _, werr := w.Write(buf[:nr]); werr != nil {
				return nil // the caller went away; the node is fine
			}
			_ = rc.Flush()
		}
		if errors.Is(rerr, io.EOF) {
			return nil
		}
		if rerr != nil {
			// Mid-stream node death: too late for a status change, the
			// truncated chunked body is the signal the caller sees.
			return rerr
		}
	}
}
