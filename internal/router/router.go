// Package router is the horizontal scale-out tier: a thin HTTP shard router
// that partitions compile traffic across N treegiond replicas by content
// key, so each replica's memory cache and artifact store see a stable,
// disjoint slice of the keyspace and the tiers shard horizontally.
//
// Placement uses rendezvous (highest-random-weight) hashing over the
// body's key in normal form (KeyForBody): a /v1/compile body routes by the
// very request key the replica caches its compile under. Adding or removing
// a replica only moves the keys that must move (~1/n of the space), and
// every router instance agrees on placement without coordination or a
// shared table. A body a replica would refuse is refused at the router,
// with the replica's status, code and message.
//
// The router health-checks replicas in the background, retries a failed
// forward on the next-ranked healthy replica with exponential backoff
// (connection-level failures only — HTTP error statuses are the caller's
// business and are forwarded untouched), reuses upstream connections, and
// reports per-replica request/error/in-flight/latency metrics in Prometheus
// text format.
package router

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"treegion/internal/api"
	"treegion/internal/telemetry"
)

// Config parameterizes a Router.
type Config struct {
	// Replicas are the treegiond base URLs, e.g. "http://127.0.0.1:8037".
	Replicas []string
	// Retries bounds forwarding attempts beyond the first (default 2).
	Retries int
	// RetryBackoff is the initial inter-attempt backoff, doubling per
	// attempt (default 50ms).
	RetryBackoff time.Duration
	// HealthInterval is the background health-probe period (default 2s);
	// HealthTimeout bounds one probe (default 1s).
	HealthInterval time.Duration
	HealthTimeout  time.Duration
	// Registry, when non-nil, receives the router's metrics.
	Registry *telemetry.Registry
	// Transport overrides the upstream transport (tests); nil uses a
	// keep-alive transport shared by every replica.
	Transport http.RoundTripper
}

// replica is one upstream treegiond.
type replica struct {
	name     string // label value: the URL's host
	base     *url.URL
	healthy  atomic.Bool
	inFlight atomic.Int64
}

// Router fans requests out across replicas by content key.
type Router struct {
	cfg      Config
	replicas []*replica
	client   *http.Client
	reg      *telemetry.Registry

	started atomic.Bool
	stop    chan struct{}
	done    chan struct{}
}

// New builds a Router over cfg.Replicas. Replicas start healthy; the first
// probe round corrects that within HealthInterval. Call Start to begin
// probing and Close to stop it.
func New(cfg Config) (*Router, error) {
	if len(cfg.Replicas) == 0 {
		return nil, fmt.Errorf("router: no replicas configured")
	}
	if cfg.Retries <= 0 {
		cfg.Retries = 2
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 50 * time.Millisecond
	}
	if cfg.HealthInterval <= 0 {
		cfg.HealthInterval = 2 * time.Second
	}
	if cfg.HealthTimeout <= 0 {
		cfg.HealthTimeout = time.Second
	}
	transport := cfg.Transport
	if transport == nil {
		transport = &http.Transport{
			MaxIdleConns:        256,
			MaxIdleConnsPerHost: 64,
			IdleConnTimeout:     90 * time.Second,
		}
	}
	rt := &Router{
		cfg:    cfg,
		client: &http.Client{Transport: transport},
		reg:    cfg.Registry,
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	seen := make(map[string]bool)
	for _, raw := range cfg.Replicas {
		u, err := url.Parse(strings.TrimSuffix(raw, "/"))
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("router: bad replica URL %q", raw)
		}
		if seen[u.Host] {
			return nil, fmt.Errorf("router: duplicate replica %q", u.Host)
		}
		seen[u.Host] = true
		rep := &replica{name: u.Host, base: u}
		rep.healthy.Store(true)
		rt.replicas = append(rt.replicas, rep)
	}
	for _, rep := range rt.replicas {
		rep := rep
		rt.reg.LabeledGaugeFunc("treegion_router_replica_up",
			telemetry.Labels{"replica": rep.name},
			"1 when the replica's last health probe succeeded.", func() int64 {
				if rep.healthy.Load() {
					return 1
				}
				return 0
			})
		rt.reg.LabeledGaugeFunc("treegion_router_in_flight",
			telemetry.Labels{"replica": rep.name},
			"Requests currently being proxied to the replica.", rep.inFlight.Load)
	}
	return rt, nil
}

// Start launches the background health loop.
func (rt *Router) Start() {
	if rt.started.Swap(true) {
		return
	}
	go func() {
		defer close(rt.done)
		t := time.NewTicker(rt.cfg.HealthInterval)
		defer t.Stop()
		rt.probeAll()
		for {
			select {
			case <-rt.stop:
				return
			case <-t.C:
				rt.probeAll()
			}
		}
	}()
}

// Close stops the health loop and idle upstream connections.
func (rt *Router) Close() {
	select {
	case <-rt.stop:
	default:
		close(rt.stop)
		if rt.started.Load() {
			<-rt.done
		}
	}
	if t, ok := rt.client.Transport.(*http.Transport); ok {
		t.CloseIdleConnections()
	}
}

func (rt *Router) probeAll() {
	for _, rep := range rt.replicas {
		ctx, cancel := context.WithTimeout(context.Background(), rt.cfg.HealthTimeout)
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, rep.base.String()+"/v1/healthz", nil)
		resp, err := rt.client.Do(req)
		ok := err == nil && resp.StatusCode == http.StatusOK
		if resp != nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		cancel()
		if rep.healthy.Swap(ok) != ok {
			rt.reg.LabeledCounter("treegion_router_health_transitions_total",
				telemetry.Labels{"replica": rep.name},
				"Replica health state changes observed by the prober.").Inc()
		}
	}
}

// HealthyReplicas returns the names of the replicas whose last probe
// succeeded.
func (rt *Router) HealthyReplicas() []string {
	var out []string
	for _, rep := range rt.replicas {
		if rep.healthy.Load() {
			out = append(out, rep.name)
		}
	}
	return out
}

// ShardKey is the 32-byte content key a request routes by.
type ShardKey [sha256.Size]byte

// KeyForBody computes the shard key of a body posted to path: for a
// /v1/compile-batch body the batch's key, for any other the request key a
// replica caches the compile under. Both read the body's normal form
// (internal/api), so bodies that ask for one compile route to the same
// replica, whose cache and store tiers own a stable slice of the keyspace.
// A body the normal form refuses gets the Failure a replica would answer.
func KeyForBody(path string, body []byte) (ShardKey, *api.Failure) {
	if path == "/v1/compile-batch" {
		b, f := api.DecodeBatch(body)
		if f != nil {
			return ShardKey{}, f
		}
		return ShardKey(b.Key()), nil
	}
	c, f := api.DecodeCompile(body)
	if f != nil {
		return ShardKey{}, f
	}
	return ShardKey(c.Key()), nil
}

// Rendezvous ranks names for key by highest-random-weight hashing, best
// first. Deterministic in (key, name): removing a name never reorders the
// rest, which is the minimal-movement property the shard tests pin down.
func Rendezvous(key ShardKey, names []string) []string {
	type scored struct {
		name  string
		score uint64
	}
	ranked := make([]scored, 0, len(names))
	for _, n := range names {
		h := sha256.New()
		h.Write(key[:])
		h.Write([]byte{0})
		h.Write([]byte(n))
		sum := h.Sum(nil)
		ranked = append(ranked, scored{n, binary.BigEndian.Uint64(sum[:8])})
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].score != ranked[j].score {
			return ranked[i].score > ranked[j].score
		}
		return ranked[i].name < ranked[j].name
	})
	out := make([]string, len(ranked))
	for i, s := range ranked {
		out[i] = s.name
	}
	return out
}

// ranked returns the router's replicas in rendezvous order for key, healthy
// replicas first (both groups keep rendezvous order, so a sick replica's
// keys land on their natural second choice and return home on recovery).
func (rt *Router) ranked(key ShardKey) []*replica {
	byName := make(map[string]*replica, len(rt.replicas))
	names := make([]string, 0, len(rt.replicas))
	for _, rep := range rt.replicas {
		byName[rep.name] = rep
		names = append(names, rep.name)
	}
	order := Rendezvous(key, names)
	out := make([]*replica, 0, len(order))
	for _, n := range order {
		if byName[n].healthy.Load() {
			out = append(out, byName[n])
		}
	}
	for _, n := range order {
		if !byName[n].healthy.Load() {
			out = append(out, byName[n])
		}
	}
	return out
}

// fail answers one request with the structured error body shared with
// treegiond (internal/api): clients parse one shape no matter which tier
// rejected the request.
func (rt *Router) fail(w http.ResponseWriter, status int, code, msg string) {
	rt.reg.Counter("treegion_router_request_errors_total",
		"Requests the router answered with an error.").Inc()
	api.WriteError(w, status, api.ErrorDetail{Code: code, Message: msg})
}

// Handler returns the router's public mux: /v1/compile and
// /v1/compile-batch are forwarded by shard key; /v1/metrics and /v1/healthz
// are served by the router itself.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/compile", rt.handleProxy)
	mux.HandleFunc("/v1/compile-batch", rt.handleProxy)
	mux.HandleFunc("/v1/metrics", rt.handleMetrics)
	mux.HandleFunc("/v1/healthz", rt.handleHealthz)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		rt.fail(w, http.StatusNotFound, "not_found",
			fmt.Sprintf("no such endpoint %q (the router serves /v1/compile, /v1/compile-batch, /v1/metrics, /v1/healthz; per-replica endpoints like /v1/jobs are not routed)", r.URL.Path))
	})
	return mux
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	rt.reg.WritePrometheus(w)
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	healthy := len(rt.HealthyReplicas())
	status := http.StatusOK
	if healthy == 0 {
		status = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	fmt.Fprintf(w, "{\"status\":%q,\"replicas\":%d,\"healthy\":%d}\n",
		map[bool]string{true: "ok", false: "no_healthy_replicas"}[healthy > 0],
		len(rt.replicas), healthy)
}

func (rt *Router) handleProxy(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		rt.fail(w, http.StatusMethodNotAllowed, "method_not_allowed", "POST required")
		return
	}
	// A body a replica would refuse is refused here, with the replica's
	// status, code and message, and not forwarded.
	body, f := api.ReadBody(w, r)
	var key ShardKey
	if f == nil {
		key, f = KeyForBody(r.URL.Path, body)
	}
	if f != nil {
		rt.fail(w, f.Status, f.Detail.Code, f.Detail.Message)
		return
	}
	ranked := rt.ranked(key)
	attempts := rt.cfg.Retries + 1
	if attempts > len(ranked) {
		attempts = len(ranked)
	}
	backoff := rt.cfg.RetryBackoff
	var lastErr error
	for i := 0; i < attempts; i++ {
		rep := ranked[i]
		if i > 0 {
			rt.reg.Counter("treegion_router_retries_total",
				"Forwards retried on the next-ranked replica after a connection failure.").Inc()
			select {
			case <-time.After(backoff):
			case <-r.Context().Done():
				return
			}
			backoff *= 2
		}
		sent, err := rt.forward(w, r, rep, body)
		if err == nil {
			return
		}
		lastErr = err
		rt.reg.LabeledCounter("treegion_router_replica_errors_total",
			telemetry.Labels{"replica": rep.name},
			"Connection-level forwarding failures per replica.").Inc()
		if sent {
			// Bytes already reached the client; the response is torn and a
			// retry would corrupt it. Abort.
			return
		}
	}
	rt.fail(w, http.StatusBadGateway, "no_replica",
		fmt.Sprintf("no replica could serve the request: %v", lastErr))
}

// forward proxies one buffered request to rep, streaming the response
// through with per-chunk flushes (NDJSON batch lines reach the client as
// the replica emits them). It reports whether any response bytes were
// written to the client, which gates retries.
func (rt *Router) forward(w http.ResponseWriter, r *http.Request, rep *replica, body []byte) (sent bool, err error) {
	rt.reg.LabeledCounter("treegion_router_requests_total",
		telemetry.Labels{"replica": rep.name},
		"Requests forwarded per replica.").Inc()
	rep.inFlight.Add(1)
	defer rep.inFlight.Add(-1)
	started := time.Now()

	u := *rep.base
	u.Path = strings.TrimSuffix(u.Path, "/") + r.URL.Path
	req, err := http.NewRequestWithContext(r.Context(), http.MethodPost, u.String(), bytes.NewReader(body))
	if err != nil {
		return false, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := rt.client.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()

	hdr := w.Header()
	for _, k := range []string{"Content-Type", "Cache-Control", "X-Accel-Buffering"} {
		if v := resp.Header.Get(k); v != "" {
			hdr.Set(k, v)
		}
	}
	hdr.Set("X-Treegion-Replica", rep.name)
	w.WriteHeader(resp.StatusCode)
	sent = true

	rc := http.NewResponseController(w)
	buf := make([]byte, 32<<10)
	for {
		n, rerr := resp.Body.Read(buf)
		if n > 0 {
			rc.SetWriteDeadline(time.Now().Add(30 * time.Second))
			if _, werr := w.Write(buf[:n]); werr != nil {
				return true, nil // client went away; upstream ctx tears down with r.Context()
			}
			rc.Flush()
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			// Upstream died mid-body; the response is torn but already
			// started, so nothing can be retried.
			return true, nil
		}
	}
	rt.reg.Histogram("treegion_router_request_seconds",
		telemetry.Labels{"replica": rep.name},
		"Forwarded request latency per replica.", telemetry.DefBuckets).
		Observe(time.Since(started).Seconds())
	return true, nil
}
