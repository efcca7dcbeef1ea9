package router

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"treegion/internal/api"
	"treegion/internal/telemetry"
)

func keyOf(s string) ShardKey { return sha256.Sum256([]byte(s)) }

// Rendezvous ranking must be a pure function of (key, names): the same
// inputs rank identically on every router instance, which is what lets a
// fleet of routers agree on placement without coordination.
func TestRendezvousDeterministic(t *testing.T) {
	names := []string{"a:1", "b:1", "c:1", "d:1"}
	for i := 0; i < 50; i++ {
		key := keyOf(fmt.Sprintf("req-%d", i))
		first := Rendezvous(key, names)
		// Ranking must not depend on input order.
		shuffled := []string{"d:1", "b:1", "a:1", "c:1"}
		second := Rendezvous(key, shuffled)
		if strings.Join(first, ",") != strings.Join(second, ",") {
			t.Fatalf("key %d: ranking depends on name order: %v vs %v", i, first, second)
		}
		if len(first) != len(names) {
			t.Fatalf("ranking dropped names: %v", first)
		}
	}
}

// Removing a replica must only move the keys it owned: every other key
// keeps its first choice. Adding one must only steal ~1/n of the keys.
// This is rendezvous hashing's whole reason to exist — a modulo scheme
// would reshuffle nearly everything.
func TestRendezvousMinimalMovementOnRemove(t *testing.T) {
	names := []string{"a:1", "b:1", "c:1", "d:1"}
	const nKeys = 400
	owner := make(map[int]string, nKeys)
	for i := 0; i < nKeys; i++ {
		owner[i] = Rendezvous(keyOf(fmt.Sprintf("key-%d", i)), names)[0]
	}
	removed := "b:1"
	var survivors []string
	for _, n := range names {
		if n != removed {
			survivors = append(survivors, n)
		}
	}
	moved := 0
	for i := 0; i < nKeys; i++ {
		after := Rendezvous(keyOf(fmt.Sprintf("key-%d", i)), survivors)[0]
		if owner[i] == removed {
			moved++
			continue // these keys have to move; anywhere is fine
		}
		if after != owner[i] {
			t.Fatalf("key-%d moved from %s to %s although %s was the replica removed", i, owner[i], after, removed)
		}
	}
	if moved == 0 || moved == nKeys {
		t.Fatalf("degenerate distribution: %d/%d keys on removed replica", moved, nKeys)
	}
}

func TestRendezvousMinimalMovementOnAdd(t *testing.T) {
	names := []string{"a:1", "b:1", "c:1"}
	grown := append(append([]string{}, names...), "d:1")
	const nKeys = 400
	moved := 0
	for i := 0; i < nKeys; i++ {
		key := keyOf(fmt.Sprintf("key-%d", i))
		before := Rendezvous(key, names)[0]
		after := Rendezvous(key, grown)[0]
		if before != after {
			if after != "d:1" {
				t.Fatalf("key-%d moved %s→%s, but only the new replica may steal keys", i, before, after)
			}
			moved++
		}
	}
	// Expect ~1/4 of keys on the new replica; allow a generous band.
	if moved < nKeys/8 || moved > nKeys/2 {
		t.Fatalf("new replica stole %d/%d keys, want ≈%d", moved, nKeys, nKeys/4)
	}
}

// The shard key must ignore presentation-only fields (schedules, trace) and
// field order, and must differ when the compile inputs differ.
func TestKeyForBody(t *testing.T) {
	base := `{"ir":"func f\nbb0:\n  ret","machine":"8U"}`
	k1, err := KeyForBody("/v1/compile", []byte(base))
	if err != nil {
		t.Fatal(err)
	}
	k2, err := KeyForBody("/v1/compile", []byte(`{"machine":"8U","schedules":true,"ir":"func f\nbb0:\n  ret"}`))
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatal("key depends on field order or on the schedules presentation flag")
	}
	k3, err := KeyForBody("/v1/compile", []byte(`{"ir":"func g\nbb0:\n  ret","machine":"8U"}`))
	if err != nil {
		t.Fatal(err)
	}
	if k1 == k3 {
		t.Fatal("different IR produced the same shard key")
	}
	if _, err := KeyForBody("/v1/compile", []byte("not json")); err == nil {
		t.Fatal("want error for malformed body")
	}
}

// fakeReplica is an httptest backend that records hits and can be told to
// refuse connections (simulated by closing the listener).
type fakeReplica struct {
	ts   *httptest.Server
	hits atomic.Int64
}

func newFakeReplica(t *testing.T, tag string) *fakeReplica {
	t.Helper()
	f := &fakeReplica{}
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"status":"ok"}`)
	})
	mux.HandleFunc("/v1/compile", func(w http.ResponseWriter, r *http.Request) {
		f.hits.Add(1)
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"served_by":%q}`, tag)
	})
	f.ts = httptest.NewServer(mux)
	t.Cleanup(f.ts.Close)
	return f
}

func testRouter(t *testing.T, cfg Config) *Router {
	t.Helper()
	if cfg.Registry == nil {
		cfg.Registry = telemetry.NewRegistry()
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt
}

// The same body must always land on the same replica, and distinct bodies
// must spread across replicas.
func TestRouterStableSharding(t *testing.T) {
	a := newFakeReplica(t, "a")
	b := newFakeReplica(t, "b")
	rt := testRouter(t, Config{Replicas: []string{a.ts.URL, b.ts.URL}})
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	post := func(body string) string {
		resp, err := http.Post(front.URL+"/v1/compile", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		var out struct {
			ServedBy string `json:"served_by"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		if got := resp.Header.Get("X-Treegion-Replica"); got == "" {
			t.Fatal("missing X-Treegion-Replica header")
		}
		return out.ServedBy
	}

	seen := map[string]bool{}
	for i := 0; i < 16; i++ {
		body := fmt.Sprintf(`{"ir":"func f%d\nbb0:\n  ret"}`, i)
		first := post(body)
		for rep := 0; rep < 3; rep++ {
			if got := post(body); got != first {
				t.Fatalf("body %d flapped replicas: %s then %s", i, first, got)
			}
		}
		seen[first] = true
	}
	if len(seen) != 2 {
		t.Fatalf("16 distinct bodies all landed on one replica: %v", seen)
	}
	if a.hits.Load() == 0 || b.hits.Load() == 0 {
		t.Fatalf("hit counts a=%d b=%d, want both > 0", a.hits.Load(), b.hits.Load())
	}
}

// A dead first-choice replica must not fail the request: the router retries
// on the next-ranked replica.
func TestRouterRetriesOnDeadReplica(t *testing.T) {
	alive := newFakeReplica(t, "alive")
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close() // connections now refused

	rt := testRouter(t, Config{
		Replicas:     []string{alive.ts.URL, deadURL},
		Retries:      2,
		RetryBackoff: time.Millisecond,
	})
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	for i := 0; i < 8; i++ {
		body := fmt.Sprintf(`{"ir":"func f%d\nbb0:\n  ret"}`, i)
		resp, err := http.Post(front.URL+"/v1/compile", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d, want 200 via retry", i, resp.StatusCode)
		}
	}
}

// The health prober must mark a dead replica unhealthy (rerouting its keys)
// and flip /v1/healthz to 503 only when the whole fleet is down.
func TestRouterHealthProbing(t *testing.T) {
	a := newFakeReplica(t, "a")
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()

	rt := testRouter(t, Config{
		Replicas:       []string{a.ts.URL, deadURL},
		HealthInterval: 10 * time.Millisecond,
		HealthTimeout:  100 * time.Millisecond,
	})
	rt.Start()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if h := rt.HealthyReplicas(); len(h) == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("prober never marked the dead replica down: healthy=%v", rt.HealthyReplicas())
		}
		time.Sleep(5 * time.Millisecond)
	}

	front := httptest.NewServer(rt.Handler())
	defer front.Close()
	resp, err := http.Get(front.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz with one live replica: %d, want 200", resp.StatusCode)
	}
}

func TestRouterRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("want error for empty replica list")
	}
	if _, err := New(Config{Replicas: []string{"http://h:1", "http://h:1"}}); err == nil {
		t.Fatal("want error for duplicate replicas")
	}
	if _, err := New(Config{Replicas: []string{"::bad::"}}); err == nil {
		t.Fatal("want error for malformed URL")
	}
}

func TestRouterUnroutedEndpoint(t *testing.T) {
	a := newFakeReplica(t, "a")
	rt := testRouter(t, Config{Replicas: []string{a.ts.URL}})
	front := httptest.NewServer(rt.Handler())
	defer front.Close()
	resp, err := http.Get(front.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /v1/jobs via router: %d, want 404", resp.StatusCode)
	}
}

func TestRouterMetricsExposed(t *testing.T) {
	a := newFakeReplica(t, "a")
	reg := telemetry.NewRegistry()
	rt := testRouter(t, Config{Replicas: []string{a.ts.URL}, Registry: reg})
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	resp, err := http.Post(front.URL+"/v1/compile", "application/json",
		strings.NewReader(`{"ir":"func f\nbb0:\n  ret"}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	mresp, err := http.Get(front.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	text, _ := io.ReadAll(mresp.Body)
	for _, want := range []string{
		"treegion_router_requests_total",
		"treegion_router_replica_up",
		"treegion_router_in_flight",
		"treegion_router_request_seconds_bucket",
	} {
		if !strings.Contains(string(text), want) {
			t.Errorf("metrics missing %s", want)
		}
	}
}

// TestRouterErrorShape: the router's own rejections carry the same
// structured {"error":{code,message}} body treegiond answers with
// (internal/api), so clients parse one shape regardless of which tier
// failed the request.
func TestRouterErrorShape(t *testing.T) {
	a := newFakeReplica(t, "a")
	rt := testRouter(t, Config{Replicas: []string{a.ts.URL}})
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	resp, err := http.Post(front.URL+"/v1/compile", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	var er api.Error
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatalf("decode error body: %v", err)
	}
	if er.Error.Code != "bad_json" || er.Error.Message == "" {
		t.Fatalf("error body %+v, want code bad_json with a message", er.Error)
	}
}

// TestRouterBodyTooLarge: as on a replica, a body declared over the bound
// answers 413 body_too_large before a byte of it is sent, and is not
// forwarded.
func TestRouterBodyTooLarge(t *testing.T) {
	a := newFakeReplica(t, "a")
	rt := testRouter(t, Config{Replicas: []string{a.ts.URL}})
	front := httptest.NewServer(rt.Handler())
	defer front.Close()
	conn, err := net.Dial("tcp", front.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	fmt.Fprintf(conn, "POST /v1/compile HTTP/1.1\r\nHost: router\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n", api.MaxBodyBytes+1)
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var er api.Error
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusRequestEntityTooLarge || er.Error.Code != "body_too_large" {
		t.Errorf("status %d, code %q; want 413 body_too_large", resp.StatusCode, er.Error.Code)
	}
	if n := a.hits.Load(); n != 0 {
		t.Errorf("the replica saw %d requests, want 0", n)
	}
}
