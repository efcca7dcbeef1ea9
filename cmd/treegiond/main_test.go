package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"treegion/internal/api"
	"treegion/internal/router"
)

func testServer(t *testing.T) (*server, *httptest.Server) {
	t.Helper()
	s, err := newServer(serverConfig{cacheBytes: 1 << 20, jobWorkers: 2, jobQueue: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.shutdown(ctx)
	})
	ts := httptest.NewServer(s.routes())
	t.Cleanup(ts.Close)
	return s, ts
}

func fig1(t *testing.T) string {
	t.Helper()
	src, err := os.ReadFile("../../testdata/fig1.tir")
	if err != nil {
		t.Fatal(err)
	}
	return string(src)
}

func postCompile(t *testing.T, ts *httptest.Server, body string) (*http.Response, compileResponse) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/compile", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var cr compileResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
			t.Fatalf("decode response: %v", err)
		}
	}
	return resp, cr
}

// decodeError reads a structured {"error": {"code", "message"}} body.
func decodeError(t *testing.T, resp *http.Response) api.Error {
	t.Helper()
	defer resp.Body.Close()
	var er api.Error
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatalf("decode error body: %v", err)
	}
	return er
}

func TestCompileEndpoint(t *testing.T) {
	_, ts := testServer(t)
	req, err := json.Marshal(map[string]any{"ir": fig1(t), "schedules": true, "trace": true})
	if err != nil {
		t.Fatal(err)
	}

	resp, cr := postCompile(t, ts, string(req))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if cr.Function != "fig1" {
		t.Errorf("function = %q, want fig1", cr.Function)
	}
	if cr.Time <= 0 {
		t.Errorf("time = %v, want > 0", cr.Time)
	}
	if cr.Regions == 0 || len(cr.ScheduleLengths) != cr.Regions {
		t.Errorf("regions = %d, schedule lengths = %d", cr.Regions, len(cr.ScheduleLengths))
	}
	if len(cr.Schedules) == 0 {
		t.Error("schedules requested but absent")
	}
	if cr.Cached {
		t.Error("first compile reported cached")
	}
	if len(cr.Trace) == 0 {
		t.Error("trace requested but absent")
	}
	for _, phase := range []string{"treeform", "list-sched", "ddg-build"} {
		if _, ok := cr.Trace[phase]; !ok {
			t.Errorf("trace missing phase %q: %v", phase, cr.Trace)
		}
	}

	// The same request again must hit the content-addressed cache and
	// return identical numbers.
	resp2, cr2 := postCompile(t, ts, string(req))
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second status = %d, want 200", resp2.StatusCode)
	}
	if !cr2.Cached {
		t.Error("second identical compile missed the cache")
	}
	if cr2.Time != cr.Time || cr2.OpsAfter != cr.OpsAfter {
		t.Errorf("cached result differs: time %v vs %v, ops %d vs %d", cr2.Time, cr.Time, cr2.OpsAfter, cr.OpsAfter)
	}

	// A different config is a different content address.
	req8, _ := json.Marshal(map[string]any{"ir": fig1(t), "machine": "8U"})
	_, cr3 := postCompile(t, ts, string(req8))
	if cr3.Cached {
		t.Error("different config reported cached")
	}
}

func TestCompileEndpointErrors(t *testing.T) {
	_, ts := testServer(t)
	cases := []struct {
		name, body string
		want       int
		code       string
		msg        string // when set, the whole message
	}{
		{"empty body", ``, http.StatusBadRequest, "bad_json", ""},
		{"missing ir", `{}`, http.StatusBadRequest, "missing_field", ""},
		{"bad ir", `{"ir": "not a function"}`, http.StatusBadRequest, "bad_ir", ""},
		{"empty memory operand", `{"ir": "func f\nbb0:\n  r1 = ld []\n  ret\n"}`, http.StatusBadRequest, "bad_ir", ""},
		{"bad region", `{"ir": "func f\nbb0:\n  ret\n", "region": "nope"}`, http.StatusBadRequest, "bad_config", ""},
		{"bad machine", `{"ir": "func f\nbb0:\n  ret\n", "machine": "2U"}`, http.StatusBadRequest, "bad_config", ""},
		// A body that parses as one function but fails to profile is not
		// parsed again as a program and profiled a second time, which
		// would answer "profile spin: ...".
		{"profile fails", spinBody, http.StatusUnprocessableEntity, "profile_failed", "profile: interp: profiling spin exceeded 2000000 steps"},
		// A cycle of op-less blocks runs no op, so the step bound never
		// stops it; the client's timeout fails the test if it hangs.
		{"op-less cycle", `{"ir": "func f\nbb0:\n  fallthrough @bb0\n"}`, http.StatusUnprocessableEntity, "profile_failed", "profile: interp: f: bb0 falls into a cycle of blocks without ops"},
	}
	hc := &http.Client{Timeout: 10 * time.Second}
	for _, tc := range cases {
		resp, err := hc.Post(ts.URL+"/v1/compile", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status = %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
		er := decodeError(t, resp)
		if er.Error.Code != tc.code {
			t.Errorf("%s: error code = %q, want %q", tc.name, er.Error.Code, tc.code)
		}
		if er.Error.Message == "" || tc.msg != "" && er.Error.Message != tc.msg {
			t.Errorf("%s: error message %q, want %q", tc.name, er.Error.Message, tc.msg)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/compile")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/compile status = %d, want 405", resp.StatusCode)
	}
	if er := decodeError(t, resp); er.Error.Code != "method_not_allowed" {
		t.Errorf("GET /v1/compile error code = %q, want method_not_allowed", er.Error.Code)
	}
}

// TestBodyTooLarge: a body declared over the 8 MiB bound answers 413
// body_too_large before a byte of it is sent, and a chunked body of
// unknown length answers 413 once it passes the bound.
func TestBodyTooLarge(t *testing.T) {
	_, ts := testServer(t)
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	fmt.Fprintf(conn, "POST /v1/compile HTTP/1.1\r\nHost: daemon\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n", api.MaxBodyBytes+1)
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	if er := decodeError(t, resp); resp.StatusCode != http.StatusRequestEntityTooLarge || er.Error.Code != "body_too_large" {
		t.Errorf("declared oversized body: status %d, code %q; want 413 body_too_large", resp.StatusCode, er.Error.Code)
	}

	// Hiding the reader's length makes the client send it chunked.
	chunked := struct{ io.Reader }{strings.NewReader(strings.Repeat(" ", api.MaxBodyBytes+1))}
	hc := &http.Client{Timeout: 10 * time.Second}
	resp, err = hc.Post(ts.URL+"/v1/compile", "application/json", chunked)
	if err != nil {
		t.Fatal(err)
	}
	if er := decodeError(t, resp); resp.StatusCode != http.StatusRequestEntityTooLarge || er.Error.Code != "body_too_large" {
		t.Errorf("chunked oversized body: status %d, code %q; want 413 body_too_large", resp.StatusCode, er.Error.Code)
	}
}

// TestHugeRegisterNumberIsBadIR: a register number above ir.MaxRegNum is
// rejected where the IR is parsed, before any per-register table is sized
// by it, so this 60-byte function gets a 400 and the daemon stays up.
func TestHugeRegisterNumberIsBadIR(t *testing.T) {
	_, ts := testServer(t)
	body, err := json.Marshal(map[string]any{"ir": "func big\nbb0:\n  r0 = movi 1\n  r900000000 = add r0, r0\n  ret\n"})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/compile", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("status = %d, want 400", resp.StatusCode)
	}
	if er := decodeError(t, resp); er.Error.Code != "bad_ir" {
		t.Errorf("error code = %q, want bad_ir", er.Error.Code)
	}
	hresp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Errorf("healthz status = %d, want 200", hresp.StatusCode)
	}
}

// spinBody compiles one function whose every profiling trip loops until
// the daemon's step bound stops it.
const spinBody = `{"ir": "func spin\nbb0:\n  r0 = movi 1\n  bru @bb0\n"}`

// TestTripsBoundedByTotalSteps: a body asking for 10^12 trips of Figure 1
// answers 422 profile_failed once its trips have run 64M steps together,
// about four million trips, instead of profiling for about a day.
func TestTripsBoundedByTotalSteps(t *testing.T) {
	_, ts := testServer(t)
	body, err := json.Marshal(map[string]any{"ir": fig1(t), "trips": 1_000_000_000_000})
	if err != nil {
		t.Fatal(err)
	}
	hc := &http.Client{Timeout: time.Minute}
	resp, err := hc.Post(ts.URL+"/v1/compile", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	er := decodeError(t, resp)
	const want = "profile: interp: profiling fig1 exceeded 64000000 steps in total over its first "
	if resp.StatusCode != http.StatusUnprocessableEntity || er.Error.Code != "profile_failed" || !strings.HasPrefix(er.Error.Message, want) {
		t.Fatalf("status %d, %s: %q; want 422 profile_failed: %q...", resp.StatusCode, er.Error.Code, er.Error.Message, want)
	}
}

// TestRequestPhaseMetrics: every decode of a compile body, every parse of
// a request's IR and every profile of one of its functions is one
// observation of treegiond_request_phase_seconds (TestMetricsAndHealthz
// counts a cold compile and a memory hit, which parses and profiles
// neither). Each request decodes its body once. The spin body parses and
// profiles once; a two-function body is parsed twice (as one function,
// then as a program) and profiles each function once.
func TestRequestPhaseMetrics(t *testing.T) {
	_, ts := testServer(t)
	counts := func(decode, parse, profile int) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/metrics")
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		for phase, n := range map[string]int{"decode": decode, "parse": parse, "profile": profile} {
			want := fmt.Sprintf("treegiond_request_phase_seconds_count{phase=%q} %d\n", phase, n)
			if !strings.Contains(string(raw), want) {
				t.Errorf("metrics missing %q", want)
			}
		}
	}
	if resp, _ := postCompile(t, ts, spinBody); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("spin status = %d, want 422", resp.StatusCode)
	}
	counts(1, 1, 1)
	prog, _ := json.Marshal(map[string]any{"ir": callpair(t)})
	if resp, cr := postCompile(t, ts, string(prog)); resp.StatusCode != http.StatusOK || cr.Functions != 2 {
		t.Fatalf("two-function body: status %d, %d functions; want 200, 2", resp.StatusCode, cr.Functions)
	}
	counts(2, 3, 3)
}

// TestCompileUnknownField verifies the strict decoder: an unknown config
// field is a structured 400 naming the field and listing the valid ones.
func TestCompileUnknownField(t *testing.T) {
	_, ts := testServer(t)
	resp, err := http.Post(ts.URL+"/v1/compile", "application/json",
		strings.NewReader(`{"ir": "func f\nbb0:\n  ret\n", "mahcine": "8U"}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	er := decodeError(t, resp)
	if er.Error.Code != "unknown_field" {
		t.Errorf("error code = %q, want unknown_field", er.Error.Code)
	}
	if !strings.Contains(er.Error.Message, `"mahcine"`) {
		t.Errorf("message does not name the bad field: %q", er.Error.Message)
	}
	for _, valid := range []string{"machine", "region", "heuristic", "expansion_limit"} {
		if !strings.Contains(er.Error.Message, valid) {
			t.Errorf("message does not list valid field %q: %q", valid, er.Error.Message)
		}
	}
}

// TestTrailingDataIsBadJSON verifies that every endpoint taking a JSON body
// reads exactly one value: a second value or trailing garbage is a 400
// bad_json (the router refuses to shard the same bodies), while trailing
// whitespace is accepted.
func TestTrailingDataIsBadJSON(t *testing.T) {
	_, ts := testServer(t)
	quote := func(s string) string {
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	a, b := quote(fig1(t)), quote("func g\nbb0:\n  ret\n")
	single := func(ir string) string { return `{"ir":` + ir + `}` }
	for _, ep := range []struct {
		path string
		body func(ir string) string
		ok   int
	}{
		{"/v1/compile", single, http.StatusOK},
		{"/v1/compile-batch", func(ir string) string { return `{"functions":[{"ir":` + ir + `}]}` }, http.StatusOK},
		{"/v1/jobs", single, http.StatusAccepted},
	} {
		for _, tc := range []struct {
			name, body string
			want       int
		}{
			{"two values", ep.body(a) + ep.body(b), http.StatusBadRequest},
			{"trailing garbage", ep.body(a) + ` x`, http.StatusBadRequest},
			{"trailing whitespace", ep.body(a) + " \n", ep.ok},
		} {
			resp, err := http.Post(ts.URL+ep.path, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != tc.want {
				resp.Body.Close()
				t.Errorf("%s %s: status %d, want %d", ep.path, tc.name, resp.StatusCode, tc.want)
				continue
			}
			if tc.want != http.StatusBadRequest {
				resp.Body.Close()
				continue
			}
			if er := decodeError(t, resp); er.Error.Code != "bad_json" {
				t.Errorf("%s %s: error code %q, want bad_json", ep.path, tc.name, er.Error.Code)
			}
			if _, err := router.KeyForBody(ep.path, []byte(tc.body)); err == nil {
				t.Errorf("%s %s: the router would shard a body the daemon rejects", ep.path, tc.name)
			}
		}
	}
}

// TestUnversionedPathsNotFound verifies that the retired unversioned
// /compile, /metrics and /healthz paths get the structured 404 of any
// unknown path, and that its message lists every /v1 endpoint.
func TestUnversionedPathsNotFound(t *testing.T) {
	_, ts := testServer(t)
	noFollow := &http.Client{
		CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse },
	}
	for _, tc := range []struct{ method, path string }{
		{http.MethodPost, "/compile"},
		{http.MethodGet, "/metrics"},
		{http.MethodGet, "/healthz"},
	} {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(`{}`))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := noFollow.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s status = %d, want 404", tc.method, tc.path, resp.StatusCode)
		}
		if loc := resp.Header.Get("Location"); loc != "" {
			t.Errorf("%s %s still redirects to %q", tc.method, tc.path, loc)
		}
		er := decodeError(t, resp)
		if er.Error.Code != "not_found" {
			t.Errorf("%s %s error code = %q, want not_found", tc.method, tc.path, er.Error.Code)
		}
		for _, ep := range []string{"/v1/compile,", "/v1/compile-batch", "/v1/jobs", "/v1/metrics", "/v1/store/stats", "/v1/healthz"} {
			if !strings.Contains(er.Error.Message, ep) {
				t.Errorf("%s %s message %q does not list %s", tc.method, tc.path, er.Error.Message, strings.TrimSuffix(ep, ","))
			}
		}
	}
}

func TestMetricsAndHealthz(t *testing.T) {
	_, ts := testServer(t)
	req, _ := json.Marshal(map[string]any{"ir": fig1(t)})
	postCompile(t, ts, string(req))
	postCompile(t, ts, string(req))

	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{
		// Cache and pipeline counters (names unchanged from the old API).
		"treegiond_cache_hits_total 1",
		"treegiond_cache_misses_total 1",
		"treegiond_pipeline_compiles_total 1",
		"treegiond_http_compile_requests_total 2",
		"# TYPE treegiond_cache_entries gauge",
		// Per-phase compile latency histograms from the telemetry registry.
		"# TYPE treegion_compile_phase_seconds histogram",
		`treegion_compile_phase_seconds_bucket{phase="treeform",le="+Inf"} 1`,
		`treegion_compile_phase_seconds_count{phase="list-sched"} 1`,
		// Scheduling counters: speculation and renaming after one compile.
		"treegion_sched_speculated_ops_total",
		"treegion_sched_renamed_dests_total",
		"treegion_compile_functions_total 1",
		// Region-shape histograms.
		"# TYPE treegion_region_blocks histogram",
		// The cold compile's parse and profile: the memory hit, keyed by
		// its request, runs neither.
		`treegiond_request_phase_seconds_count{phase="parse"} 1`,
		`treegiond_request_phase_seconds_count{phase="profile"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q in:\n%s", want, body)
		}
	}

	hresp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Errorf("healthz status = %d, want 200", hresp.StatusCode)
	}
	var hz struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(hresp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	if hz.Status != "ok" {
		t.Errorf("healthz status field = %q, want ok", hz.Status)
	}
}

// TestDebugRoutes checks the pprof mux serves its index (the daemon mounts
// it on -debug-addr only, never on the service listener).
func TestDebugRoutes(t *testing.T) {
	ts := httptest.NewServer(debugRoutes())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/pprof/ status = %d, want 200", resp.StatusCode)
	}
	raw, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(raw), "goroutine") {
		t.Error("pprof index does not list profiles")
	}

	// The service mux must NOT expose pprof.
	_, svc := testServer(t)
	sresp, err := http.Get(svc.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if sresp.StatusCode != http.StatusNotFound {
		t.Errorf("service mux serves /debug/pprof/ with %d, want 404", sresp.StatusCode)
	}
}

// TestCompileVerify covers the "verify" request field: a verified compile
// succeeds with verified=true; it compiles again after a plain compile of
// the same function, since a verified artifact carries its diagnostics
// under a key of its own; and a repeated verified compile is cached.
func TestCompileVerify(t *testing.T) {
	_, ts := testServer(t)
	plain, err := json.Marshal(map[string]any{"ir": fig1(t)})
	if err != nil {
		t.Fatal(err)
	}
	if resp, cr := postCompile(t, ts, string(plain)); resp.StatusCode != http.StatusOK || cr.Verified {
		t.Fatalf("plain compile: status %d, verified %v", resp.StatusCode, cr.Verified)
	}

	verified, err := json.Marshal(map[string]any{"ir": fig1(t), "verify": true})
	if err != nil {
		t.Fatal(err)
	}
	resp, cr := postCompile(t, ts, string(verified))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("verified compile: status %d, want 200", resp.StatusCode)
	}
	if !cr.Verified {
		t.Error("verified compile did not report verified")
	}
	if cr.Cached {
		t.Error("verified compile reused the plain artifact")
	}
	if len(cr.Diagnostics) != 0 {
		t.Errorf("unexpected diagnostics: %v", cr.Diagnostics)
	}

	resp2, cr2 := postCompile(t, ts, string(verified))
	if resp2.StatusCode != http.StatusOK || !cr2.Cached || !cr2.Verified {
		t.Errorf("repeated verified compile: status %d, cached %v, verified %v",
			resp2.StatusCode, cr2.Cached, cr2.Verified)
	}
}

// TestStoreStats: GET /v1/store/stats reports the artifact store's counters
// and schema version on a store-backed daemon, and {"enabled": false} on a
// memory-only one.
func TestStoreStats(t *testing.T) {
	getStats := func(ts *httptest.Server) api.StoreStats {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/store/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d, want 200", resp.StatusCode)
		}
		var st api.StoreStats
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st
	}

	_, memOnly := testServer(t)
	if st := getStats(memOnly); st.Enabled || st.Puts != 0 {
		t.Fatalf("memory-only daemon reported store stats %+v, want disabled zeros", st)
	}

	_, ts := storeServer(t, t.TempDir(), 1, 8)
	body, err := json.Marshal(map[string]any{"ir": fig1(t)})
	if err != nil {
		t.Fatal(err)
	}
	if resp, _ := postCompile(t, ts, string(body)); resp.StatusCode != http.StatusOK {
		t.Fatalf("compile status %d, want 200", resp.StatusCode)
	}
	st := getStats(ts)
	if !st.Enabled {
		t.Fatal("store-backed daemon reported enabled=false")
	}
	if st.SchemaVersion == 0 {
		t.Error("schema_version = 0, want the current tgart2 schema")
	}
	if st.Puts == 0 || st.Entries == 0 || st.Bytes == 0 {
		t.Errorf("after one cold compile: %+v, want puts/entries/bytes > 0", st)
	}
	if st.Budget <= 0 {
		t.Errorf("budget_bytes = %d, want > 0", st.Budget)
	}

	resp, err := http.Post(ts.URL+"/v1/store/stats", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	if er := decodeError(t, resp); resp.StatusCode != http.StatusMethodNotAllowed || er.Error.Code != "method_not_allowed" {
		t.Fatalf("POST: status %d code %q, want 405 method_not_allowed", resp.StatusCode, er.Error.Code)
	}
}
