package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"treegion"
	"treegion/internal/api"
	"treegion/internal/compcache"
)

// metric reads one sample of /v1/metrics by its name as printed, labels
// included; an absent sample reads 0.
func metric(t *testing.T, ts *httptest.Server, name string) int64 {
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
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return n
		}
	}
	return 0
}

const (
	parseCount   = `treegiond_request_phase_seconds_count{phase="parse"}`
	profileCount = `treegiond_request_phase_seconds_count{phase="profile"}`
	compiles     = "treegiond_pipeline_compiles_total"
)

// requireParsesPerCompile asserts that every parse and every profile the
// daemon ran was a cold compile's.
func requireParsesPerCompile(t *testing.T, ts *httptest.Server, want int64) {
	t.Helper()
	p, pr, c := metric(t, ts, parseCount), metric(t, ts, profileCount), metric(t, ts, compiles)
	if p != want || pr != want || c != want {
		t.Fatalf("parses %d, profiles %d, compiles %d; want %d each", p, pr, c, want)
	}
}

// postRaw posts body to /v1/compile and returns the status and raw reply.
func postRaw(t *testing.T, ts *httptest.Server, body any) (int, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/compile", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// canonical drops the two reply fields that differ between a compile and
// a hit of one key.
func canonical(raw []byte) string {
	var out []string
	for _, line := range strings.Split(string(raw), "\n") {
		if t := strings.TrimSpace(line); !strings.HasPrefix(t, `"cached":`) && !strings.HasPrefix(t, `"elapsed_ms":`) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

// TestRequestKeyFields: a single-function compile is addressed by its
// request. The seed, the trips, every config field the fingerprint covers
// and the verify flag each split the key; seed 0 is seed 1, trips of 0 or
// fewer are 100, and schedules and trace, which only shape the reply, do
// not split it. Every request that splits the key parses and profiles
// once; every one that does not, neither.
func TestRequestKeyFields(t *testing.T) {
	_, ts := testServer(t)
	ir := fig1(t)
	with := func(kv ...any) map[string]any {
		m := map[string]any{"ir": ir}
		for i := 0; i < len(kv); i += 2 {
			m[kv[i].(string)] = kv[i+1]
		}
		return m
	}
	status, first := postRaw(t, ts, with())
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, first)
	}
	var base compileResponse
	if err := json.Unmarshal(first, &base); err != nil || base.Cached {
		t.Fatalf("first compile: cached %v, %v", base.Cached, err)
	}
	for _, tc := range []struct {
		name string
		body map[string]any
	}{
		{"seed 1", with("seed", 1)},
		{"seed 0", with("seed", 0)},
		{"trips 100", with("trips", 100)},
		{"trips 0", with("trips", 0)},
		{"trips -3", with("trips", -3)},
		{"schedules and trace", with("schedules", true, "trace", true)},
	} {
		resp, cr := postCompile(t, ts, mustJSON(t, tc.body))
		if resp.StatusCode != http.StatusOK || !cr.Cached {
			t.Errorf("%s: status %d, cached %v; want a hit", tc.name, resp.StatusCode, cr.Cached)
		}
		if cr.Time != base.Time || !slices.Equal(cr.ScheduleLengths, base.ScheduleLengths) {
			t.Errorf("%s: served %v %v, want %v %v", tc.name, cr.Time, cr.ScheduleLengths, base.Time, base.ScheduleLengths)
		}
		if tc.body["schedules"] == true && (len(cr.Schedules) != cr.Regions || len(cr.Trace) == 0) {
			t.Errorf("%s: a hit answered %d schedules for %d regions and %d trace phases", tc.name, len(cr.Schedules), cr.Regions, len(cr.Trace))
		}
	}
	requireParsesPerCompile(t, ts, 1)
	split := []struct {
		name string
		body map[string]any
	}{
		{"seed 2", with("seed", 2)},
		{"trips 50", with("trips", 50)},
		{"region sb", with("region", "sb")},
		{"machine 8U", with("machine", "8U")},
		{"expansion limit 3", with("expansion_limit", 3.0)},
		{"verify", with("verify", true)},
	}
	for _, tc := range split {
		resp, cr := postCompile(t, ts, mustJSON(t, tc.body))
		if resp.StatusCode != http.StatusOK || cr.Cached {
			t.Errorf("%s: status %d, cached %v; want a cold compile", tc.name, resp.StatusCode, cr.Cached)
		}
	}
	requireParsesPerCompile(t, ts, int64(1+len(split)))
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestRequestKeyWhitespaceIsAMiss: the key hashes the IR text byte for
// byte, so a text that differs only in whitespace is a second key, compiled
// once more to the same reply.
func TestRequestKeyWhitespaceIsAMiss(t *testing.T) {
	_, ts := testServer(t)
	ir := fig1(t)
	_, a := postRaw(t, ts, map[string]any{"ir": ir, "schedules": true})
	status, b := postRaw(t, ts, map[string]any{"ir": "\n" + strings.ReplaceAll(ir, "\n", " \n"), "schedules": true})
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, b)
	}
	if !bytes.Contains(b, []byte(`"cached": false`)) {
		t.Errorf("the respaced text hit the first text's key:\n%s", b)
	}
	if canonical(a) != canonical(b) {
		t.Errorf("replies differ:\n%s\n---\n%s", a, b)
	}
	requireParsesPerCompile(t, ts, 2)
}

// TestRequestKeyStoreHitAfterRestart counts the work each tier does: a
// cold request parses, profiles and compiles once; a memory hit and, after
// a restart on the same store, a store hit do none of it. Each reply is
// the cold one's.
func TestRequestKeyStoreHitAfterRestart(t *testing.T) {
	dir := t.TempDir()
	body := map[string]any{"ir": fig1(t), "schedules": true}
	s1, err := newServer(serverConfig{cacheBytes: 1 << 20, storeDir: dir, jobWorkers: 1, jobQueue: 8})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.routes())
	_, cold := postRaw(t, ts1, body)
	requireParsesPerCompile(t, ts1, 1)
	_, mem := postRaw(t, ts1, body)
	requireParsesPerCompile(t, ts1, 1)
	if n := metric(t, ts1, "treegiond_pipeline_cache_hits_total"); n != 1 {
		t.Errorf("memory hits %d, want 1", n)
	}
	ts1.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s1.shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	_, ts2 := storeServer(t, dir, 1, 8)
	_, stored := postRaw(t, ts2, body)
	requireParsesPerCompile(t, ts2, 0)
	if n := metric(t, ts2, "treegiond_pipeline_store_hits_total"); n != 1 {
		t.Errorf("store hits %d, want 1", n)
	}
	for name, raw := range map[string][]byte{"memory hit": mem, "store hit": stored} {
		if !bytes.Contains(raw, []byte(`"cached": true`)) || canonical(raw) != canonical(cold) {
			t.Errorf("%s differs from the cold reply:\n%s\n---\n%s", name, raw, cold)
		}
	}
}

// TestRequestKeyLoadErrorsNotCached: a body that fails to parse or to
// profile is not cached, so each repeat parses (and profiles) again, and
// neither is a compile error. A multi-function body still compiles as a
// program.
func TestRequestKeyLoadErrorsNotCached(t *testing.T) {
	_, ts := testServer(t)
	for i := 0; i < 2; i++ {
		if status, raw := postRaw(t, ts, map[string]any{"ir": "not a function"}); status != http.StatusBadRequest {
			t.Fatalf("bad ir: status %d: %s", status, raw)
		}
		if resp, _ := postCompile(t, ts, spinBody); resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("spin: status %d, want 422", resp.StatusCode)
		}
	}
	// Each bad body parses as one function and then as a program; each
	// spin body parses and profiles once.
	if p, pr := metric(t, ts, parseCount), metric(t, ts, profileCount); p != 6 || pr != 2 {
		t.Errorf("parses %d, profiles %d; want 6 and 2", p, pr)
	}
	resp, cr := postCompile(t, ts, mustJSON(t, map[string]any{"ir": callpair(t)}))
	if resp.StatusCode != http.StatusOK || cr.Functions != 2 {
		t.Fatalf("two-function body: status %d, %d functions; want 200, 2", resp.StatusCode, cr.Functions)
	}
	if n := metric(t, ts, "treegiond_pipeline_errors_total"); n != 0 {
		t.Errorf("pipeline errors %d, want 0", n)
	}
}

// TestRequestKeyVerifiedHitHoldsError: a verified result that holds an
// Error-severity diagnostic answers 422 verify_failed with its rules from
// the cache, every time, without parsing.
func TestRequestKeyVerifiedHitHoldsError(t *testing.T) {
	s, ts := testServer(t)
	req, f := api.DecodeCompile([]byte(mustJSON(t, map[string]any{"ir": fig1(t), "verify": true})))
	if f != nil {
		t.Fatal(f)
	}
	fn, err := treegion.ParseFunction(req.IR)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := treegion.ProfileFunction(fn, 1, 100)
	if err != nil {
		t.Fatal(err)
	}
	fr, _, err := treegion.CompileOne(context.Background(), fn, prof, req.Config)
	if err != nil {
		t.Fatal(err)
	}
	bad := *fr
	bad.Diagnostics = []treegion.Diagnostic{{Rule: "SC001", Severity: treegion.SeverityError, Fn: fn.Name, Block: 0, Op: -1, Message: "planted"}}
	s.cache.Put(req.Key(), compcache.NewEntry(&bad))
	for i := 0; i < 2; i++ {
		resp, err := http.Post(ts.URL+"/v1/compile", "application/json", strings.NewReader(mustJSON(t, map[string]any{"ir": req.IR, "verify": true})))
		if err != nil {
			t.Fatal(err)
		}
		er := decodeError(t, resp)
		if resp.StatusCode != http.StatusUnprocessableEntity || er.Error.Code != "verify_failed" || !slices.Equal(er.Error.Rules, []string{"SC001"}) {
			t.Fatalf("status %d, error %+v; want 422 verify_failed [SC001]", resp.StatusCode, er.Error)
		}
	}
	requireParsesPerCompile(t, ts, 0)
}

// TestConcurrentIdenticalColdRequests: identical cold requests in flight
// together coalesce on their request key before parsing, so eight of them
// run one parse, one profile and one compile, and all get its reply.
func TestConcurrentIdenticalColdRequests(t *testing.T) {
	_, ts := testServer(t)
	body := mustJSON(t, map[string]any{"ir": fig1(t), "schedules": true})
	const n = 8
	raws := make([][]byte, n)
	errs := make([]error, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			resp, err := http.Post(ts.URL+"/v1/compile", "application/json", strings.NewReader(body))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			raws[i], errs[i] = io.ReadAll(resp.Body)
			if errs[i] == nil && resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d: %s", resp.StatusCode, raws[i])
			}
		}()
	}
	close(start)
	wg.Wait()
	cold := 0
	for i, raw := range raws {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if bytes.Contains(raw, []byte(`"cached": false`)) {
			cold++
		}
		if canonical(raw) != canonical(raws[0]) {
			t.Errorf("request %d's reply differs from request 0's", i)
		}
	}
	if cold != 1 {
		t.Errorf("%d replies report a cold compile, want 1", cold)
	}
	requireParsesPerCompile(t, ts, 1)
}
