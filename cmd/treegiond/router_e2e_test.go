package main

// End-to-end shard-router tests: two real in-process treegiond instances
// behind internal/router must be indistinguishable from one daemon — batch
// result lines byte-identical, single compiles identical modulo wall-clock
// — and a client that abandons a batch stream must stop the compiles it
// left behind.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"treegion"
	"treegion/internal/progen"
	"treegion/internal/router"
	"treegion/internal/telemetry"
)

// presetIRs renders a progen preset's functions to textual IR.
func presetIRs(t *testing.T, p progen.Preset) []string {
	t.Helper()
	prog, err := progen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	irs := make([]string, len(prog.Funcs))
	for i, fn := range prog.Funcs {
		irs[i] = treegion.PrintFunction(fn)
	}
	return irs
}

func batchBody(t *testing.T, irs []string, trips int) []byte {
	t.Helper()
	fns := make([]map[string]string, len(irs))
	for i, ir := range irs {
		fns[i] = map[string]string{"ir": ir}
	}
	b, err := json.Marshal(map[string]any{"functions": fns, "trips": trips})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// postNDJSON posts body and returns the raw NDJSON lines.
func postNDJSON(t *testing.T, url string, body []byte) []string {
	t.Helper()
	resp, err := http.Post(url+"/v1/compile-batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		t.Fatalf("batch status %d: %s", resp.StatusCode, data)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("batch Content-Type = %q, want application/x-ndjson", ct)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(lines) == 0 {
		t.Fatal("empty batch response")
	}
	return lines
}

// routedFleet boots n treegiond instances and a router in front of them,
// returning the router's base URL.
func routedFleet(t *testing.T, n int) string {
	t.Helper()
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		_, ts := testServer(t)
		urls[i] = ts.URL
	}
	rt, err := router.New(router.Config{Replicas: urls, Registry: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)
	return front.URL
}

// A two-replica fleet behind the router must produce byte-identical batch
// result lines to a single daemon: result lines carry no wall-clock fields,
// and compilation is deterministic in the inputs.
func TestRouterBatchByteIdenticalToSingleDaemon(t *testing.T) {
	preset, _ := progen.PresetByName("compress")
	irs := presetIRs(t, preset)
	body := batchBody(t, irs, 8)

	_, single := testServer(t)
	want := postNDJSON(t, single.URL, body)

	frontURL := routedFleet(t, 2)
	got := postNDJSON(t, frontURL, body)

	if len(got) != len(want) {
		t.Fatalf("line counts differ: router %d, single %d", len(got), len(want))
	}
	// Every line but the trailing summary must match byte for byte.
	for i := 0; i < len(want)-1; i++ {
		if got[i] != want[i] {
			t.Fatalf("result line %d differs\nrouter: %s\nsingle: %s", i, got[i], want[i])
		}
	}
	// The summary differs only in elapsed_ms.
	var gs, ws map[string]any
	if err := json.Unmarshal([]byte(got[len(got)-1]), &gs); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(want[len(want)-1]), &ws); err != nil {
		t.Fatal(err)
	}
	delete(gs, "elapsed_ms")
	delete(ws, "elapsed_ms")
	if fmt.Sprint(gs) != fmt.Sprint(ws) {
		t.Fatalf("summaries differ beyond elapsed_ms:\nrouter: %v\nsingle: %v", gs, ws)
	}
}

// Single compiles through the router must equal direct compiles modulo the
// elapsed_ms wall-clock field, and repeating a body must keep landing on
// the same replica (the second round is a cache hit somewhere).
func TestRouterCompileMatchesSingleDaemon(t *testing.T) {
	preset, _ := progen.PresetByName("compress")
	irs := presetIRs(t, preset)

	_, single := testServer(t)
	frontURL := routedFleet(t, 2)

	normalize := func(data []byte) string {
		var m map[string]any
		if err := json.Unmarshal(data, &m); err != nil {
			t.Fatalf("bad compile response: %v: %s", err, data)
		}
		delete(m, "elapsed_ms")
		delete(m, "cached")
		out, _ := json.Marshal(m)
		return string(out)
	}
	post := func(url, ir string) string {
		body, _ := json.Marshal(map[string]any{"ir": ir, "trips": 8})
		resp, err := http.Post(url+"/v1/compile", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("compile status %d: %s", resp.StatusCode, data)
		}
		return normalize(data)
	}
	for i, ir := range irs {
		direct := post(single.URL, ir)
		routed := post(frontURL, ir)
		if direct != routed {
			t.Fatalf("function %d: routed result differs from direct\nrouted: %s\ndirect: %s", i, routed, direct)
		}
	}
}

// Abandoning a batch stream must stop the remaining compiles: the request
// context is the pipeline context, so a disconnect cancels queued work
// instead of compiling for a reader that is gone.
func TestBatchClientDisconnectStopsCompiling(t *testing.T) {
	s, ts := testServer(t)

	// Unique, deliberately heavy functions (no cache hits, long compiles)
	// so cancellation demonstrably lands before the batch drains. At 3000
	// ops, all ten compile before a disconnect lands on a quiet 2-vCPU
	// host; 12000 leaves a wide margin.
	p := progen.Stress()
	p.NumFuncs, p.OpsPerFunc = 10, 12000
	irs := presetIRs(t, p)
	body := batchBody(t, irs, 2)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/compile-batch", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	// Read exactly one result line, then walk away.
	br := bufio.NewReader(resp.Body)
	if _, err := br.ReadString('\n'); err != nil {
		t.Fatalf("reading first batch line: %v", err)
	}
	cancel()

	// The daemon must notice the disconnect and count an aborted stream.
	// Registration is idempotent, so this resolves the handler's counter.
	aborts := s.reg.Counter("treegiond_http_compile_batch_aborts_total",
		"Batch streams aborted by client disconnect or write failure.")
	deadline := time.Now().Add(15 * time.Second)
	for aborts.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("abort counter never ticked: compiles=%d inFlight=%d",
				s.metrics.Compiles.Load(), s.metrics.InFlight.Load())
		}
		time.Sleep(20 * time.Millisecond)
	}
	// Let any in-flight compile land, then confirm the batch stopped short.
	for s.metrics.InFlight.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("pipeline never drained: inFlight=%d", s.metrics.InFlight.Load())
		}
		time.Sleep(20 * time.Millisecond)
	}
	if compiles := s.metrics.Compiles.Load(); compiles >= int64(len(irs)) {
		t.Fatalf("all %d functions compiled despite client disconnect after line 1", len(irs))
	}
}
