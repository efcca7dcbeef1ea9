package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"treegion/internal/api"
)

// storeServer builds a server backed by a persistent store directory (for
// journal-recovery tests) with the given queue shape.
func storeServer(t *testing.T, dir string, jobWorkers, jobQueue int) (*server, *httptest.Server) {
	t.Helper()
	s, err := newServer(serverConfig{
		cacheBytes: 1 << 20,
		storeDir:   dir,
		jobWorkers: jobWorkers,
		jobQueue:   jobQueue,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.routes())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.shutdown(ctx)
	})
	return s, ts
}

func postJob(t *testing.T, ts *httptest.Server, body string) (*http.Response, jobResponse) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var jr jobResponse
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
			t.Fatal(err)
		}
	}
	return resp, jr
}

func pollJob(t *testing.T, ts *httptest.Server, id string, want string) jobResponse {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var jr jobResponse
		err = json.NewDecoder(resp.Body).Decode(&jr)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if jr.State == want {
			return jr
		}
		if jr.State == "failed" || time.Now().After(deadline) {
			t.Fatalf("job %s reached %s (%s %s), want %s", id, jr.State, jr.Code, jr.Error, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestJobMatchesSynchronousCompile is the API acceptance check: POST
// /v1/jobs → poll → result returns the same compileResponse the
// synchronous /v1/compile endpoint produces, modulo the fields that
// describe transport (elapsed wall time, which request hit the cache).
func TestJobMatchesSynchronousCompile(t *testing.T) {
	_, ts := testServer(t)
	body, _ := json.Marshal(map[string]any{"ir": fig1(t), "schedules": true, "verify": true})

	resp, sync := postCompile(t, ts, string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sync status %d", resp.StatusCode)
	}

	jresp, jr := postJob(t, ts, string(body))
	if jresp.StatusCode != http.StatusAccepted {
		t.Fatalf("job submit status %d, want 202", jresp.StatusCode)
	}
	if loc := jresp.Header.Get("Location"); loc != "/v1/jobs/"+jr.ID {
		t.Fatalf("Location %q", loc)
	}
	done := pollJob(t, ts, jr.ID, "done")

	var async compileResponse
	if err := json.Unmarshal(done.Result, &async); err != nil {
		t.Fatal(err)
	}
	// Neutralize the transport-dependent fields, then demand byte-equal
	// JSON for everything else.
	async.ElapsedMS, sync.ElapsedMS = 0, 0
	async.Cached, sync.Cached = false, false
	aj, _ := json.Marshal(async)
	sj, _ := json.Marshal(sync)
	if !bytes.Equal(aj, sj) {
		t.Fatalf("async result differs from sync:\n--- async\n%s\n--- sync\n%s", aj, sj)
	}
	if !async.Verified || async.Function != "fig1" {
		t.Fatalf("async result %+v", async)
	}
}

func TestJobQueueOverflowAnswers429(t *testing.T) {
	// One worker, capacity one: a slow job occupies the worker, one more
	// fills the queue, and further submissions must bounce with 429
	// queue_full long before twelve arrive.
	_, ts := storeServer(t, t.TempDir(), 1, 1)

	got429 := false
	var accepted []string
	for i := 0; i < 12 && !got429; i++ {
		// Heavy profiling trips keep each job busy long enough that the
		// single worker cannot drain the queue between submissions.
		b, _ := json.Marshal(map[string]any{"ir": fig1(t), "trips": 2000000, "seed": uint64(i + 1)})
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(string(b)))
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		switch resp.StatusCode {
		case http.StatusAccepted:
			var jr jobResponse
			if err := json.Unmarshal(data, &jr); err != nil {
				t.Fatal(err)
			}
			accepted = append(accepted, jr.ID)
		case http.StatusTooManyRequests:
			var er api.Error
			if err := json.Unmarshal(data, &er); err != nil {
				t.Fatal(err)
			}
			if er.Error.Code != "queue_full" {
				t.Fatalf("429 code %q", er.Error.Code)
			}
			got429 = true
		default:
			t.Fatalf("status %d: %s", resp.StatusCode, data)
		}
	}
	if !got429 {
		t.Fatal("bounded queue never answered 429")
	}
	for _, id := range accepted {
		pollJob(t, ts, id, "done")
	}
}

func TestJobUnknownIs404(t *testing.T) {
	_, ts := testServer(t)
	resp, err := http.Get(ts.URL + "/v1/jobs/jdeadbeef")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", resp.StatusCode)
	}
	if er := decodeError(t, resp); er.Error.Code != "unknown_job" {
		t.Fatalf("code %q", er.Error.Code)
	}
}

func TestJobBadPayloadRejectedAtSubmit(t *testing.T) {
	_, ts := testServer(t)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(`{"nope": true}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	if er := decodeError(t, resp); er.Error.Code != "unknown_field" {
		t.Fatalf("code %q", er.Error.Code)
	}
}

// TestJobBadConfigRejectedAtSubmit: a payload whose config the normal form
// refuses answers 400 bad_config at submission, and no job is queued.
func TestJobBadConfigRejectedAtSubmit(t *testing.T) {
	s, ts := testServer(t)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(mustJSON(t, map[string]any{"ir": fig1(t), "region": "nope"})))
	if err != nil {
		t.Fatal(err)
	}
	if er := decodeError(t, resp); resp.StatusCode != http.StatusBadRequest || er.Error.Code != "bad_config" {
		t.Fatalf("status %d, code %q; want 400 bad_config", resp.StatusCode, er.Error.Code)
	}
	if n := len(s.jobs.List()); n != 0 {
		t.Fatalf("%d jobs queued, want 0", n)
	}
}

func TestJobCancelQueued(t *testing.T) {
	// Saturate the single worker so the second job stays queued, then
	// DELETE it before it runs.
	_, ts := storeServer(t, t.TempDir(), 1, 4)
	slow, _ := json.Marshal(map[string]any{"ir": fig1(t), "trips": 20000})
	fast, _ := json.Marshal(map[string]any{"ir": fig1(t), "seed": 99})
	_, first := postJob(t, ts, string(slow))
	_, second := postJob(t, ts, string(fast))

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+second.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var jr jobResponse
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if jr.State != "canceled" && jr.State != "queued" && jr.State != "running" && jr.State != "done" {
		t.Fatalf("cancel state %q", jr.State)
	}
	// Whatever the race with the worker, the job must settle terminally.
	deadline := time.Now().Add(30 * time.Second)
	for {
		got := pollAny(t, ts, second.ID)
		if got.State == "canceled" || got.State == "done" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s after cancel", got.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	pollJob(t, ts, first.ID, "done")
}

func pollAny(t *testing.T, ts *httptest.Server, id string) jobResponse {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var jr jobResponse
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		t.Fatal(err)
	}
	return jr
}

func TestJobListEndpoint(t *testing.T) {
	_, ts := testServer(t)
	body, _ := json.Marshal(map[string]any{"ir": fig1(t)})
	_, jr := postJob(t, ts, string(body))
	pollJob(t, ts, jr.ID, "done")

	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list struct {
		Jobs []jobResponse `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 1 || list.Jobs[0].ID != jr.ID {
		t.Fatalf("list %+v", list.Jobs)
	}
}

// TestJobJournalRecoveryAcrossRestart: jobs queued in one server process
// are journaled in the store and run to completion by the next process on
// the same store directory.
func TestJobJournalRecoveryAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	body, _ := json.Marshal(map[string]any{"ir": fig1(t)})

	// First "process": plant journal records exactly as a crash would leave
	// them — one job journaled as queued but never executed, one that was
	// mid-run when the process died.
	s1, err := newServer(serverConfig{cacheBytes: 1 << 20, storeDir: dir, jobWorkers: 1, jobQueue: 8})
	if err != nil {
		t.Fatal(err)
	}
	planted, _ := json.Marshal(map[string]any{
		"id": "jplanted", "state": "queued", "payload": json.RawMessage(body),
		"attempts": 0, "created": time.Now().Add(-time.Minute).Format(time.RFC3339Nano),
	})
	if err := s1.store.Journal().Put("jplanted", planted); err != nil {
		t.Fatal(err)
	}
	running, _ := json.Marshal(map[string]any{
		"id": "jwasrunning", "state": "running", "payload": json.RawMessage(body),
		"attempts": 1, "created": time.Now().Add(-time.Minute).Format(time.RFC3339Nano),
	})
	if err := s1.store.Journal().Put("jwasrunning", running); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	s1.shutdown(ctx)
	cancel()

	// Second "process" on the same directory.
	_, ts2 := storeServer(t, dir, 2, 8)
	done := pollJob(t, ts2, "jplanted", "done")
	var async compileResponse
	if err := json.Unmarshal(done.Result, &async); err != nil {
		t.Fatal(err)
	}
	if async.Function != "fig1" {
		t.Fatalf("recovered job compiled %q", async.Function)
	}
	interrupted := pollAny(t, ts2, "jwasrunning")
	if interrupted.State != "interrupted" {
		t.Fatalf("mid-run job after restart: %+v", interrupted)
	}
}
