package main

// POST /v1/compile-batch: the streaming batch endpoint. The request names a
// list of functions plus one shared configuration; the response is NDJSON —
// one line per function, written and flushed as soon as that function's
// compile lands (the pipeline delivers results in index order, so the
// stream is deterministic and byte-comparable across daemons), then one
// trailing summary line carrying the only wall-clock field. Store, verify
// and telemetry semantics are /v1/compile's, and every function goes
// through the same tiered GetOrCompute path, but under its content key:
// every line is parsed and profiled before the stream opens, where
// /v1/compile keys a single function by its request and parses only on a
// miss. So a batch line and a /v1/compile of the same function never share
// an artifact, in either direction (DESIGN.md §27).
//
// Two streaming-specific behaviours, both load-bearing:
//
//   - The response runs under per-write deadlines (http.ResponseController)
//     instead of the server's whole-response write timeout, which a long
//     batch would otherwise trip mid-stream.
//   - The request context is the pipeline context: a client that goes away
//     cancels the remaining compiles instead of leaving the daemon heating
//     the room for a reader that no longer exists.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"treegion"
	"treegion/internal/api"
)

// batchLine is one NDJSON result line. Exactly one of Result and Error is
// set. Result carries no wall-clock fields — lines are deterministic in the
// inputs, which the router's byte-identity tests rely on; timing lives in
// the summary line.
type batchLine struct {
	Index  int              `json:"index"`
	Result *compileResponse `json:"result,omitempty"`
	Error  *batchLineError  `json:"error,omitempty"`
}

// batchLineError is a per-function failure: the batch keeps streaming.
type batchLineError struct {
	Code    string   `json:"code"`
	Message string   `json:"message"`
	Rules   []string `json:"rules,omitempty"`
}

// batchSummary is the final NDJSON line of every completed stream.
type batchSummary struct {
	Done      bool    `json:"done"`
	Functions int     `json:"functions"`
	Errors    int     `json:"errors"`
	Cached    int     `json:"cached"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

func (s *server) handleCompileBatch(w http.ResponseWriter, r *http.Request) {
	s.reg.Counter("treegiond_http_compile_batch_requests_total", "POST /v1/compile-batch requests.").Inc()
	if r.Method != http.MethodPost {
		s.fail(w, http.StatusMethodNotAllowed, "method_not_allowed", fmt.Errorf("POST required"))
		return
	}
	started := time.Now()
	body, f := api.ReadBody(w, r)
	if f != nil {
		s.writeError(w, f)
		return
	}
	req, f := decode(s, api.DecodeBatch, body)
	if f != nil {
		s.writeError(w, f)
		return
	}
	// Parse and profile every function before the first response byte, so
	// malformed input still gets a clean HTTP error status instead of a
	// broken 200 stream.
	n := len(req.Functions)
	fns := make([]*treegion.Function, n)
	profs := make([]*treegion.ProfileData, n)
	for i, bf := range req.Functions {
		fn, prof, f := s.parseAndProfile(bf.IR, &req.CompileConfig)
		if f != nil {
			f.Detail.Message = fmt.Sprintf("functions[%d]: %s", i, f.Detail.Message)
			s.writeError(w, f)
			return
		}
		fns[i], profs[i] = fn, prof
	}
	// An inlining batch must resolve into a program; reject an unresolvable
	// one here, while a clean HTTP error status is still possible (the
	// pipeline would re-derive the same failure after the 200 header).
	if req.Inline {
		if _, err := treegion.ResolveProgram(fns); err != nil {
			s.writeError(w, api.Fail(http.StatusBadRequest, "bad_program", err))
			return
		}
	}
	s.reg.Counter("treegiond_http_compile_batch_functions_total",
		"Functions received on /v1/compile-batch.").Add(int64(n))

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.Header().Set("X-Accel-Buffering", "no") // defeat proxy buffering
	w.WriteHeader(http.StatusOK)

	rc := http.NewResponseController(w)
	enc := json.NewEncoder(w)
	// Every line is shaped as a /v1/compile reply to the batch's config.
	shape := api.CompileBody{CompileConfig: req.CompileConfig, Schedules: req.Schedules}
	nErrors, nCached := 0, 0
	emit := func(i int, fr *treegion.FunctionResult, cached bool, cerr error) error {
		line := batchLine{Index: i}
		if cerr != nil {
			nErrors++
			f := compileError(cerr)
			line.Error = &batchLineError{Code: f.Detail.Code, Message: f.Detail.Message, Rules: f.Detail.Rules}
		} else {
			if cached {
				nCached++
			}
			line.Result = s.shapeResponse(&shape, fr, cached)
		}
		// Each line gets its own write window: long batches must not trip
		// the server-wide response write timeout mid-stream.
		_ = rc.SetWriteDeadline(time.Now().Add(30 * time.Second))
		if err := enc.Encode(&line); err != nil {
			return err
		}
		return rc.Flush()
	}
	if err := treegion.CompileEach(r.Context(), fns, profs, req.Config, emit, s.compileOptions(req.Verify, req.Inline)...); err != nil {
		// The client is gone (write failure or disconnect-driven cancel);
		// there is nobody left to send a summary to.
		s.reg.Counter("treegiond_http_compile_batch_aborts_total",
			"Batch streams aborted by client disconnect or write failure.").Inc()
		return
	}
	_ = rc.SetWriteDeadline(time.Now().Add(30 * time.Second))
	enc.Encode(batchSummary{
		Done:      true,
		Functions: n,
		Errors:    nErrors,
		Cached:    nCached,
		ElapsedMS: float64(time.Since(started).Microseconds()) / 1000,
	})
	rc.Flush()
}
