package main

// POST /v1/compile-batch: the streaming batch endpoint. The request names a
// list of functions plus one shared configuration; the response is NDJSON —
// one line per function, written and flushed as soon as that function's
// compile lands (the pipeline delivers results in index order, so the
// stream is deterministic and byte-comparable across daemons), then one
// trailing summary line carrying the only wall-clock field. Cache, store,
// verify and telemetry semantics are exactly /v1/compile's: every function
// goes through the same tiered GetOrCompute path.
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
)

// batchRequest is the POST /v1/compile-batch body: shared configuration
// (same fields and defaults as /v1/compile) plus the function list.
type batchRequest struct {
	Functions []batchFunction `json:"functions"`

	Region         string  `json:"region"`
	Heuristic      string  `json:"heuristic"`
	Machine        string  `json:"machine"`
	Rename         *bool   `json:"rename"`
	DomPar         bool    `json:"dompar"`
	IfConvert      bool    `json:"ifconvert"`
	ExpansionLimit float64 `json:"expansion_limit"`
	Seed           uint64  `json:"seed"`
	Trips          int     `json:"trips"`
	Schedules      bool    `json:"schedules"`
	Verify         bool    `json:"verify"`
	// Inline resolves the batch's functions into one program and splices
	// eligible callees into the growing treegions. The batch must form a
	// valid program: function names unique, every named callee present in
	// the batch, call arities matching the callee signatures.
	Inline bool `json:"inline"`
}

// batchFunction is one function of a batch.
type batchFunction struct {
	IR string `json:"ir"`
}

// batchRequestFields lists the accepted body fields for the unknown-field
// 400.
var batchRequestFields = []string{
	"functions", "region", "heuristic", "machine", "rename", "dompar",
	"ifconvert", "expansion_limit", "seed", "trips", "schedules", "verify",
	"inline",
}

// maxBatchFunctions bounds one batch; bigger workloads belong on several
// requests (which the router will spread across shards anyway).
const maxBatchFunctions = 1024

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

// compileRequestFor projects the shared batch configuration onto the
// single-compile request shape so configFrom/parseAndProfile/shapeResponse
// are shared verbatim with /v1/compile.
func (br *batchRequest) compileRequestFor(ir string) *compileRequest {
	return &compileRequest{
		IR:             ir,
		Region:         br.Region,
		Heuristic:      br.Heuristic,
		Machine:        br.Machine,
		Rename:         br.Rename,
		DomPar:         br.DomPar,
		IfConvert:      br.IfConvert,
		ExpansionLimit: br.ExpansionLimit,
		Seed:           br.Seed,
		Trips:          br.Trips,
		Schedules:      br.Schedules,
		Verify:         br.Verify,
		Inline:         br.Inline,
	}
}

func decodeBatchRequest(data []byte) (*batchRequest, *apiError) {
	var req batchRequest
	if aerr := decodeStrict(data, &req, batchRequestFields); aerr != nil {
		return nil, aerr
	}
	if len(req.Functions) == 0 {
		return nil, apiErr(http.StatusBadRequest, "missing_field", fmt.Errorf("missing or empty \"functions\" field"))
	}
	if len(req.Functions) > maxBatchFunctions {
		return nil, apiErr(http.StatusBadRequest, "batch_too_large",
			fmt.Errorf("%d functions in one batch (max %d)", len(req.Functions), maxBatchFunctions))
	}
	for i, f := range req.Functions {
		if f.IR == "" {
			return nil, apiErr(http.StatusBadRequest, "missing_field", fmt.Errorf("functions[%d]: missing \"ir\" field", i))
		}
	}
	return &req, nil
}

func (s *server) handleCompileBatch(w http.ResponseWriter, r *http.Request) {
	s.reg.Counter("treegiond_http_compile_batch_requests_total", "POST /v1/compile-batch requests.").Inc()
	if r.Method != http.MethodPost {
		s.fail(w, http.StatusMethodNotAllowed, "method_not_allowed", fmt.Errorf("POST required"))
		return
	}
	started := time.Now()
	body, aerr := s.readBody(w, r)
	if aerr != nil {
		s.writeError(w, aerr)
		return
	}
	req, aerr := decodeBatchRequest(body)
	if aerr != nil {
		s.writeError(w, aerr)
		return
	}
	shared := req.compileRequestFor("")
	cfg, err := s.configFrom(shared)
	if err != nil {
		s.writeError(w, apiErr(http.StatusBadRequest, "bad_config", err))
		return
	}
	// Parse and profile every function before the first response byte, so
	// malformed input still gets a clean HTTP error status instead of a
	// broken 200 stream.
	n := len(req.Functions)
	fns := make([]*treegion.Function, n)
	profs := make([]*treegion.ProfileData, n)
	for i, f := range req.Functions {
		fn, prof, aerr := s.parseAndProfile(req.compileRequestFor(f.IR))
		if aerr != nil {
			aerr.msg = fmt.Sprintf("functions[%d]: %s", i, aerr.msg)
			s.writeError(w, aerr)
			return
		}
		fns[i], profs[i] = fn, prof
	}
	// An inlining batch must resolve into a program; reject an unresolvable
	// one here, while a clean HTTP error status is still possible (the
	// pipeline would re-derive the same failure after the 200 header).
	if req.Inline {
		if _, err := treegion.ResolveProgram(fns); err != nil {
			s.writeError(w, apiErr(http.StatusBadRequest, "bad_program", err))
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
	nErrors, nCached := 0, 0
	emit := func(i int, fr *treegion.FunctionResult, cached bool, cerr error) error {
		line := batchLine{Index: i}
		if cerr != nil {
			nErrors++
			ae := compileError(cerr)
			line.Error = &batchLineError{Code: ae.code, Message: ae.msg, Rules: ae.rules}
		} else {
			if cached {
				nCached++
			}
			line.Result = s.shapeResponse(req.compileRequestFor(req.Functions[i].IR), fr, cached)
		}
		// Each line gets its own write window: long batches must not trip
		// the server-wide response write timeout mid-stream.
		_ = rc.SetWriteDeadline(time.Now().Add(30 * time.Second))
		if err := enc.Encode(&line); err != nil {
			return err
		}
		return rc.Flush()
	}
	err = treegion.CompileEach(r.Context(), fns, profs, cfg, emit, s.compileOptions(req.Verify, req.Inline)...)
	if err != nil {
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
