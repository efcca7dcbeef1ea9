package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strings"
	"time"

	"treegion"
	"treegion/internal/api"
	"treegion/internal/jobs"
	"treegion/internal/telemetry"
)

// serverConfig collects the daemon's tunables (one field per flag).
type serverConfig struct {
	workers    int
	cacheBytes int64

	// storeDir, when non-empty, opens the persistent artifact store there
	// and layers it under the memory cache; storeBudget bounds its bytes.
	storeDir    string
	storeBudget int64

	// jobWorkers/jobQueue/jobTimeout configure the async job queue.
	jobWorkers int
	jobQueue   int
	jobTimeout time.Duration
}

// server is the daemon state: a shared tiered compile cache (memory over
// the optional persistent artifact store), the async job queue, pipeline
// metrics and a telemetry registry that every subsystem (cache, store,
// jobs, pipeline, HTTP layer, per-phase compile telemetry) reports through.
type server struct {
	workers int
	cache   *treegion.CompileCache
	store   *treegion.ArtifactStore
	jobs    *jobs.Queue
	metrics *treegion.CompileMetrics
	reg     *treegion.Telemetry

	// decodeSeconds, parseSeconds and profileSeconds time every decode of
	// a compile body, every parse of a request's IR and every profile of
	// one of its functions: the request's work before the compile trace
	// begins. Every request decodes its body; a single-function compile
	// parses and profiles only when neither cache tier holds its request
	// key.
	decodeSeconds, parseSeconds, profileSeconds *telemetry.Histogram

	start time.Time
}

func newServer(cfg serverConfig) (*server, error) {
	s := &server{
		workers: cfg.workers,
		cache:   treegion.NewCompileCache(cfg.cacheBytes),
		metrics: &treegion.CompileMetrics{},
		reg:     treegion.NewTelemetry(),
		start:   time.Now(),
	}
	phase := func(p string) *telemetry.Histogram {
		return s.reg.Histogram("treegiond_request_phase_seconds", telemetry.Labels{"phase": p},
			"Wall time per request phase before the compile: each decode of a compile body, each parse of the IR, each function's profile.", telemetry.DefBuckets)
	}
	s.decodeSeconds, s.parseSeconds, s.profileSeconds = phase("decode"), phase("parse"), phase("profile")
	s.cache.Register(s.reg, "treegiond")
	s.metrics.Register(s.reg, "treegiond")
	s.reg.GaugeFunc("treegiond_uptime_seconds", "Seconds since daemon start.", func() int64 {
		return int64(time.Since(s.start).Seconds())
	})

	var journal jobs.Journal
	if cfg.storeDir != "" {
		st, err := treegion.OpenArtifactStore(cfg.storeDir, cfg.storeBudget)
		if err != nil {
			return nil, fmt.Errorf("open artifact store: %w", err)
		}
		s.store = st
		s.cache.SetL2(st)
		st.Register(s.reg, "treegiond")
		journal = st.Journal()
	}

	q, err := jobs.New(jobs.Options{
		Workers:  cfg.jobWorkers,
		Capacity: cfg.jobQueue,
		Timeout:  cfg.jobTimeout,
		Journal:  journal,
		Run:      s.runJob,
	})
	if err != nil {
		return nil, err
	}
	s.jobs = q
	q.Register(s.reg, "treegiond")
	q.Start()
	return s, nil
}

// shutdown drains the daemon gracefully: stop accepting jobs, let running
// jobs finish (queued jobs stay journaled for the next start), then flush
// and close the store.
func (s *server) shutdown(ctx context.Context) error {
	err := s.jobs.Drain(ctx)
	if s.store != nil {
		if cerr := s.store.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// API version prefix. Every endpoint lives under it; any other path gets
// the structured 404.
const apiPrefix = "/v1"

func (s *server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(apiPrefix+"/compile", s.handleCompile)
	mux.HandleFunc(apiPrefix+"/compile-batch", s.handleCompileBatch)
	mux.HandleFunc(apiPrefix+"/jobs", s.handleJobs)
	mux.HandleFunc(apiPrefix+"/jobs/", s.handleJob)
	mux.HandleFunc(apiPrefix+"/metrics", s.handleMetrics)
	mux.HandleFunc(apiPrefix+"/store/stats", s.handleStoreStats)
	mux.HandleFunc(apiPrefix+"/healthz", s.handleHealthz)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		s.fail(w, http.StatusNotFound, "not_found", fmt.Errorf(
			"no such endpoint %q (want %[2]s/compile, %[2]s/compile-batch, %[2]s/jobs, %[2]s/metrics, %[2]s/store/stats or %[2]s/healthz)",
			r.URL.Path, apiPrefix))
	})
	return mux
}

// debugRoutes serves net/http/pprof on the -debug-addr listener, kept off
// the public mux so profiling is never exposed on the service port.
func debugRoutes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// tracePhase is one row of the optional per-phase trace in the response.
type tracePhase struct {
	Calls int64   `json:"calls"`
	Ops   int64   `json:"ops"`
	MS    float64 `json:"ms"`
}

// compileResponse is the POST /v1/compile reply: the schedule metadata and
// timing of one compiled function.
type compileResponse struct {
	Function        string  `json:"function"`
	Time            float64 `json:"time_cycles"`
	TimeWithCopies  float64 `json:"time_with_copies_cycles"`
	OpsBefore       int     `json:"ops_before"`
	OpsAfter        int     `json:"ops_after"`
	Regions         int     `json:"regions"`
	ScheduleLengths []int   `json:"schedule_lengths"`
	Speculated      int     `json:"speculated"`
	Renamed         int     `json:"renamed"`
	Copies          int     `json:"copies"`
	Merged          int     `json:"merged"`
	BranchCycles    int     `json:"branch_cycles"`
	Cached          bool    `json:"cached"`
	// Functions is the function count of a multi-function compile (omitted
	// for the single-function requests the endpoint has always served).
	Functions int `json:"functions,omitempty"`
	// Inline statistics, present when the request enabled inlining and the
	// compile consulted the inliner.
	Inlined        int                   `json:"inlined,omitempty"`
	InlinedOps     int                   `json:"inlined_ops,omitempty"`
	InlineDeclined int                   `json:"inline_declined,omitempty"`
	ElapsedMS      float64               `json:"elapsed_ms"`
	Schedules      []string              `json:"schedules,omitempty"`
	Trace          map[string]tracePhase `json:"trace,omitempty"`
	// Verified is true when the request asked for verification and every
	// rule passed; Diagnostics carries any advisory (sub-Error) findings.
	Verified    bool     `json:"verified,omitempty"`
	Diagnostics []string `json:"diagnostics,omitempty"`
}

// decode runs one of api's compile-body decoders on body, timed as the
// request's decode phase.
func decode[T any](s *server, dec func([]byte) (T, *api.Failure), body []byte) (T, *api.Failure) {
	start := time.Now()
	v, f := dec(body)
	s.decodeSeconds.ObserveDuration(time.Since(start))
	return v, f
}

// parseAndProfile turns one function's IR into a parsed function and its
// stochastic profile under c (the compile pipeline's two inputs).
func (s *server) parseAndProfile(ir string, c *api.CompileConfig) (*treegion.Function, *treegion.ProfileData, *api.Failure) {
	start := time.Now()
	fn, err := treegion.ParseFunction(ir)
	s.parseSeconds.ObserveDuration(time.Since(start))
	if err != nil {
		return nil, nil, api.Fail(http.StatusBadRequest, "bad_ir", fmt.Errorf("parse ir: %w", err))
	}
	prof, err := s.profile(c, fn, 0)
	if err != nil {
		return nil, nil, api.Fail(http.StatusUnprocessableEntity, "profile_failed", fmt.Errorf("profile: %w", err))
	}
	return fn, prof, nil
}

// profile profiles fn as function i of a body normalized to c: at its seed
// plus i, for its trips.
func (s *server) profile(c *api.CompileConfig, fn *treegion.Function, i int) (*treegion.ProfileData, error) {
	start := time.Now()
	prof, err := treegion.ProfileFunction(fn, c.Seed+uint64(i), c.Trips)
	s.profileSeconds.ObserveDuration(time.Since(start))
	return prof, err
}

// parseProgram parses ir as a program of one or more functions.
func (s *server) parseProgram(ir string) (*treegion.IRProgram, *api.Failure) {
	start := time.Now()
	irprog, err := treegion.ParseIRProgram(ir)
	s.parseSeconds.ObserveDuration(time.Since(start))
	if err != nil {
		return nil, api.Fail(http.StatusBadRequest, "bad_ir", fmt.Errorf("parse ir: %w", err))
	}
	return irprog, nil
}

// compileOptions assembles the pipeline options every compile on this
// daemon shares: the worker pool bound, the tiered cache/store, metrics and
// telemetry — plus verification when the request asks for it.
func (s *server) compileOptions(verify bool) []treegion.CompileOption {
	copts := []treegion.CompileOption{
		treegion.WithWorkers(s.workers),
		treegion.WithCache(s.cache),
		treegion.WithMetrics(s.metrics),
		treegion.WithTelemetry(s.reg),
	}
	if verify {
		copts = append(copts, treegion.WithVerify())
	}
	return copts
}

// compileConfig is what a body in normal form compiles: its Config cfg,
// with the default inlining budgets when the body says "inline": true.
// The program path and the batch compile under it; the single-function
// path never inlines.
func compileConfig(body *api.CompileConfig, cfg treegion.Config) treegion.Config {
	if body.Inline {
		cfg.Inline = treegion.DefaultInlineConfig()
	}
	return cfg
}

// compileError maps a pipeline error onto the structured API error space.
func compileError(err error) *api.Failure {
	var vf *treegion.VerifyFailure
	if errors.As(err, &vf) {
		f := api.Fail(http.StatusUnprocessableEntity, "verify_failed", vf)
		f.Detail.Rules = vf.Rules()
		for _, d := range vf.Diagnostics {
			f.Detail.Diagnostics = append(f.Detail.Diagnostics, d.String())
		}
		return f
	}
	return api.Fail(http.StatusUnprocessableEntity, "compile_failed", fmt.Errorf("compile: %w", err))
}

// compile is the request core shared by the synchronous handler and the
// async job runner: compile through the tiered cache, shape the response.
// ElapsedMS is left for the caller. A single-function request without
// inlining is looked up by its request key and parsed and profiled only
// when neither tier holds it; a multi-function "ir" or "inline": true
// compiles the resolved program as one unit.
func (s *server) compile(ctx context.Context, req *api.Compile) (*compileResponse, *api.Failure) {
	// Inline requests and multi-function sources (the single-function parser
	// rejects a second `func` declaration) go through the program path. Only
	// a body the single-function parser rejected falls back to it: a body
	// that parsed but failed to profile is not profiled a second time.
	if req.Inline {
		return s.compileProgram(ctx, req, nil)
	}
	fr, cached, err := treegion.CompileKeyed(ctx, req.Key(), func() (*treegion.Function, *treegion.ProfileData, error) {
		fn, prof, f := s.parseAndProfile(req.IR, &req.CompileConfig)
		if f != nil {
			return nil, nil, f
		}
		return fn, prof, nil
	}, req.Config, s.compileOptions(req.Verify)...)
	if f, ok := err.(*api.Failure); ok {
		if f.Detail.Code == "bad_ir" {
			if irprog, perr := s.parseProgram(req.IR); perr == nil {
				return s.compileProgram(ctx, req, irprog)
			}
		}
		return nil, f
	}
	if err != nil {
		return nil, compileError(err)
	}
	return s.shapeResponse(&req.CompileBody, fr, cached), nil
}

// compileProgram serves the interprocedural request shape: the "ir" field
// holds a whole program, whose call graph must resolve; with "inline" set,
// eligible callees splice into the growing treegions. irprog is the body
// already parsed as a program, or nil to parse it here.
func (s *server) compileProgram(ctx context.Context, req *api.Compile, irprog *treegion.IRProgram) (*compileResponse, *api.Failure) {
	if irprog == nil {
		var f *api.Failure
		if irprog, f = s.parseProgram(req.IR); f != nil {
			return nil, f
		}
	}
	prog := &treegion.Program{Name: irprog.Funcs[0].Name, Funcs: irprog.Funcs}
	var profs treegion.Profiles
	for i, fn := range irprog.Funcs {
		prof, err := s.profile(&req.CompileConfig, fn, i)
		if err != nil {
			return nil, api.Fail(http.StatusUnprocessableEntity, "profile_failed", fmt.Errorf("profile %s: %w", fn.Name, err))
		}
		profs = append(profs, prof)
	}
	res, err := treegion.Compile(ctx, prog, profs, compileConfig(&req.CompileConfig, req.Config), s.compileOptions(req.Verify)...)
	if err != nil {
		return nil, compileError(err)
	}
	return s.shapeProgramResponse(&req.CompileBody, res), nil
}

// shapeProgramResponse renders a whole-program compile: aggregate time,
// code size, scheduling counters and the inline record, with the
// per-function details (schedules, traces) concatenated in function order.
func (s *server) shapeProgramResponse(req *api.CompileBody, res *treegion.ProgramResult) *compileResponse {
	resp := &compileResponse{
		Function:  res.Name,
		Functions: len(res.Funcs),
		Time:      res.Time,
	}
	for _, fr := range res.Funcs {
		resp.TimeWithCopies += fr.Copies
		resp.OpsBefore += fr.OpsBefore
		resp.OpsAfter += fr.OpsAfter
		resp.Regions += len(fr.Regions)
		resp.Speculated += fr.NumSpeculated
		resp.Renamed += fr.NumRenamed
		resp.Copies += fr.NumCopies
		resp.Merged += fr.NumMerged
		resp.BranchCycles += fr.Sched.BranchCycles
		for _, sc := range fr.Schedules {
			resp.ScheduleLengths = append(resp.ScheduleLengths, sc.Length)
			if req.Schedules {
				resp.Schedules = append(resp.Schedules, sc.String())
			}
		}
		if req.Verify {
			for _, d := range fr.Diagnostics {
				resp.Diagnostics = append(resp.Diagnostics, d.String())
			}
		}
	}
	if req.Verify {
		resp.Verified = true
	}
	if req.Inline {
		resp.Inlined = res.Inline.Inlined
		resp.InlinedOps = res.Inline.InlinedOps
		resp.InlineDeclined = res.Inline.Declined()
	}
	return resp
}

// shapeResponse renders one compiled function as the API response body
// (shared by /v1/compile, /v1/jobs and each /v1/compile-batch line).
func (s *server) shapeResponse(req *api.CompileBody, fr *treegion.FunctionResult, cached bool) *compileResponse {
	resp := &compileResponse{
		Function:       fr.Fn.Name,
		Time:           fr.Time,
		TimeWithCopies: fr.Copies,
		OpsBefore:      fr.OpsBefore,
		OpsAfter:       fr.OpsAfter,
		Regions:        len(fr.Regions),
		Speculated:     fr.NumSpeculated,
		Renamed:        fr.NumRenamed,
		Copies:         fr.NumCopies,
		Merged:         fr.NumMerged,
		BranchCycles:   fr.Sched.BranchCycles,
		Cached:         cached,
	}
	if req.Verify {
		resp.Verified = true
		for _, d := range fr.Diagnostics {
			resp.Diagnostics = append(resp.Diagnostics, d.String())
		}
	}
	if req.Inline {
		resp.Inlined = fr.Inline.Inlined
		resp.InlinedOps = fr.Inline.InlinedOps
		resp.InlineDeclined = fr.Inline.Declined()
	}
	for _, sc := range fr.Schedules {
		resp.ScheduleLengths = append(resp.ScheduleLengths, sc.Length)
		if req.Schedules {
			resp.Schedules = append(resp.Schedules, sc.String())
		}
	}
	if req.Trace && fr.Trace != nil {
		resp.Trace = make(map[string]tracePhase)
		for p, ps := range fr.Trace.Phase {
			if ps.Calls == 0 {
				continue
			}
			resp.Trace[treegion.Phase(p).String()] = tracePhase{
				Calls: ps.Calls,
				Ops:   ps.Ops,
				MS:    float64(ps.Duration().Microseconds()) / 1000,
			}
		}
	}
	return resp
}

func (s *server) handleCompile(w http.ResponseWriter, r *http.Request) {
	s.reg.Counter("treegiond_http_compile_requests_total", "POST /v1/compile requests.").Inc()
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
	req, f := decode(s, api.DecodeCompile, body)
	if f != nil {
		s.writeError(w, f)
		return
	}
	resp, f := s.compile(r.Context(), req)
	if f != nil {
		s.writeError(w, f)
		return
	}
	resp.ElapsedMS = float64(time.Since(started).Microseconds()) / 1000
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(resp)
}

// runJob is the async job runner: the journaled payload is a compile
// request body, the result is the same compileResponse the synchronous
// endpoint returns.
func (s *server) runJob(ctx context.Context, payload json.RawMessage) (json.RawMessage, error) {
	req, f := decode(s, api.DecodeCompile, payload)
	if f != nil {
		return nil, f
	}
	started := time.Now()
	resp, f := s.compile(ctx, req)
	if f != nil {
		return nil, f
	}
	resp.ElapsedMS = float64(time.Since(started).Microseconds()) / 1000
	return json.Marshal(resp)
}

// jobResponse is the job-endpoint reply shape.
type jobResponse struct {
	ID       string          `json:"id"`
	State    string          `json:"state"`
	Attempts int             `json:"attempts,omitempty"`
	Result   json.RawMessage `json:"result,omitempty"`
	Error    string          `json:"error,omitempty"`
	Code     string          `json:"error_code,omitempty"`
}

func jobView(j jobs.Job) jobResponse {
	return jobResponse{
		ID:       j.ID,
		State:    string(j.State),
		Attempts: j.Attempts,
		Result:   j.Result,
		Error:    j.Error,
		Code:     j.ErrorCode,
	}
}

// handleJobs serves the collection: POST submits a compile job (202 with
// the job ID; 429 when the queue is full), GET lists known jobs.
func (s *server) handleJobs(w http.ResponseWriter, r *http.Request) {
	s.reg.Counter("treegiond_http_jobs_requests_total", "/v1/jobs requests.").Inc()
	switch r.Method {
	case http.MethodPost:
		body, f := api.ReadBody(w, r)
		if f != nil {
			s.writeError(w, f)
			return
		}
		// Reject malformed payloads at submission, not at execution.
		if _, f := decode(s, api.DecodeCompile, body); f != nil {
			s.writeError(w, f)
			return
		}
		j, err := s.jobs.Submit(body)
		switch {
		case errors.Is(err, jobs.ErrQueueFull):
			s.writeError(w, api.Fail(http.StatusTooManyRequests, "queue_full",
				fmt.Errorf("job queue is full; retry later or raise -job-queue")))
			return
		case errors.Is(err, jobs.ErrDraining):
			s.writeError(w, api.Fail(http.StatusServiceUnavailable, "draining",
				fmt.Errorf("daemon is shutting down")))
			return
		case err != nil:
			s.writeError(w, api.Fail(http.StatusInternalServerError, "submit_failed", err))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Location", apiPrefix+"/jobs/"+j.ID)
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(jobView(j))
	case http.MethodGet:
		list := s.jobs.List()
		views := make([]jobResponse, len(list))
		for i, j := range list {
			views[i] = jobView(j)
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{"jobs": views})
	default:
		s.fail(w, http.StatusMethodNotAllowed, "method_not_allowed", fmt.Errorf("POST or GET required"))
	}
}

// handleJob serves one job: GET polls state/result, DELETE cancels.
func (s *server) handleJob(w http.ResponseWriter, r *http.Request) {
	s.reg.Counter("treegiond_http_jobs_requests_total", "/v1/jobs requests.").Inc()
	id := strings.TrimPrefix(r.URL.Path, apiPrefix+"/jobs/")
	if id == "" || strings.ContainsRune(id, '/') {
		s.fail(w, http.StatusNotFound, "not_found", fmt.Errorf("no such endpoint %q", r.URL.Path))
		return
	}
	switch r.Method {
	case http.MethodGet:
		j, ok := s.jobs.Get(id)
		if !ok {
			s.fail(w, http.StatusNotFound, "unknown_job", fmt.Errorf("no job %q", id))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(jobView(j))
	case http.MethodDelete:
		j, ok := s.jobs.Cancel(id)
		if !ok {
			s.fail(w, http.StatusNotFound, "unknown_job", fmt.Errorf("no job %q", id))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(jobView(j))
	default:
		s.fail(w, http.StatusMethodNotAllowed, "method_not_allowed", fmt.Errorf("GET or DELETE required"))
	}
}

// fail writes the structured error body with the given HTTP status and
// machine-readable code.
func (s *server) fail(w http.ResponseWriter, status int, code string, err error) {
	s.writeError(w, api.Fail(status, code, err))
}

// writeError answers one request with a structured failure, carrying the
// verifier rule IDs and diagnostics when the failure has them.
func (s *server) writeError(w http.ResponseWriter, f *api.Failure) {
	s.reg.Counter("treegiond_http_request_errors_total",
		"Requests answered with an error status.").Inc()
	api.WriteError(w, f.Status, f.Detail)
}

// handleStoreStats reports the persistent artifact store's counters — the
// tiered cache's disk layer — including how many lookups were rejected for
// carrying a different payload schema (schema_skew: tgart1 or any foreign
// tgart2 revision reads as a plain miss). Without -store-dir the body is
// {"enabled": false, ...zeros}.
func (s *server) handleStoreStats(w http.ResponseWriter, r *http.Request) {
	s.reg.Counter("treegiond_http_store_stats_requests_total", "GET /v1/store/stats requests.").Inc()
	if r.Method != http.MethodGet {
		s.fail(w, http.StatusMethodNotAllowed, "method_not_allowed", fmt.Errorf("GET required"))
		return
	}
	var resp api.StoreStats
	if s.store != nil {
		st := s.store.Stats()
		resp = api.StoreStats{
			Enabled:       true,
			SchemaVersion: s.store.SchemaVersion(),
			Hits:          st.Hits,
			Misses:        st.Misses,
			Puts:          st.Puts,
			Evictions:     st.Evictions,
			Corrupt:       st.Corrupt,
			SchemaSkew:    st.SchemaSkew,
			WriteErrors:   st.WriteErrors,
			EncodeErrors:  st.EncodeErrors,
			Entries:       st.Entries,
			Bytes:         st.Bytes,
			Budget:        st.Budget,
		}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(resp)
}

// handleMetrics renders the whole registry — cache, pipeline, HTTP and
// per-phase compile telemetry — in Prometheus text exposition format.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.reg.Counter("treegiond_http_metrics_requests_total", "GET /v1/metrics requests.").Inc()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WritePrometheus(w)
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.reg.Counter("treegiond_http_healthz_requests_total", "GET /v1/healthz requests.").Inc()
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\"status\":\"ok\",\"uptime_seconds\":%d}\n", int64(time.Since(s.start).Seconds()))
}
