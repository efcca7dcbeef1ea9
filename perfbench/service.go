package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"treegion"
	"treegion/internal/compcache"
	"treegion/internal/eval"
	"treegion/internal/irtext"
	"treegion/internal/store"
	"treegion/internal/verify"
)

// The service stream. Every pass replays svcPattern: C is a key never
// requested before (a cold compile, then an encode and store write), M
// repeats a key first requested at least four slots earlier in the same
// pass (a memory-cache hit), S repeats a key from a pass at least
// svcStoreAge passes back (evicted from memory by then, so a store read
// and tgart2 decode). A fixed pattern gives every pass the same tier mix,
// so per-pass figures are comparable and the mix does not drift with
// throughput.
//
// The draws are stratified as well. A request's time is mostly the
// daemon's profiling run, and that cost differs between the suite's
// functions by a factor of a hundred. So the functions, ordered by their
// interpreted op count under a fixed profiling seed, are split into one
// stratum of nearly equal size per cold slot. Cold key j of every pass
// comes from stratum j, and the k-th M or S slot of every pass repeats a
// fixed cold index. Every pass then asks for the same spread of costs in
// every tier, and only the function within a stratum, the config and the
// profiling seed vary from pass to pass and from seed to seed.
const (
	svcPattern    = "CSCSCMSCMMCMSMCMMSMMMSMM"
	svcWarmPasses = 24 // fills the store so S slots have old keys to draw
	svcStoreAge   = 24
	svcTrips      = 100 // the daemon's default profile trip count
	// svcCacheBytes is the daemon's memory budget: 32 shards of 384 KiB,
	// a few suite-sized results per shard. The stream's distinct keys
	// need hundreds of MiB, so S keys are long evicted while M keys, a few
	// slots old, are still resident.
	svcCacheBytes = 12 << 20
	svcSetupReps  = 11
	svcCostSeed   = 1 // the profiling seed that ranks functions by cost
)

var svcColdPerPass = strings.Count(svcPattern, "C")

// svcKeyID names a key by the pass that first requested it and its cold
// index there.
type svcKeyID struct{ pass, j int }

// svcKey is a key's content: function, config, profiling seed.
type svcKey struct {
	fn, cfg int
	pseed   uint64
}

// svcKeyOf draws key id's content; its function comes from the stratum
// of its cold index.
func svcKeyOf(seed uint64, id svcKeyID, strata [][]int) svcKey {
	h := mix(mix(seed, uint64(id.pass)), uint64(id.j)+1<<40)
	st := strata[id.j%len(strata)]
	return svcKey{fn: st[h%uint64(len(st))], cfg: int(h>>20) & 1, pseed: 1 + (h>>24)%1_000_000_000}
}

// svcStrata orders the function indices by cost and cuts them into
// svcColdPerPass runs of nearly equal length, so every function is drawn
// about as often as with a uniform draw.
func svcStrata(cost []float64) [][]int {
	idx := make([]int, len(cost))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return cost[idx[a]] < cost[idx[b]] })
	strata := make([][]int, svcColdPerPass)
	for k := range strata {
		strata[k] = idx[k*len(idx)/svcColdPerPass : (k+1)*len(idx)/svcColdPerPass]
	}
	return strata
}

type svcReq struct {
	id   svcKeyID
	key  svcKey
	tier byte // 'C', 'M' or 'S'
}

// svcPassRequests is pass p of the seeded stream.
func svcPassRequests(seed uint64, p int, strata [][]int) []svcReq {
	rng := rand.New(rand.NewSource(int64(mix(seed, uint64(p)+1<<50))))
	reqs := make([]svcReq, 0, len(svcPattern))
	var colds []int // slot of each cold key of this pass
	nm, ns := 0, 0  // M and S slots so far
	for i, t := range []byte(svcPattern) {
		var id svcKeyID
		switch {
		case t == 'M':
			n := 0
			for n < len(colds) && colds[n] <= i-4 {
				n++
			}
			id = svcKeyID{p, nm % n}
			nm++
		case t == 'S' && p >= svcStoreAge:
			id = svcKeyID{rng.Intn(p - svcStoreAge + 1), ns % svcColdPerPass}
			ns++
		default:
			// A cold slot, or an S slot before the store has old keys: a
			// fresh key numbered past the pass's C keys.
			j := len(colds)
			if t == 'S' {
				j = svcColdPerPass + i
			} else {
				colds = append(colds, i)
			}
			id = svcKeyID{p, j}
		}
		reqs = append(reqs, svcReq{id: id, key: svcKeyOf(seed, id, strata), tier: t})
	}
	return reqs
}

// svcRequest is the POST /v1/compile body.
type svcRequest struct {
	IR             string  `json:"ir"`
	Region         string  `json:"region,omitempty"`
	Machine        string  `json:"machine,omitempty"`
	ExpansionLimit float64 `json:"expansion_limit,omitempty"`
	Seed           uint64  `json:"seed"`
}

// svcConfigs are the daemon-side configs of the two request shapes,
// built exactly as treegiond's configFrom builds them.
var svcConfigs = [2]struct {
	region, machine string
	limit           float64
}{{"tree", "4U", 0}, {"tree-td", "8U", 2.0}}

func svcConfig(ci int) treegion.Config {
	sc := svcConfigs[ci]
	kind, _ := treegion.ParseRegionKind(sc.region)
	m, _ := treegion.MachineByName(sc.machine)
	return treegion.Config{
		Kind: kind, Heuristic: treegion.GlobalWeight, Machine: m, Rename: true,
		DominatorParallelism: kind == treegion.TreegionTD,
		TD:                   treegion.TDConfig{ExpansionLimit: 2.0, PathLimit: 20, MergeLimit: 4},
	}
}

// summary is the part of a response the replay and verifier compare.
type summary struct {
	Time      float64 `json:"time_cycles"`
	Lengths   []int   `json:"schedule_lengths"`
	OpsBefore int     `json:"ops_before"`
	OpsAfter  int     `json:"ops_after"`
	Cached    bool    `json:"cached"`
}

func summarize(fr *eval.FunctionResult) summary {
	s := summary{Time: fr.Time, OpsBefore: fr.OpsBefore, OpsAfter: fr.OpsAfter}
	for _, sc := range fr.Schedules {
		s.Lengths = append(s.Lengths, sc.Length)
	}
	return s
}

func (a summary) same(b summary) bool {
	if a.Time != b.Time || a.OpsBefore != b.OpsBefore || a.OpsAfter != b.OpsAfter || len(a.Lengths) != len(b.Lengths) {
		return false
	}
	for i := range a.Lengths {
		if a.Lengths[i] != b.Lengths[i] {
			return false
		}
	}
	return true
}

// canonical drops the two fields that legitimately differ between tiers.
func canonical(body []byte) []byte {
	var out []byte
	for _, line := range bytes.Split(body, []byte("\n")) {
		t := bytes.TrimSpace(line)
		if bytes.HasPrefix(t, []byte(`"cached":`)) || bytes.HasPrefix(t, []byte(`"elapsed_ms":`)) {
			continue
		}
		out = append(out, line...)
		out = append(out, '\n')
	}
	return out
}

// svc holds the service workload's inputs.
type svc struct {
	seed   uint64
	texts  []string
	ops    []int
	strata [][]int
}

// newSvc prints the published suite's functions. The population is the
// same for every seed, so only the stream varies: re-drawn functions would
// move the profiler's cost, which follows each function's loop trip counts,
// from seed to seed by more than the code under test does. It profiles each
// function once to rank it by cost for the strata.
func newSvc(seed uint64) (*svc, error) {
	progs, err := generateSuite(0)
	if err != nil {
		return nil, err
	}
	s := &svc{seed: seed}
	var cost []float64
	for _, p := range progs {
		for _, fn := range p.Funcs {
			s.texts = append(s.texts, treegion.PrintFunction(fn))
			s.ops = append(s.ops, fn.NumOps())
			prof, err := treegion.ProfileFunction(fn, svcCostSeed, svcTrips)
			if err != nil {
				return nil, fmt.Errorf("profile %s: %w", fn.Name, err)
			}
			cost = append(cost, dynOps(fn, prof))
		}
	}
	s.strata = svcStrata(cost)
	return s, nil
}

func (s *svc) pass(p int) []svcReq { return svcPassRequests(s.seed, p, s.strata) }

func (s *svc) body(k svcKey) ([]byte, error) {
	sc := svcConfigs[k.cfg]
	return json.Marshal(svcRequest{IR: s.texts[k.fn], Region: sc.region, Machine: sc.machine, ExpansionLimit: sc.limit, Seed: k.pseed})
}

// daemon is one treegiond child process.
type daemon struct {
	cmd  *exec.Cmd
	base string
	log  *os.File
	done chan struct{}
}

// startDaemon starts treegiond on a free loopback port and returns once
// /v1/healthz answers.
func startDaemon(ctx context.Context, bin, storeDir, logPath string) (*daemon, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-addr", addr, "-workers", "1", "-job-workers", "1",
		"-cache-bytes", strconv.Itoa(svcCacheBytes), "-store-dir", storeDir)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d := &daemon{cmd: cmd, base: "http://" + addr, log: logf, done: make(chan struct{})}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start treegiond: %w", err)
	}
	go func() { cmd.Wait(); close(d.done) }()
	hc := &http.Client{Timeout: time.Second}
	defer hc.CloseIdleConnections()
	for {
		resp, err := hc.Get(d.base + "/v1/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case <-d.done:
			d.stop()
			return nil, fmt.Errorf("treegiond exited during start-up; see %s", logPath)
		case <-ctx.Done():
			d.stop()
			return nil, ctx.Err()
		case <-time.After(200 * time.Microsecond):
		}
		if time.Since(t0) > 30*time.Second {
			d.stop()
			return nil, fmt.Errorf("treegiond not healthy after 30s; see %s", logPath)
		}
	}
}

// stop asks the daemon to drain, kills it if it has not exited within ten
// seconds, and waits for it either way.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		<-d.done
	}
	d.log.Close()
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// counters reads the daemon's cache and store counters.
type daemonCounters struct {
	cacheHits, cacheMisses       float64
	storeHits, storeMisses, puts float64
}

func (d *daemon) counters(hc *http.Client) (daemonCounters, error) {
	var c daemonCounters
	resp, err := hc.Get(d.base + "/v1/metrics")
	if err != nil {
		return c, err
	}
	text, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return c, err
	}
	for _, line := range strings.Split(string(text), "\n") {
		f := strings.Fields(line)
		if len(f) != 2 {
			continue
		}
		v, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			continue
		}
		switch f[0] {
		case "treegiond_cache_hits_total":
			c.cacheHits = v
		case "treegiond_cache_misses_total":
			c.cacheMisses = v
		}
	}
	resp, err = hc.Get(d.base + "/v1/store/stats")
	if err != nil {
		return c, err
	}
	defer resp.Body.Close()
	var st struct {
		Hits, Misses, Puts float64
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return c, fmt.Errorf("decode /v1/store/stats: %w", err)
	}
	c.storeHits, c.storeMisses, c.puts = st.Hits, st.Misses, st.Puts
	return c, nil
}

func (a daemonCounters) sub(b daemonCounters) daemonCounters {
	return daemonCounters{a.cacheHits - b.cacheHits, a.cacheMisses - b.cacheMisses,
		a.storeHits - b.storeHits, a.storeMisses - b.storeMisses, a.puts - b.puts}
}

// svcPass is one pass of the stream served by the daemon.
type svcPass struct {
	reqs []svcReq
	lat  []float64 // ms per request, as the client sees it
	sums []summary
	wall time.Duration
	cpu  time.Duration // the daemon's CPU over the pass
	peak float64       // MiB, the daemon's VmHWM over the pass
	ops  int
}

// client drives the daemon with a closed loop over one connection, so one
// request is in flight at a time and the daemon's work runs on one core,
// as the compile workloads' does; and it remembers every key's first
// response for the tier-identity check.
type client struct {
	s     *svc
	d     *daemon
	hc    *http.Client
	first map[svcKeyID][]byte
	rep   *report
}

func newClient(s *svc, d *daemon, rep *report) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{s: s, d: d, hc: &http.Client{Transport: tr, Timeout: 2 * time.Minute},
		first: make(map[svcKeyID][]byte), rep: rep}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// runPass serves pass p: request bodies are built first, then the timer
// starts and the requests go out one after another in stream order.
func (c *client) runPass(ctx context.Context, p int) (*svcPass, error) {
	sp := &svcPass{reqs: c.s.pass(p)}
	n := len(sp.reqs)
	bodies := make([][]byte, n)
	for i, r := range sp.reqs {
		b, err := c.s.body(r.key)
		if err != nil {
			return nil, err
		}
		bodies[i] = b
		sp.ops += c.s.ops[r.key.fn]
	}
	sp.lat = make([]float64, n)
	sp.sums = make([]summary, n)
	resps := make([][]byte, n)
	errs := make([]error, n)
	pid := strconv.Itoa(c.d.pid())
	resetPeakRSS(pid) // a failed reset is reported once, in run
	cpu0, err := procCPU(c.d.pid())
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	for i := range bodies {
		t := time.Now()
		resps[i], errs[i] = c.post(ctx, bodies[i])
		sp.lat[i] = float64(time.Since(t)) / 1e6
	}
	sp.wall = time.Since(t0)
	cpu1, err := procCPU(c.d.pid())
	if err != nil {
		return nil, err
	}
	sp.cpu = cpu1 - cpu0
	if sp.peak, err = peakRSSMiB(pid); err != nil {
		return nil, err
	}
	for i, r := range sp.reqs {
		if errs[i] != nil {
			c.rep.fail("pass %d request %d (%c): %v", p, i, r.tier, errs[i])
			continue
		}
		if err := json.Unmarshal(resps[i], &sp.sums[i]); err != nil {
			c.rep.fail("pass %d request %d: decode response: %v", p, i, err)
			continue
		}
		canon := canonical(resps[i])
		if prev, ok := c.first[r.id]; !ok {
			c.first[r.id] = canon
		} else if !bytes.Equal(prev, canon) {
			c.rep.fail("pass %d request %d (%c): response differs from the key's first response", p, i, r.tier)
		}
	}
	return sp, ctx.Err()
}

func (c *client) post(ctx context.Context, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.d.base+"/v1/compile", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

// svcRun is what one daemon-driven run measured.
type svcRun struct {
	passes   []*svcPass     // every pass, warm-up included
	measured int            // index of the first measured pass
	counters daemonCounters // over the measured window
}

// serve drives the daemon through the warm-up passes and then measured
// passes until window is spent.
func (c *client) serve(ctx context.Context, window time.Duration) (*svcRun, error) {
	run := &svcRun{measured: svcWarmPasses}
	for p := 0; p < svcWarmPasses; p++ {
		sp, err := c.runPass(ctx, p)
		if err != nil {
			return nil, err
		}
		run.passes = append(run.passes, sp)
	}
	k0, err := c.d.counters(c.hc)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	for p := svcWarmPasses; p == svcWarmPasses || time.Since(start) < window; p++ {
		sp, err := c.runPass(ctx, p)
		if err != nil {
			return nil, err
		}
		run.passes = append(run.passes, sp)
	}
	k1, err := c.d.counters(c.hc)
	if err != nil {
		return nil, err
	}
	run.counters = k1.sub(k0)
	return run, nil
}

// runService is the service workload: setup is input generation (the
// cost ranking's profiling runs included) plus daemon start until healthy,
// repeated; the last daemon serves the stream.
func runService(ctx context.Context, o runOpts, rep *report) error {
	if o.daemon == "" {
		return fmt.Errorf("service: --daemon (the treegiond binary) is required")
	}
	root, err := os.MkdirTemp(o.out, "service-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)
	var setups []float64
	var s *svc
	var d *daemon
	for i := 0; i < svcSetupReps; i++ {
		runtime.GC() // no set-up pays for the last one's garbage
		t0 := time.Now()
		if s, err = newSvc(o.seed); err != nil {
			return err
		}
		dir := filepath.Join(root, fmt.Sprintf("store%d", i))
		dd, err := startDaemon(ctx, o.daemon, dir, filepath.Join(o.out, "treegiond.log"))
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < svcSetupReps-1 {
			dd.stop()
			os.RemoveAll(dir)
			continue
		}
		d = dd
	}
	defer d.stop()
	rep.linef("# inputs: %d suite functions x %d configs; pattern %s per pass; 1 connection; daemon -workers 1 -cache-bytes %d",
		len(s.texts), len(svcConfigs), svcPattern, svcCacheBytes)

	c := newClient(s, d, rep)
	defer c.close()
	window := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		// The daemon side only has to cover the requests the replay will
		// subtract from; the replays take the rest of the time.
		window /= 6
	}
	run, err := c.serve(ctx, window)
	if err != nil {
		return err
	}
	measured := run.passes[run.measured:]
	nreq := 0
	for _, sp := range measured {
		nreq += len(sp.reqs)
	}
	rep.attempted += nreq
	k := run.counters
	rep.linef("# daemon window: %d passes, %d requests; cache hits %.0f misses %.0f; store hits %.0f misses %.0f puts %.0f",
		len(measured), nreq, k.cacheHits, k.cacheMisses, k.storeHits, k.storeMisses, k.puts)
	if k.cacheHits == 0 || k.storeHits == 0 || k.puts == 0 {
		rep.fail("the window did not exercise every tier (memory hits %.0f, store hits %.0f, cold compiles %.0f)", k.cacheHits, k.storeHits, k.puts)
	}
	est, exp, err := s.checkReference(ctx, c, rep)
	if err != nil {
		return err
	}
	if o.trace {
		return s.runTraced(ctx, run, root, o, rep)
	}

	var kops, cpu, peaks, lat []float64
	for _, sp := range measured {
		kops = append(kops, float64(sp.ops)/1000/sp.wall.Seconds())
		peaks = append(peaks, sp.peak)
		// A daemon thread that exited during the pass took its time with
		// it; such a pass has no CPU figure.
		if sp.cpu > 0 {
			cpu = append(cpu, float64(sp.cpu)/1e6/(float64(sp.ops)/1000))
		}
		lat = append(lat, sp.lat...)
	}
	rep.addTimed("setup_s", setups, "s")
	rep.addTimed("kops_per_s", kops, "kops/s")
	rep.addTimed("cpu_ms_per_kop", cpu, "ms")
	rep.addTimed("peak_rss_mb", peaks, "MiB")
	printLatency(rep, lat, "/v1/compile request")
	rep.add("est_mcycles", est, "Mcycles/Mop")
	rep.add("code_expansion", exp, "x")
	rep.linef("metric %-26s %14.6g fraction (%d failed of %d attempted)", "fail_frac",
		float64(len(rep.failures))/float64(rep.attempted), len(rep.failures), rep.attempted)
	return nil
}

// refKeys are every function under both configs, each with a profiling
// seed drawn from the run's seed: the set est_mcycles and code_expansion
// are computed over, so they cover the whole population on every seed.
func (s *svc) refKeys() []svcKey {
	var out []svcKey
	for fn := range s.texts {
		for ci := range svcConfigs {
			h := mix(mix(s.seed, 1<<60), uint64(2*fn+ci))
			out = append(out, svcKey{fn: fn, cfg: ci, pseed: 1 + h%1_000_000_000})
		}
	}
	return out
}

// checkReference sends every reference key to the daemon, outside the
// timed window, compiles the same key in-process, and checks that the two
// agree and that the verifier (with the differential interpretation)
// passes. It returns the keys' estimated cycles per profiled op and their
// Σ ops-after / Σ ops-before.
func (s *svc) checkReference(ctx context.Context, c *client, rep *report) (float64, float64, error) {
	var est, dyn float64
	var before, after int
	var sc scratch
	keys := s.refKeys()
	for _, k := range keys {
		rep.attempted++
		body, err := s.body(k)
		if err != nil {
			return 0, 0, err
		}
		resp, err := c.post(ctx, body)
		if err != nil {
			rep.fail("reference key %v: %v", k, err)
			continue
		}
		var want summary
		if err := json.Unmarshal(resp, &want); err != nil {
			rep.fail("reference key %v: decode response: %v", k, err)
			continue
		}
		fn, err := treegion.ParseFunction(s.texts[k.fn])
		if err != nil {
			return 0, 0, err
		}
		prof, err := treegion.ProfileFunction(fn, k.pseed, svcTrips)
		if err != nil {
			return 0, 0, err
		}
		cfg := svcConfig(k.cfg)
		fr, err := replayFunction(nil, fn, prof, cfg, &sc)
		if err != nil {
			rep.fail("reference key %v: in-process compile: %v", k, err)
			continue
		}
		if !summarize(fr).same(want) {
			rep.fail("reference key %v: in-process compile differs from the daemon's response", k)
		}
		if ds := verify.Compiled(fr.Fn, fr.Regions, fr.Schedules, verifyOptions(fn, cfg)); verify.HasErrors(ds) {
			rep.fail("verify reference key %v: %v", k, verify.Rules(ds))
		}
		est += fr.Time
		dyn += dynOps(fn, prof)
		before += fr.OpsBefore
		after += fr.OpsAfter
	}
	rep.linef("# check: %d reference keys served by the daemon, recompiled in-process, matched and verified (IR/RG/SC/SEM)", len(keys))
	if before == 0 || dyn == 0 {
		return 0, 0, fmt.Errorf("service: no reference key compiled")
	}
	return est / dyn, float64(after) / float64(before), nil
}

// tiers is one in-process memory cache over one artifact store.
type tiers struct {
	cache *compcache.Cache
	st    *store.Store
	ts    *timedStore
	sc    scratch
}

func newTiers(dir string, rec *recorder) (*tiers, error) {
	st, err := store.Open(dir, 0)
	if err != nil {
		return nil, err
	}
	t := &tiers{cache: compcache.New(svcCacheBytes), st: st}
	if rec != nil {
		t.ts = &timedStore{st: st, rec: rec}
		t.cache.SetL2(t.ts)
	} else {
		t.cache.SetL2(st)
	}
	return t, nil
}

// timedStore wraps the artifact store's Get and Put in spans.
type timedStore struct {
	st         *store.Store
	rec        *recorder
	gets, puts []float64 // ms per call, while keep is set
	keep       bool
}

func (t *timedStore) Get(k compcache.Key) (*eval.FunctionResult, bool) {
	s := t.rec.begin(lStoreGet)
	t0 := time.Now()
	fr, ok := t.st.Get(k)
	if t.keep {
		t.gets = append(t.gets, float64(time.Since(t0))/1e6)
	}
	t.rec.end(s)
	return fr, ok
}

func (t *timedStore) Put(k compcache.Key, fr *eval.FunctionResult) error {
	s := t.rec.begin(lStorePut)
	t0 := time.Now()
	err := t.st.Put(k, fr)
	if t.keep {
		t.puts = append(t.puts, float64(time.Since(t0))/1e6)
	}
	t.rec.end(s)
	return err
}

// replayRequest serves one request in-process the way treegiond does:
// parse, profile, then the tiered cache with a compile behind it.
func (s *svc) replayRequest(rec *recorder, t *tiers, r svcReq) (*eval.FunctionResult, error) {
	sp := rec.begin(lParse)
	fn, err := treegion.ParseFunction(s.texts[r.key.fn])
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	sp = rec.begin(lProfile)
	prof, err := treegion.ProfileFunction(fn, r.key.pseed, svcTrips)
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	cfg := svcConfig(r.key.cfg)
	key := contentKey(fn, prof, cfg)
	sp = rec.begin(lCache)
	fr, _, err := t.cache.GetOrCompute(key, func() (*eval.FunctionResult, error) {
		g := rec.begin(lGlue)
		defer rec.end(g)
		return replayFunction(rec, fn, prof, cfg, &t.sc)
	})
	rec.end(sp)
	return fr, err
}

// contentKey is the pipeline's cache key for an inline-free compile:
// the compact IR key form, the profile key form and the config
// fingerprint.
func contentKey(fn *treegion.Function, prof *treegion.ProfileData, c treegion.Config) compcache.Key {
	buf := irtext.AppendFuncKey(nil, fn)
	mark := len(buf)
	buf = prof.AppendKey(buf)
	return compcache.KeyOfBytes(buf[:mark], buf[mark:], c.Fingerprint())
}

// runTraced replays every pass the daemon served, in order, twice: once
// untraced on one cache+store pair and once traced on another, so both
// replays see the tier mix the daemon saw. The measured passes feed the
// ledger; each replayed response must match the daemon's.
func (s *svc) runTraced(ctx context.Context, run *svcRun, root string, o runOpts, rep *report) error {
	plain, err := newTiers(filepath.Join(root, "replay-plain"), nil)
	if err != nil {
		return err
	}
	defer plain.st.Close()
	rec := newRecorder()
	traced, err := newTiers(filepath.Join(root, "replay-traced"), rec)
	if err != nil {
		return err
	}
	defer traced.st.Close()

	var led ledger
	tiers := map[byte]*tierLedger{'C': {}, 'M': {}, 'S': {}}
	var overhead, clientLat []float64
	var cacheSelf time.Duration
	cacheCalls := 0
	for p, sp := range run.passes {
		if err := ctx.Err(); err != nil {
			return err
		}
		isMeasured := p >= run.measured
		g0 := readGo()
		t0 := time.Now()
		for i, r := range sp.reqs {
			ti := time.Now()
			fr, err := s.replayRequest(nil, plain, r)
			if err != nil {
				return fmt.Errorf("replay pass %d request %d: %w", p, i, err)
			}
			if isMeasured && p != run.measured {
				overhead = append(overhead, sp.lat[i]-float64(time.Since(ti))/1e6)
				clientLat = append(clientLat, sp.lat[i])
			}
			if !summarize(fr).same(sp.sums[i]) {
				rep.fail("replay pass %d request %d: differs from the daemon's response", p, i)
			}
		}
		plainWall := time.Since(t0)
		gd := readGo().sub(g0)

		rec.pass = int32(p)
		mark, c0 := len(rec.spans), rec.c
		// The first measured pass counts ddg allocations and stays out of
		// the ledger; the rest are timed.
		allocPass := p == run.measured
		rec.countAllocs = allocPass
		traced.ts.keep = isMeasured && !allocPass
		t0 = time.Now()
		for i, r := range sp.reqs {
			m, tr0 := len(rec.spans), time.Now()
			fr, err := s.replayRequest(rec, traced, r)
			if err != nil {
				return fmt.Errorf("traced replay pass %d request %d: %w", p, i, err)
			}
			if isMeasured && !allocPass {
				tiers[r.tier].add(rec.selfTimes(m), time.Since(tr0))
			}
			if !summarize(fr).same(sp.sums[i]) {
				rep.fail("traced replay pass %d request %d: differs from the daemon's response", p, i)
			}
		}
		tracedWall := time.Since(t0)
		if allocPass {
			led.ddgAllocMiB = float64(rec.c.ddgAllocBytes-c0.ddgAllocBytes) / (1 << 20)
		}
		if !isMeasured || allocPass {
			continue
		}
		led.addPass(rec, mark, c0, tracedWall, plainWall)
		led.plainOps += sp.ops
		led.goDelta.gcCPU += gd.gcCPU
		led.goDelta.totalCPU += gd.totalCPU
		led.goDelta.allocBytes += gd.allocBytes
		for _, x := range rec.spans[mark:] {
			if x.layer == lCache {
				cacheCalls++
			}
		}
		cacheSelf += time.Duration(rec.selfTimes(mark)[lCache])
	}
	k := run.counters
	if t := k.cacheHits + k.cacheMisses; t > 0 {
		led.cacheHitRatio = k.cacheHits / t
	}
	if t := k.storeHits + k.storeMisses; t > 0 {
		led.storeHitRatio = k.storeHits / t
	}
	ovP50 := median(overhead)
	led.httpOverheadShare = ovP50 / median(clientLat)
	led.emit(rep)
	getUS, putUS := 1000*median(traced.ts.gets), 1000*median(traced.ts.puts)
	rep.linef("layer %-20s %10.3f us per call (%d calls)", "compcache.get_us", float64(cacheSelf)/1e3/float64(cacheCalls), cacheCalls)
	rep.linef("layer %-20s %10.3f us (%d calls)", "store.get_us_p50", getUS, len(traced.ts.gets))
	rep.linef("layer %-20s %10.3f us (%d calls)", "store.put_us_p50", putUS, len(traced.ts.puts))
	rep.linef("layer %-20s %10.3f ms (%d requests; client latency minus the in-process replay of the same request)", "http.overhead_ms_p50", ovP50, len(overhead))
	for _, t := range []byte("CMS") {
		tiers[t].print(rep, t)
	}
	if err := rec.write(spanPath(o)); err != nil {
		return err
	}
	rep.linef("# spans written to %s", spanPath(o))
	return nil
}

// tierLedger sums the traced replay's self times over the requests of one
// stream tier, so the ledger can show where a memory hit's time goes apart
// from a cold compile's.
type tierLedger struct {
	n    int
	wall time.Duration
	self [numLayers]int64
}

func (t *tierLedger) add(self [numLayers]int64, wall time.Duration) {
	t.n++
	t.wall += wall
	for i, v := range self {
		t.self[i] += v
	}
}

func (t *tierLedger) print(rep *report, tier byte) {
	if t.n == 0 {
		return
	}
	var parts []string
	attributed := int64(0)
	for l := layer(0); l < lGlue; l++ {
		attributed += t.self[l]
		if share := float64(t.self[l]) / float64(t.wall); share >= 0.005 {
			parts = append(parts, fmt.Sprintf("%s %.1f%%", layerMetric[l], 100*share))
		}
	}
	parts = append(parts, fmt.Sprintf("unattributed %.1f%%", 100*(1-float64(attributed)/float64(t.wall))))
	rep.linef("# tier %c: %d requests, %.3f ms each: %s", tier, t.n, float64(t.wall)/1e6/float64(t.n), strings.Join(parts, ", "))
}
