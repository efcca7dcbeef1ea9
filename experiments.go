package treegion

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"treegion/internal/compcache"
	"treegion/internal/core"
	"treegion/internal/eval"
	"treegion/internal/linear"
	"treegion/internal/machine"
	"treegion/internal/pipeline"
	"treegion/internal/regalloc"
	"treegion/internal/telemetry"
)

// Suite caches the generated benchmark programs, their profiles, and every
// whole-program compile (the 1U basic-block baselines included), so the
// experiments (one per paper table/figure) don't regenerate shared state.
// Program compiles run on the concurrent pipeline over a shared
// content-addressed function cache, and the memoization map is
// mutex-guarded, so Suite methods may be called from multiple goroutines.
type Suite struct {
	Programs []*Program
	Profiles []Profiles

	mu    sync.Mutex
	cache map[string]*ProgramResult

	workers int
	ccache  *compcache.Cache
	metrics pipeline.Metrics
	reg     *telemetry.Registry
}

// NewSuite generates and profiles all eight benchmarks.
func NewSuite() (*Suite, error) {
	progs, err := GenerateSuite()
	if err != nil {
		return nil, err
	}
	s := &Suite{
		Programs: progs,
		cache:    make(map[string]*ProgramResult),
		ccache:   compcache.New(compcache.DefaultBudget),
		reg:      telemetry.NewRegistry(),
	}
	s.ccache.Register(s.reg, "treegion")
	s.metrics.Register(s.reg, "treegion")
	for _, p := range progs {
		profs, err := ProfileProgram(p)
		if err != nil {
			return nil, err
		}
		s.Profiles = append(s.Profiles, profs)
	}
	return s, nil
}

// SetWorkers bounds the pipeline's per-program compile concurrency
// (<= 0 restores the GOMAXPROCS default).
func (s *Suite) SetWorkers(n int) {
	s.mu.Lock()
	s.workers = n
	s.mu.Unlock()
}

// CacheStats snapshots the shared function-compile cache counters.
func (s *Suite) CacheStats() compcache.Stats { return s.ccache.Stats() }

// AttachStore layers the disk-backed artifact store under the suite's
// memory cache, so compiles hit disk before recomputing and cold compiles
// are written through for future processes. The store's counters join the
// suite registry under the "treegion" prefix.
func (s *Suite) AttachStore(st *ArtifactStore) {
	s.ccache.SetL2(st)
	st.Register(s.reg, "treegion")
}

// StoreStats snapshots the suite's pipeline metrics for store activity:
// total compiles executed and how many lookups the persistent store
// served.
func (s *Suite) StoreHits() (compiles, storeHits int64) {
	return s.metrics.Compiles.Load(), s.metrics.StoreHits.Load()
}

// PipelineMetrics snapshots the pipeline activity counters.
func (s *Suite) PipelineMetrics() (compiles, cacheHits, panics int64) {
	return s.metrics.Compiles.Load(), s.metrics.CacheHits.Load(), s.metrics.Panics.Load()
}

// Telemetry exposes the suite's metrics registry: phase-latency histograms,
// scheduling counters and cache/pipeline activity for every compile the
// experiment drivers execute.
func (s *Suite) Telemetry() *Telemetry { return s.reg }

// run compiles benchmark i under c on the pipeline, memoizing the whole
// ProgramResult on the config fingerprint.
func (s *Suite) run(i int, c Config) (*ProgramResult, error) {
	key := fmt.Sprintf("%d/%s", i, c.Fingerprint())
	s.mu.Lock()
	r, ok := s.cache[key]
	workers := s.workers
	s.mu.Unlock()
	if ok {
		return r, nil
	}
	r, err := Compile(context.Background(), s.Programs[i], s.Profiles[i], c,
		WithWorkers(workers), WithCache(s.ccache), WithMetrics(&s.metrics), WithTelemetry(s.reg))
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	// A concurrent caller may have raced us here; keep the first result so
	// every caller sees one canonical *ProgramResult per key.
	if prev, ok := s.cache[key]; ok {
		r = prev
	} else {
		s.cache[key] = r
	}
	s.mu.Unlock()
	return r, nil
}

// SpeedupOf compiles benchmark i under c and returns its speedup over
// basic-block scheduling on the 1-issue machine (the paper's metric).
func (s *Suite) SpeedupOf(i int, c Config) (float64, error) {
	base, err := s.run(i, BaselineConfig())
	if err != nil {
		return 0, err
	}
	r, err := s.run(i, c)
	if err != nil {
		return 0, err
	}
	return Speedup(base.Time, r.Time), nil
}

// StatRow is one benchmark's region-characteristic row (Tables 1 and 2).
type StatRow struct {
	Benchmark string
	AvgBlocks float64
	MaxBlocks int
	AvgOps    float64
}

// Table1 reproduces the paper's Table 1: treegion statistics (no tail
// duplication) per benchmark.
func (s *Suite) Table1() ([]StatRow, error) {
	return s.statTable(Config{Kind: Treegion, Heuristic: DepHeight, Machine: FourU, Rename: true})
}

// Table2 reproduces Table 2: SLR statistics per benchmark.
func (s *Suite) Table2() ([]StatRow, error) {
	return s.statTable(Config{Kind: SLR, Heuristic: DepHeight, Machine: FourU, Rename: true})
}

func (s *Suite) statTable(c Config) ([]StatRow, error) {
	var rows []StatRow
	for i, p := range s.Programs {
		r, err := s.run(i, c)
		if err != nil {
			return nil, err
		}
		rows = append(rows, StatRow{
			Benchmark: p.Name,
			AvgBlocks: r.RegionStats.AvgBlocks,
			MaxBlocks: r.RegionStats.MaxBlocks,
			AvgOps:    r.RegionStats.AvgOps,
		})
	}
	return rows, nil
}

// ExpansionRow is one benchmark's code-expansion row (Table 3).
type ExpansionRow struct {
	Benchmark string
	SB        float64 // superblock formation
	Tree20    float64 // treegion tail duplication, limit 2.0
	Tree30    float64 // limit 3.0
}

// Table3 reproduces Table 3: code expansion for superblocks and treegions
// with tail duplication at limits 2.0 and 3.0 (merge limit 4, path limit 20).
func (s *Suite) Table3() ([]ExpansionRow, error) {
	var rows []ExpansionRow
	for i, p := range s.Programs {
		row := ExpansionRow{Benchmark: p.Name}
		sb, err := s.run(i, s.sbConfig(machine.FourU))
		if err != nil {
			return nil, err
		}
		row.SB = sb.CodeExpansion
		for _, lim := range []float64{2.0, 3.0} {
			r, err := s.run(i, s.tdConfig(lim, machine.FourU))
			if err != nil {
				return nil, err
			}
			if lim == 2.0 {
				row.Tree20 = r.CodeExpansion
			} else {
				row.Tree30 = r.CodeExpansion
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// SizeRow is one benchmark's region-size row (Table 4): superblocks vs
// treegions with tail duplication at limit 2.0.
type SizeRow struct {
	Benchmark            string
	SBCount, TreeCount   int
	SBAvgBB, TreeAvgBB   float64
	SBAvgOps, TreeAvgOps float64
}

// Table4 reproduces Table 4. As in the paper, the superblock columns count
// only trace-formed regions (cold filler code is not a superblock), while
// treegion formation covers the whole program.
func (s *Suite) Table4() ([]SizeRow, error) {
	var rows []SizeRow
	for i, p := range s.Programs {
		sb, err := s.run(i, s.sbConfig(machine.FourU))
		if err != nil {
			return nil, err
		}
		tr, err := s.run(i, s.tdConfig(2.0, machine.FourU))
		if err != nil {
			return nil, err
		}
		rows = append(rows, SizeRow{
			Benchmark: p.Name,
			SBCount:   sb.RegionStats.Count, SBAvgBB: sb.RegionStats.AvgBlocks, SBAvgOps: sb.RegionStats.AvgOps,
			TreeCount: tr.RegionStats.Count, TreeAvgBB: tr.RegionStats.AvgBlocks, TreeAvgOps: tr.RegionStats.AvgOps,
		})
	}
	return rows, nil
}

// SpeedupRow is one benchmark's speedups under a set of labelled configs.
type SpeedupRow struct {
	Benchmark string
	Speedup   map[string]float64
}

// Figure6 reproduces Figure 6: dependence-height scheduling of basic
// blocks, SLRs and treegions on the 4U and 8U machines, as speedup over the
// 1-issue basic-block baseline.
func (s *Suite) Figure6() ([]SpeedupRow, []string, error) {
	var configs []labelled
	for _, m := range []machine.Model{machine.FourU, machine.EightU} {
		configs = append(configs,
			labelled{"bb/" + m.Name, Config{Kind: BasicBlocks, Heuristic: DepHeight, Machine: m, Rename: true}},
			labelled{"slr/" + m.Name, Config{Kind: SLR, Heuristic: DepHeight, Machine: m, Rename: true}},
			labelled{"tree/" + m.Name, Config{Kind: Treegion, Heuristic: DepHeight, Machine: m, Rename: true}},
		)
	}
	return s.speedups(configs)
}

// Figure8 reproduces Figure 8: the four treegion heuristics on 4U and 8U.
func (s *Suite) Figure8() ([]SpeedupRow, []string, error) {
	var configs []labelled
	for _, m := range []machine.Model{machine.FourU, machine.EightU} {
		for _, h := range core.Heuristics() {
			configs = append(configs, labelled{
				h.String() + "/" + m.Name,
				Config{Kind: Treegion, Heuristic: h, Machine: m, Rename: true},
			})
		}
	}
	return s.speedups(configs)
}

// Figure13 reproduces Figure 13: superblocks versus tail-duplicated
// treegions (global weight heuristic, dominator parallelism on) at
// expansion limits 2.0 and 3.0, on 4U and 8U.
func (s *Suite) Figure13() ([]SpeedupRow, []string, error) {
	var configs []labelled
	for _, m := range []machine.Model{machine.FourU, machine.EightU} {
		configs = append(configs,
			labelled{"sb/" + m.Name, s.sbConfig(m)},
			labelled{"tree2.0/" + m.Name, s.tdConfig(2.0, m)},
			labelled{"tree3.0/" + m.Name, s.tdConfig(3.0, m)},
		)
	}
	return s.speedups(configs)
}

type labelled struct {
	label string
	cfg   Config
}

func (s *Suite) speedups(configs []labelled) ([]SpeedupRow, []string, error) {
	var labels []string
	for _, c := range configs {
		labels = append(labels, c.label)
	}
	var rows []SpeedupRow
	for i, p := range s.Programs {
		row := SpeedupRow{Benchmark: p.Name, Speedup: make(map[string]float64)}
		for _, c := range configs {
			v, err := s.SpeedupOf(i, c.cfg)
			if err != nil {
				return nil, nil, err
			}
			row.Speedup[c.label] = v
		}
		rows = append(rows, row)
	}
	return rows, labels, nil
}

// sbConfig is IMPACT-faithful superblock compilation: global-weight list
// scheduling with *restricted* speculation (no compile-time renaming —
// renaming is the treegion paper's own mechanism, so the superblock
// baseline, "as described in the literature", does not get it).
func (s *Suite) sbConfig(m machine.Model) Config {
	return Config{
		Kind: Superblock, Heuristic: GlobalWeight, Machine: m, Rename: false,
		SB: linear.DefaultSuperblockConfig(),
	}
}

func (s *Suite) tdConfig(limit float64, m machine.Model) Config {
	td := core.DefaultTDConfig()
	td.ExpansionLimit = limit
	return Config{
		Kind: TreegionTD, Heuristic: GlobalWeight, Machine: m, Rename: true,
		DominatorParallelism: true, TD: td,
	}
}

// ProfileVariation runs the paper's proposed future-work study (Section 6):
// treegion schedules are built from the training profile and then
// re-evaluated against a profile gathered from a different input set (a
// fresh interpreter seed on the compiled functions). For each heuristic it
// reports the speedup under the training profile and under the varied one,
// on the 4U machine — the regime where heuristic differences matter most.
// The paper conjectured the exit-count and weighted-count heuristics "may
// preserve performance better" under variation.
func (s *Suite) ProfileVariation() ([]SpeedupRow, []string, error) {
	var labels []string
	for _, h := range core.Heuristics() {
		labels = append(labels, h.String()+"/train", h.String()+"/varied")
	}
	var rows []SpeedupRow
	for i, p := range s.Programs {
		row := SpeedupRow{Benchmark: p.Name, Speedup: make(map[string]float64)}

		// Baseline times under both profiles.
		baseRes, err := s.run(i, BaselineConfig())
		if err != nil {
			return nil, nil, err
		}
		baseVaried := 0.0
		for fi, fr := range baseRes.Funcs {
			prof, err := eval.ProfileCompiled(fr, p.Preset.Seed*7777+uint64(fi), p.Preset.ProfileTrips)
			if err != nil {
				return nil, nil, err
			}
			baseVaried += eval.ReMeasure(fr, prof).Time
		}

		for _, h := range core.Heuristics() {
			cfg := Config{Kind: Treegion, Heuristic: h, Machine: machine.FourU, Rename: true}
			res, err := s.run(i, cfg)
			if err != nil {
				return nil, nil, err
			}
			row.Speedup[h.String()+"/train"] = Speedup(baseRes.Time, res.Time)
			varied := 0.0
			for fi, fr := range res.Funcs {
				prof, err := eval.ProfileCompiled(fr, p.Preset.Seed*7777+uint64(fi), p.Preset.ProfileTrips)
				if err != nil {
					return nil, nil, err
				}
				varied += eval.ReMeasure(fr, prof).Time
			}
			row.Speedup[h.String()+"/varied"] = Speedup(baseVaried, varied)
		}
		rows = append(rows, row)
	}
	return rows, labels, nil
}

// WideMachines extends Figure 6's study to the 16-issue model, showing the
// headroom trend the paper describes ("on a very wide machine, both
// schedulers are able to speculate more instructions. However, the treegion
// scheduler has access to multiple paths, allowing even more speculation").
func (s *Suite) WideMachines() ([]SpeedupRow, []string, error) {
	var configs []labelled
	for _, m := range []machine.Model{machine.FourU, machine.EightU, machine.SixteenU} {
		configs = append(configs,
			labelled{"slr/" + m.Name, Config{Kind: SLR, Heuristic: DepHeight, Machine: m, Rename: true}},
			labelled{"tree/" + m.Name, Config{Kind: Treegion, Heuristic: DepHeight, Machine: m, Rename: true}},
		)
	}
	return s.speedups(configs)
}

// Ablations quantifies the design choices DESIGN.md calls out, on the
// 8-issue machine with the global weight heuristic:
//
//	rename-off    treegions without compile-time renaming (restricted
//	              speculation instead) — the paper's enabling mechanism;
//	dompar-off    tail-duplicated treegions without dominator parallelism;
//	td-1.0 …      the expansion-limit sweep for treeform-td.
func (s *Suite) Ablations() ([]SpeedupRow, []string, error) {
	configs := []labelled{
		{"tree", Config{Kind: Treegion, Heuristic: GlobalWeight, Machine: EightU, Rename: true}},
		{"rename-off", Config{Kind: Treegion, Heuristic: GlobalWeight, Machine: EightU, Rename: false}},
		{"td-2.0", s.tdConfig(2.0, machine.EightU)},
	}
	noDompar := s.tdConfig(2.0, machine.EightU)
	noDompar.DominatorParallelism = false
	configs = append(configs, labelled{"dompar-off", noDompar})
	for _, lim := range []float64{1.0, 1.5, 3.0, 4.0} {
		configs = append(configs, labelled{fmt.Sprintf("td-%.1f", lim), s.tdConfig(lim, machine.EightU)})
	}
	return s.speedups(configs)
}

// Hyperblocks runs the paper's proposed predication-vs-tail-duplication
// comparison (future work, Section 6): plain treegions, treegions over
// if-converted (hyperblock-style predicated) code, and tail-duplicated
// treegions, with the global weight heuristic. If-conversion removes merge
// points without duplicating code, so treegions grow for free — but the
// predicated ops occupy issue slots on every execution, which is the
// tradeoff the paper wanted measured.
func (s *Suite) Hyperblocks() ([]SpeedupRow, []string, error) {
	var configs []labelled
	for _, m := range []machine.Model{machine.FourU, machine.EightU} {
		plain := Config{Kind: Treegion, Heuristic: GlobalWeight, Machine: m, Rename: true}
		hyperTree := plain
		hyperTree.IfConvert = true
		hyperTD := s.tdConfig(2.0, m)
		hyperTD.IfConvert = true
		configs = append(configs,
			labelled{"tree/" + m.Name, plain},
			labelled{"hyper/" + m.Name, hyperTree},
			labelled{"td/" + m.Name, s.tdConfig(2.0, m)},
			labelled{"hyper-td/" + m.Name, hyperTD},
		)
	}
	return s.speedups(configs)
}

// ResourceRow reports issue-slot utilization and register pressure for one
// benchmark under several region formers (8U, global weight).
type ResourceRow struct {
	Benchmark string
	// Utilization and AvgPressure are keyed by former label.
	Utilization map[string]float64
	AvgPressure map[string]float64
}

// Resources quantifies the paper's motivating claim — linear regions leave
// issue slots idle on wide machines, treegions fill them — plus the cost
// side the paper's follow-up work tackles: register pressure from
// speculation and renaming.
func (s *Suite) Resources() ([]ResourceRow, []string, error) {
	configs := []labelled{
		{"bb", Config{Kind: BasicBlocks, Heuristic: GlobalWeight, Machine: EightU, Rename: true}},
		{"slr", Config{Kind: SLR, Heuristic: GlobalWeight, Machine: EightU, Rename: true}},
		{"tree", Config{Kind: Treegion, Heuristic: GlobalWeight, Machine: EightU, Rename: true}},
		{"tree-td", s.tdConfig(2.0, machine.EightU)},
	}
	var labels []string
	for _, c := range configs {
		labels = append(labels, c.label)
	}
	var rows []ResourceRow
	for i, p := range s.Programs {
		row := ResourceRow{
			Benchmark:   p.Name,
			Utilization: map[string]float64{},
			AvgPressure: map[string]float64{},
		}
		for _, c := range configs {
			res, err := s.run(i, c.cfg)
			if err != nil {
				return nil, nil, err
			}
			util, press, totW := 0.0, 0.0, 0.0
			for _, fr := range res.Funcs {
				w := fr.Prof.BlockWeight(fr.Fn.Entry) + 1
				util += w * eval.UtilizationOf(fr, fr.Prof, c.cfg.Machine)
				avg, _ := eval.PressureOf(fr, fr.Prof)
				press += w * avg
				totW += w
			}
			row.Utilization[c.label] = util / totW
			row.AvgPressure[c.label] = press / totW
		}
		rows = append(rows, row)
	}
	return rows, labels, nil
}

// RegisterRow reports spill behaviour for one benchmark (8U, global
// weight, treegion scheduling) under two register-file sizes.
type RegisterRow struct {
	Benchmark string
	// SpillsPerKOp is spilled intervals per thousand static ops.
	SpillsPerKOp map[int]float64
	// Slowdown is the estimated fractional time increase from spill code.
	Slowdown map[int]float64
}

// Registers runs the register-pressure assessment the paper set aside for
// follow-up work: linear-scan allocation over every tail-duplicated
// treegion schedule (the highest-pressure configuration) under small
// register files, reporting spill density and the estimated slowdown if the
// spill memory ops were charged. With 1998-scale 32-entry files nothing
// spills — wide-issue treegion scheduling stays allocatable, which is
// itself the reassuring result; the 12/16/24-entry sweep shows where
// pressure starts to bite. (A 1998-style 8-entry branch-target file is the
// first to bind: wide treegions keep over a dozen PBR values in flight.)
func (s *Suite) Registers() ([]RegisterRow, []int, error) {
	sizes := []int{12, 16, 24}
	cfg := s.tdConfig(2.0, machine.EightU) // the highest-pressure configuration
	var rows []RegisterRow
	for i, p := range s.Programs {
		res, err := s.run(i, cfg)
		if err != nil {
			return nil, nil, err
		}
		row := RegisterRow{Benchmark: p.Name, SpillsPerKOp: map[int]float64{}, Slowdown: map[int]float64{}}
		for _, k := range sizes {
			files := regalloc.FileSizes{GPR: k, Pred: k, BTR: k, FPR: k}
			spills, extra, ops := 0, 0.0, 0
			allocHist := s.reg.Histogram("treegion_compile_phase_seconds",
				telemetry.Labels{"phase": telemetry.PhaseRegalloc.String()},
				"Wall time per compile phase per function.", telemetry.DefBuckets)
			for _, fr := range res.Funcs {
				for _, sc := range fr.Schedules {
					t0 := time.Now()
					a := regalloc.Allocate(sc, files)
					allocHist.ObserveDuration(time.Since(t0))
					spills += a.TotalSpills()
					extra += fr.Prof.BlockWeight(sc.Graph.Region.Root) * float64(a.SpillCycles) / float64(max(1, sc.Model.IssueWidth))
				}
				ops += fr.OpsAfter
			}
			row.SpillsPerKOp[k] = 1000 * float64(spills) / float64(ops)
			row.Slowdown[k] = extra / res.Time
		}
		rows = append(rows, row)
	}
	return rows, sizes, nil
}

// GeoMean returns the geometric mean of the named column over rows,
// skipping zero entries — the aggregate the paper's bar charts imply.
func GeoMean(rows []SpeedupRow, label string) float64 {
	sum, n := 0.0, 0
	for _, r := range rows {
		if v := r.Speedup[label]; v > 0 {
			sum += math.Log(v)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}
