package treegion

// Micro-benchmarks for the rebuilt hot phases of the compiler core —
// region formation, bitset liveness, slab DDG construction, bitmap list
// scheduling and the path-height measurement — each driven cold over every
// function of its inputs. They isolate one phase per iteration, so a
// regression in (say) the scheduler's ready queue shows up here before it
// moves the whole-pipeline BenchmarkCompileSuiteSerial number. The
// formation, DDG, scheduler and measurement benchmarks run three tiers —
// the suite, stress and stress2 — so a cost that grows with the function
// rather than the region shows up as a per-region figure that climbs from
// tier to tier. The verifier's rule families get one benchmark each over
// the suite, and the profiler one per tier. `make bench` captures them;
// `make check` runs the compile-core ones once under the race detector.

import (
	"cmp"
	"encoding/json"
	"runtime"
	"sync"
	"testing"

	"treegion/internal/api"
	"treegion/internal/cfg"
	"treegion/internal/core"
	"treegion/internal/ddg"
	"treegion/internal/eval"
	"treegion/internal/ir"
	"treegion/internal/machine"
	"treegion/internal/region"
	"treegion/internal/sched"
	"treegion/internal/verify"
)

// coldTier is one input scale of the cold compile-core benchmarks: suite
// functions average ~740 ops in regions of ~20, stress functions ~7000 ops
// with hundreds of regions each, and stress2 a few ~40000-op functions of
// giant straight-line blocks.
type coldTier struct {
	name   string
	inputs func(b *testing.B) ([]*Program, []Profiles)
}

var coldTiers = []coldTier{
	{"suite", func(b *testing.B) ([]*Program, []Profiles) {
		s := sharedSuite(b)
		return s.Programs, s.Profiles
	}},
	{"stress", func(b *testing.B) ([]*Program, []Profiles) { return benchProgram(b, "stress") }},
	{"stress2", func(b *testing.B) ([]*Program, []Profiles) { return benchProgram(b, "stress2") }},
}

// hotFunc is one function prepared up to the phase under test.
type hotFunc struct {
	fn      *ir.Function
	regions []*region.Region
	lv      *cfg.Liveness
	prof    *ProfileData // set by prepareHotTD only
}

// BenchmarkColdCompileLiveness measures liveness exactly as the compile
// path runs it — CFG construction plus the dataflow, after treeform — over
// every function of each tier. Liveness never mutates the function, so the
// formed clones are built once. us/block is the cost per block: the sets
// span only the registers some block reads before writing them, so it
// grows with the function's live registers, not with all of them.
func BenchmarkColdCompileLiveness(b *testing.B) {
	for _, tier := range coldTiers {
		b.Run(tier.name, func(b *testing.B) {
			progs, _ := tier.inputs(b)
			blocks := 0
			var fns []*ir.Function
			for _, h := range prepareHot(progs) {
				fns = append(fns, h.fn)
				blocks += len(h.fn.Blocks)
			}
			runtime.GC()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, f := range fns {
					if lv := cfg.ComputeLiveness(cfg.New(f)); len(lv.LiveIn) != len(f.Blocks) {
						b.Fatal("liveness does not cover the function")
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e3/float64(b.N*blocks), "us/block")
		})
	}
}

// prepareHot clones every function of progs and prepares it up to the DDG
// phase exactly as the compile path does: treegion formation and liveness.
func prepareHot(progs []*Program) []hotFunc {
	var prep []hotFunc
	for _, p := range progs {
		for _, fn := range p.Funcs {
			f := fn.Clone()
			rs := core.Form(f, cfg.New(f))
			lv := cfg.ComputeLiveness(cfg.New(f))
			prep = append(prep, hotFunc{fn: f, regions: rs, lv: lv})
		}
	}
	return prep
}

// prepareHotTD is prepareHot under Figure 13's formation: tail-duplicated
// treegions at expansion limit 2.0, over clones of the functions and their
// profiles, which the DDG's node weights then read.
func prepareHotTD(progs []*Program, profs []Profiles) []hotFunc {
	var prep []hotFunc
	for pi, p := range progs {
		for fi, fn := range p.Funcs {
			f, prof := fn.Clone(), profs[pi][fi].Clone()
			rs := core.FormTDInlineTraced(f, prof, core.DefaultTDConfig(), nil, nil)
			lv := cfg.ComputeLiveness(cfg.New(f))
			prep = append(prep, hotFunc{fn: f, regions: rs, lv: lv, prof: prof})
		}
	}
	return prep
}

// BenchmarkColdCompileDDG measures slab DDG construction over every region
// of each tier, through BuildScratch on one Scratch as the compile path
// does, under two configurations: the headline one (treegions, renaming on,
// dominator parallelism off), and as <tier>/fig13 Figure 13's, tree-td(2.0)
// with dominator parallelism, the only one that merges duplicates.
// Renaming mutates the function, so each iteration rebuilds its inputs
// outside the timed region. us/region is the build cost per region: with
// every per-region table region-sized it stays within a small factor from
// tier to tier, although the functions around the regions grow ~10×.
func BenchmarkColdCompileDDG(b *testing.B) {
	for _, tier := range coldTiers {
		for _, fig13 := range []bool{false, true} {
			name := tier.name
			if fig13 {
				name += "/fig13"
			}
			b.Run(name, func(b *testing.B) {
				progs, profs := tier.inputs(b)
				var sc ddg.Scratch
				regions := 0
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					var prep []hotFunc
					if fig13 {
						prep = prepareHotTD(progs, profs)
					} else {
						prep = prepareHot(progs)
					}
					b.StartTimer()
					for _, h := range prep {
						opts := ddg.Options{Rename: true, DominatorParallelism: fig13, Liveness: h.lv, Profile: h.prof}
						for _, r := range h.regions {
							if _, err := ddg.BuildScratch(h.fn, r, opts, &sc); err != nil {
								b.Fatal(err)
							}
						}
						regions += len(h.regions)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e3/float64(regions), "us/region")
			})
		}
	}
}

// BenchmarkColdCompileForm measures region formation as the compile path
// runs it — treeform over a fresh CFG, and treeform-td with its tail
// duplication — over every function of each tier. Formation mutates the
// function and the profile, so each iteration clones them outside the
// timer. us/region is the formation cost per region formed: with one
// partition table per function it stays flat from tier to tier, where a
// table per region grows with the function.
func BenchmarkColdCompileForm(b *testing.B) {
	for _, tier := range coldTiers {
		for _, kind := range []string{"tree", "tree-td"} {
			b.Run(tier.name+"/"+kind, func(b *testing.B) {
				progs, profs := tier.inputs(b)
				regions := 0
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					var fns []*ir.Function
					var ps []*ProfileData
					for pi, p := range progs {
						for fi, fn := range p.Funcs {
							fns = append(fns, fn.Clone())
							ps = append(ps, profs[pi][fi].Clone())
						}
					}
					runtime.GC() // collect the last iteration's clones untimed
					b.StartTimer()
					for j, fn := range fns {
						if kind == "tree" {
							regions += len(core.FormInline(fn, cfg.New(fn), nil))
						} else {
							regions += len(core.FormTDInlineTraced(fn, ps[j], core.DefaultTDConfig(), nil, nil))
						}
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e3/float64(regions), "us/region")
			})
		}
	}
}

// measuredRegion is one scheduled region with the inputs MeasureRegion
// reads.
type measuredRegion struct {
	s    *sched.Schedule
	prof *ProfileData
	lv   *cfg.Liveness
}

// measureSink keeps the measured results live so the compiler cannot drop
// the calls under test.
var measureSink eval.RegionTime

// BenchmarkColdCompileMeasure measures the paper's profile-weighted
// path-height estimate over every region of each tier, compiled under the
// headline configuration: as <tier>, eval.MeasureRegion, which measures on
// fresh scratch per call, and as <tier>/arena, Arena.MeasureRegion on one
// arena reused across every region, as the compile path measures.
// Measurement never mutates a schedule, so the schedules are built once;
// us/region is the cost per region measured.
func BenchmarkColdCompileMeasure(b *testing.B) {
	for _, tier := range coldTiers {
		for _, onArena := range []bool{false, true} {
			name := tier.name
			if onArena {
				name += "/arena"
			}
			b.Run(name, func(b *testing.B) {
				progs, profs := tier.inputs(b)
				var ms []measuredRegion
				ar := eval.NewArena()
				for pi, p := range progs {
					for fi, fn := range p.Funcs {
						fr, err := eval.CompileFunctionArena(fn.Clone(), profs[pi][fi].Clone(), DefaultConfig(), ar)
						if err != nil {
							b.Fatal(err)
						}
						lv := cfg.ComputeLiveness(cfg.New(fr.Fn))
						for _, s := range fr.Schedules {
							ms = append(ms, measuredRegion{s, fr.Prof, lv})
						}
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for _, m := range ms {
						if onArena {
							measureSink = ar.MeasureRegion(m.s, m.prof, m.lv)
						} else {
							measureSink = eval.MeasureRegion(m.s, m.prof, m.lv)
						}
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e3/float64(b.N*len(ms)), "us/region")
			})
		}
	}
}

// schedGraphs builds every region DDG of progs, prepared exactly as the
// compile path prepares them. Scheduling never mutates the graph, so the
// result is reusable across benchmark iterations.
func schedGraphs(b *testing.B, progs []*Program) []*ddg.Graph {
	b.Helper()
	var graphs []*ddg.Graph
	var sc ddg.Scratch
	for _, h := range prepareHot(progs) {
		for _, r := range h.regions {
			dg, err := ddg.BuildScratch(h.fn, r, ddg.Options{Rename: true, Liveness: h.lv}, &sc)
			if err != nil {
				b.Fatal(err)
			}
			graphs = append(graphs, dg)
		}
	}
	return graphs
}

// BenchmarkColdCompileSched measures the list scheduler alone: DDGs are
// built once, then every iteration re-schedules all of them on the 4-issue
// machine with the dependence-height heuristic. Three tiers scale the rank
// space — suite regions top out near 170 nodes, stress near 170 with far
// more regions, and stress2's straight-line giants push past 4096 — so the
// bitmap queues' cost is measured past their level-1 word seam, not just
// at the suite's sizes.
func BenchmarkColdCompileSched(b *testing.B) {
	prio := core.DepHeight.Keys
	for _, tier := range coldTiers {
		b.Run(tier.name, func(b *testing.B) {
			progs, _ := tier.inputs(b)
			graphs := schedGraphs(b, progs)
			var sc sched.Scratch
			schedule := func() {
				for _, g := range graphs {
					if s := sched.ListScheduleScratch(g, machine.FourU, prio, nil, &sc); s.Length == 0 && len(g.Nodes) > 0 {
						b.Fatal("empty schedule")
					}
				}
			}
			schedule() // warm scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				schedule()
			}
		})
	}
}

// verifySink keeps the verifier's findings live so the compiler cannot
// drop the calls under test.
var verifySink []verify.Diagnostic

// BenchmarkColdCompileVerify measures the verifier one rule family at a
// time over the suite's headline compiles, which are built and given their
// liveness outside the timer: ir is the IR rules (IR009's must-define
// dataflow among them), rg the region-shape rules, sc the schedule rules
// over every region, and sem the differential interpretation of the
// original against the compiled function under the default seeds. Each of
// those calls a one-shot entry point, on a fresh verify.Scratch per call.
// compiled is the production path: verify.CompiledScratch, every family
// and its own liveness, with one Scratch kept across the whole run as a
// pipeline worker keeps one. ms/pass is the family's cost for one pass
// over the suite, the share of a verified suite compile it accounts for.
func BenchmarkColdCompileVerify(b *testing.B) {
	s := sharedSuite(b)
	type compiled struct {
		orig *ir.Function
		fr   *eval.FunctionResult
		lv   *cfg.Liveness
	}
	var fns []compiled
	c := DefaultConfig()
	for pi, p := range s.Programs {
		for fi, fn := range p.Funcs {
			fr, err := eval.CompileFunction(fn.Clone(), s.Profiles[pi][fi].Clone(), c)
			if err != nil {
				b.Fatal(err)
			}
			fns = append(fns, compiled{fn, fr, cfg.ComputeLiveness(cfg.New(fr.Fn))})
		}
	}
	var vsc verify.Scratch
	families := []struct {
		name string
		run  func(f compiled) []verify.Diagnostic
	}{
		{"ir", func(f compiled) []verify.Diagnostic { return verify.CheckFunction(f.fr.Fn, c.IfConvert) }},
		{"rg", func(f compiled) []verify.Diagnostic {
			return verify.CheckRegionsInline(f.fr.Fn, f.fr.Regions, core.TDConfig{}, nil)
		}},
		{"sc", func(f compiled) []verify.Diagnostic {
			var ds []verify.Diagnostic
			for i, sch := range f.fr.Schedules {
				ds = append(ds, verify.CheckSchedule(f.fr.Fn, f.fr.Regions[i], sch, f.lv)...)
			}
			return ds
		}},
		{"sem", func(f compiled) []verify.Diagnostic {
			return verify.CheckSemanticsProgram(nil, f.orig, f.fr.Fn, nil, 0)
		}},
		{"compiled", func(f compiled) []verify.Diagnostic {
			opts := verify.Options{Machine: c.Machine, Orig: f.orig}
			return verify.CompiledScratch(f.fr.Fn, f.fr.Regions, f.fr.Schedules, opts, &vsc)
		}},
	}
	for _, fam := range families {
		b.Run(fam.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, f := range fns {
					if verifySink = fam.run(f); verify.HasErrors(verifySink) {
						b.Fatalf("%s: %v", f.fr.Fn.Name, verifySink)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e6/float64(b.N), "ms/pass")
		})
	}
}

// BenchmarkColdProfile measures the profiler, ProfileFunction, over every
// function of a tier. suite profiles the shared suite's functions at the
// daemon's default 100 trips: the work every treegiond request does before
// its cache lookup, and the functions perfbench's service workload sends.
// stress profiles the stress preset's functions at the preset's own trip
// count, as perfbench's bigfn set-up profiles its stress-shaped functions.
// ms/pass is the cost of one pass over the tier.
func BenchmarkColdProfile(b *testing.B) {
	tiers := []struct {
		name  string
		progs func(b *testing.B) []*Program
		trips int // 0: the preset's own
	}{
		{"suite", func(b *testing.B) []*Program { return sharedSuite(b).Programs }, 100},
		{"stress", func(b *testing.B) []*Program { progs, _ := benchProgram(b, "stress"); return progs }, 0},
	}
	for _, tier := range tiers {
		b.Run(tier.name, func(b *testing.B) {
			progs := tier.progs(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, p := range progs {
					trips := cmp.Or(tier.trips, p.Preset.ProfileTrips)
					for fi, fn := range p.Funcs {
						if _, err := ProfileFunction(fn, p.Preset.Seed*1000+uint64(fi), trips); err != nil {
							b.Fatal(err)
						}
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e6/float64(b.N), "ms/pass")
		})
	}
}

// BenchmarkColdDecode measures the request decoder with the key each body
// is cached and sharded by: api.DecodeCompile or api.DecodeBatch, then
// Key, the work treegiond and the router do for every /v1 compile body
// before any cache lookup. The bodies carry the shared suite's functions
// as perfbench's service stream sends them: tree is one /v1/compile body
// per function in the 4U shape, tree-td one in the 8U shape with
// expansion limit 2, each with a profiling seed, and batch one
// /v1/compile-batch body of every function. An op is one pass over a
// tier's bodies; us/body is the cost of one body.
func BenchmarkColdDecode(b *testing.B) {
	type compileBody struct {
		IR             string  `json:"ir"`
		Region         string  `json:"region,omitempty"`
		Machine        string  `json:"machine,omitempty"`
		ExpansionLimit float64 `json:"expansion_limit,omitempty"`
		Seed           uint64  `json:"seed"`
	}
	type batchFunction struct {
		IR string `json:"ir"`
	}
	type batchBody struct {
		Functions []batchFunction `json:"functions"`
		Region    string          `json:"region"`
		Machine   string          `json:"machine"`
		Seed      uint64          `json:"seed"`
	}
	marshal := func(v any) []byte {
		data, err := json.Marshal(v)
		if err != nil {
			b.Fatal(err)
		}
		return data
	}
	var tree, treeTD [][]byte
	batch := batchBody{Region: "tree", Machine: "4U", Seed: 7}
	for _, p := range sharedSuite(b).Programs {
		for _, fn := range p.Funcs {
			text, seed := PrintFunction(fn), uint64(len(tree))*104729+1
			tree = append(tree, marshal(compileBody{IR: text, Region: "tree", Machine: "4U", Seed: seed}))
			treeTD = append(treeTD, marshal(compileBody{IR: text, Region: "tree-td", Machine: "8U", ExpansionLimit: 2, Seed: seed}))
			batch.Functions = append(batch.Functions, batchFunction{text})
		}
	}
	tiers := []struct {
		name   string
		bodies [][]byte
	}{{"tree", tree}, {"tree-td", treeTD}, {"batch", [][]byte{marshal(batch)}}}
	for _, tier := range tiers {
		b.Run(tier.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, data := range tier.bodies {
					if tier.name == "batch" {
						req, f := api.DecodeBatch(data)
						if f != nil {
							b.Fatal(f)
						}
						req.Key()
						continue
					}
					req, f := api.DecodeCompile(data)
					if f != nil {
						b.Fatal(f)
					}
					req.Key()
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e3/float64(b.N*len(tier.bodies)), "us/body")
		})
	}
}

// benchPrograms memoizes the stress tiers' generated programs and
// profiles across benchmarks and sub-benchmark reruns.
var benchPrograms sync.Map // name → *benchInputs

type benchInputs struct {
	once  sync.Once
	progs []*Program
	profs []Profiles
	err   error
}

// benchProgram generates and profiles one named progen benchmark for a
// stress tier.
func benchProgram(b *testing.B, name string) ([]*Program, []Profiles) {
	b.Helper()
	v, _ := benchPrograms.LoadOrStore(name, new(benchInputs))
	in := v.(*benchInputs)
	in.once.Do(func() {
		p, err := GenerateBenchmark(name)
		if err != nil {
			in.err = err
			return
		}
		profs, err := ProfileProgram(p)
		if err != nil {
			in.err = err
			return
		}
		in.progs, in.profs = []*Program{p}, []Profiles{profs}
	})
	if in.err != nil {
		b.Fatal(in.err)
	}
	return in.progs, in.profs
}
