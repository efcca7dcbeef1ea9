package main

import (
	"fmt"
	"sort"

	"treegion"
	"treegion/internal/ir"
	"treegion/internal/progen"
)

// mix is splitmix64 over (a, b): the one hash every seeded draw goes
// through, so a workload's inputs are a pure function of --seed.
func mix(a, b uint64) uint64 {
	z := a*0x9E3779B97F4A7C15 + b + 0x632BE59BD9B4E5F5
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// drawSeed turns a mixed value into a preset seed. It stays below 2^32 so
// the profiler's Seed*1000+i seeds cannot wrap.
func drawSeed(seed, salt uint64) uint64 { return 1 + mix(seed, salt)%(1<<32-1) }

// suitePresets returns the eight paper presets. Seed 0 keeps the published
// preset seeds (the programs behind EXPERIMENTS.md); any other seed re-draws
// each preset's Seed and keeps every shape parameter.
func suitePresets(seed uint64) []progen.Preset {
	ps := progen.Presets()
	if seed != 0 {
		for i := range ps {
			ps[i].Seed = drawSeed(seed, uint64(i))
		}
	}
	return ps
}

// program is one compile unit: functions plus their training profiles.
type program struct {
	name  string
	fns   []*treegion.Function
	profs treegion.Profiles
}

func (p *program) ops() int {
	n := 0
	for _, fn := range p.fns {
		n += fn.NumOps()
	}
	return n
}

// dynOps is the program's profiled op count: Σ block weight × block ops.
func (p *program) dynOps() float64 {
	n := 0.0
	for i, fn := range p.fns {
		n += dynOps(fn, p.profs[i])
	}
	return n
}

func dynOps(fn *treegion.Function, prof *treegion.ProfileData) float64 {
	n := 0.0
	for _, b := range fn.Blocks {
		n += prof.BlockWeight(b.ID) * float64(len(b.Ops))
	}
	return n
}

// generateSuite builds the suite programs without profiles.
func generateSuite(seed uint64) ([]*progen.Program, error) {
	var out []*progen.Program
	for _, p := range suitePresets(seed) {
		prog, err := progen.Generate(p)
		if err != nil {
			return nil, fmt.Errorf("generate %s: %w", p.Name, err)
		}
		out = append(out, prog)
	}
	return out, nil
}

// profileProgram profiles prog exactly as treegion.ProfileProgram does.
func profileProgram(prog *progen.Program) (*program, error) {
	profs, err := treegion.ProfileProgram(prog)
	if err != nil {
		return nil, fmt.Errorf("profile %s: %w", prog.Name, err)
	}
	return &program{name: prog.Name, fns: prog.Funcs, profs: profs}, nil
}

// suiteInputs generates and profiles the eight suite programs.
func suiteInputs(seed uint64) ([]*program, error) {
	progs, err := generateSuite(seed)
	if err != nil {
		return nil, err
	}
	out := make([]*program, len(progs))
	for i, prog := range progs {
		if out[i], err = profileProgram(prog); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// bigfn sizing. The stress preset draws each function's op budget from
// 0.5x..1.5x of 7000, and both the region count and the ddg cost of each
// region grow with the function's size, so the cost per op grows with it
// too. A plain draw of a few functions would make the per-op figures
// depend on luck; instead bigfnCandidates functions are drawn and the
// bigfnFuncs nearest the preset's nominal size are kept, so every seed
// compiles about the same amount of work.
const (
	bigfnCandidates = 64
	bigfnFuncs      = 6
)

// bigfnInputs draws bigfnCandidates stress-shaped functions from the seed,
// one at a time so only the kept ones stay in memory, and profiles the
// bigfnFuncs nearest the nominal size with the stress preset's trip count.
// Each function is its own program, so each compile is one latency sample.
func bigfnInputs(seed uint64) ([]*program, error) {
	type cand struct {
		fn   *ir.Function
		seed uint64
		dist int
	}
	var kept []cand
	for k := 0; k < bigfnCandidates; k++ {
		p := progen.Stress()
		p.Name, p.NumFuncs = "bigfn", 1
		p.Seed = drawSeed(seed, 1000+uint64(k))
		prog, err := progen.Generate(p)
		if err != nil {
			return nil, fmt.Errorf("generate bigfn: %w", err)
		}
		fn := prog.Funcs[0]
		fn.Name = fmt.Sprintf("bigfn_%d", k)
		d := fn.NumOps() - p.OpsPerFunc
		if d < 0 {
			d = -d
		}
		kept = append(kept, cand{fn, p.Seed, d})
		sort.SliceStable(kept, func(a, b int) bool { return kept[a].dist < kept[b].dist })
		if len(kept) > bigfnFuncs {
			kept = kept[:bigfnFuncs]
		}
	}
	trips := progen.Stress().ProfileTrips
	var out []*program
	for _, c := range kept {
		prof, err := treegion.ProfileFunction(c.fn, c.seed*1000, trips)
		if err != nil {
			return nil, fmt.Errorf("profile %s: %w", c.fn.Name, err)
		}
		out = append(out, &program{name: c.fn.Name, fns: []*ir.Function{c.fn}, profs: treegion.Profiles{prof}})
	}
	return out, nil
}
