package verify

import (
	"reflect"
	"strings"
	"testing"

	"treegion/internal/core"
	"treegion/internal/ir"
	"treegion/internal/profile"
	"treegion/internal/region"
)

// fanout returns a function whose bb0 branches to arms bb1..bbn, each of
// which does one add and falls into the join bb(n+1), which returns:
//
//	bb0 -> bb1 .. bbn -> bb(n+1)
//
// n == 1 is a straight chain bb0 -> bb1 -> bb2; n == 2 is a diamond.
func fanout(n int) *ir.Function {
	f := ir.NewFunction("fanout")
	b0 := f.NewBlock()
	p := f.NewReg(ir.ClassPred)
	x := f.NewReg(ir.ClassGPR)
	f.EmitMovI(b0, x, 1)
	f.EmitCmpp(b0, p, ir.NoReg, ir.CondLT, x, x)
	arms := make([]*ir.Block, n)
	for i := range arms {
		arms[i] = f.NewBlock()
		f.EmitALU(arms[i], ir.Add, x, x, x)
	}
	join := f.NewBlock()
	f.EmitALU(join, ir.Add, x, x, x)
	f.EmitRet(join)
	for i, a := range arms {
		if i < n-1 {
			f.EmitBrct(b0, ir.NoReg, p, a.ID, 0.5)
		} else {
			b0.FallThrough = a.ID
		}
		a.FallThrough = join.ID
	}
	return f
}

// treeOf forms fn's regions over one partition from (root, member, parent,
// member, parent, ...) lists; a root alone is a single-block region.
func treeOf(fn *ir.Function, kind region.Kind, trees ...[]ir.BlockID) []*region.Region {
	p := region.NewPartition(fn)
	var out []*region.Region
	for _, t := range trees {
		r := p.NewRegion(kind, t[0])
		for i := 1; i+1 < len(t); i += 2 {
			r.Add(t[i], t[i+1])
		}
		out = append(out, r)
	}
	return out
}

// rgFindings returns the RG rules CheckRegionsInline reports and their
// messages.
func rgFindings(fn *ir.Function, regions []*region.Region, td core.TDConfig) (rules []string, msgs string) {
	ds := CheckRegionsInline(fn, regions, td, nil)
	for _, r := range Rules(ds) {
		if strings.HasPrefix(r, "RG") {
			rules = append(rules, r)
		}
	}
	for _, d := range ds {
		msgs += d.Message + "\n"
	}
	return rules, msgs
}

// TestRegionRulesAdversarial breaks one region invariant per case on a small
// hand-built function and expects exactly that invariant's RG rule, with a
// message naming the break. Each case's regions are first checked clean, so
// the rule fires on the break alone.
func TestRegionRulesAdversarial(t *testing.T) {
	limits := core.TDConfig{ExpansionLimit: 2, PathLimit: 20, MergeLimit: 4}
	cases := []struct {
		name string
		want string
		msg  string // a substring of the expected finding
		// build returns a function and well-formed regions over it; brk
		// returns them with one invariant broken.
		build func() (*ir.Function, []*region.Region)
		brk   func(fn *ir.Function, rs []*region.Region) []*region.Region
		// td bounds the broken regions' check (the zero value means
		// limits): the RG005 cases break a tighter limit, not the regions.
		td core.TDConfig
	}{
		{
			name: "RG001/child-before-parent", want: "RG001", msg: "bb2 has parent bb1 outside the preceding preorder",
			build: func() (*ir.Function, []*region.Region) {
				fn := fanout(1)
				return fn, treeOf(fn, region.KindTreegion, []ir.BlockID{0, 1, 0, 2, 1})
			},
			brk: func(_ *ir.Function, rs []*region.Region) []*region.Region {
				b := rs[0].Blocks
				b[1], b[2] = b[2], b[1] // bb2 now precedes its parent bb1
				return rs
			},
		},
		{
			name: "RG001/root-not-first", want: "RG001", msg: "root bb1 is not Blocks[0] (bb0)",
			build: func() (*ir.Function, []*region.Region) {
				fn := fanout(1)
				return fn, treeOf(fn, region.KindTreegion, []ir.BlockID{0, 1, 0, 2, 1})
			},
			brk: func(_ *ir.Function, rs []*region.Region) []*region.Region {
				rs[0].Root = 1
				return rs
			},
		},
		{
			name: "RG001/missing-block", want: "RG001", msg: "contains missing bb99",
			build: func() (*ir.Function, []*region.Region) {
				fn := fanout(1)
				return fn, treeOf(fn, region.KindTreegion, []ir.BlockID{0, 1, 0, 2, 1})
			},
			brk: func(_ *ir.Function, rs []*region.Region) []*region.Region {
				rs[0].Blocks = append(rs[0].Blocks, 99)
				return rs
			},
		},
		{
			// One partition cannot hold an overlap, so the two regions come
			// from two region.New calls: RG002 re-derives ownership from the
			// block lists, not from the formers' partition.
			name: "RG002/overlap", want: "RG002", msg: "bb1 belongs to regions 0 and 1",
			build: func() (*ir.Function, []*region.Region) {
				fn := fanout(1)
				return fn, treeOf(fn, region.KindTreegion, []ir.BlockID{0, 1, 0}, []ir.BlockID{2})
			},
			brk: func(fn *ir.Function, rs []*region.Region) []*region.Region {
				r0 := region.New(fn, region.KindTreegion, 0)
				r0.Add(1, 0)
				r1 := region.New(fn, region.KindTreegion, 1)
				r1.Add(2, 1)
				return []*region.Region{r0, r1}
			},
		},
		{
			name: "RG002/uncovered", want: "RG002", msg: "bb2 belongs to no region",
			build: func() (*ir.Function, []*region.Region) {
				fn := fanout(1)
				return fn, treeOf(fn, region.KindTreegion, []ir.BlockID{0, 1, 0}, []ir.BlockID{2})
			},
			brk: func(_ *ir.Function, rs []*region.Region) []*region.Region { return rs[:1] },
		},
		{
			name: "RG003/merge-point-inside", want: "RG003", msg: "bb3 has 2 CFG predecessors",
			build: func() (*ir.Function, []*region.Region) {
				fn := fanout(2)
				return fn, treeOf(fn, region.KindTreegion, []ir.BlockID{0, 1, 0, 2, 0}, []ir.BlockID{3})
			},
			brk: func(fn *ir.Function, _ []*region.Region) []*region.Region {
				// bb3 joins bb1's subtree although bb2 also reaches it.
				return treeOf(fn, region.KindTreegion, []ir.BlockID{0, 1, 0, 3, 1}, []ir.BlockID{2})
			},
		},
		{
			name: "RG004/multi-block-basic-block", want: "RG004", msg: "basic-block region with 2 blocks",
			build: func() (*ir.Function, []*region.Region) {
				fn := fanout(1)
				return fn, treeOf(fn, region.KindBasicBlock, []ir.BlockID{0}, []ir.BlockID{1}, []ir.BlockID{2})
			},
			brk: func(fn *ir.Function, _ []*region.Region) []*region.Region {
				return treeOf(fn, region.KindBasicBlock, []ir.BlockID{0, 1, 0}, []ir.BlockID{2})
			},
		},
		{
			name: "RG004/branching-slr", want: "RG004", msg: "(slr) is not linear: bb0 has 2 in-region children",
			build: func() (*ir.Function, []*region.Region) {
				fn := fanout(2)
				return fn, treeOf(fn, region.KindSLR, []ir.BlockID{0, 1, 0}, []ir.BlockID{2}, []ir.BlockID{3})
			},
			brk: func(fn *ir.Function, _ []*region.Region) []*region.Region {
				return treeOf(fn, region.KindSLR, []ir.BlockID{0, 1, 0, 2, 0}, []ir.BlockID{3})
			},
		},
		{
			// bb3 tail duplicated onto bb1 (as bb4): the duplicate weighs 3
			// against an original 11 (ops plus one per block), beyond a
			// 1.2 limit's 2.2 but within a 2.0 limit's 11.
			name: "RG005/expansion", want: "RG005", msg: "duplicated 3 ops+blocks onto an original size of 11",
			build: func() (*ir.Function, []*region.Region) {
				fn := fanout(2)
				dup := region.TailDuplicate(fn, profile.New(), 1, 3)
				return fn, treeOf(fn, region.KindTreegionTD, []ir.BlockID{0, 1, 0, dup.ID, 1, 2, 0, 3, 2})
			},
			brk: func(_ *ir.Function, rs []*region.Region) []*region.Region { return rs },
			td:  core.TDConfig{ExpansionLimit: 1.2, PathLimit: 20, MergeLimit: 4},
		},
		{
			// Four leaves under the root: no single admitted arm explains a
			// count two past a limit of 2.
			name: "RG005/paths", want: "RG005", msg: "has 4 root-to-leaf paths (limit 2",
			build: func() (*ir.Function, []*region.Region) {
				fn := fanout(4)
				return fn, treeOf(fn, region.KindTreegionTD, []ir.BlockID{0, 1, 0, 2, 0, 3, 0, 4, 0}, []ir.BlockID{5})
			},
			brk: func(_ *ir.Function, rs []*region.Region) []*region.Region { return rs },
			td:  core.TDConfig{ExpansionLimit: 2, PathLimit: 2, MergeLimit: 4},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fn, rs := c.build()
			if err := fn.Validate(); err != nil {
				t.Fatal(err)
			}
			if got, msgs := rgFindings(fn, rs, limits); len(got) != 0 {
				t.Fatalf("well-formed regions report %v:\n%s", got, msgs)
			}
			td := c.td
			if td == (core.TDConfig{}) {
				td = limits
			}
			got, msgs := rgFindings(fn, c.brk(fn, rs), td)
			if !reflect.DeepEqual(got, []string{c.want}) || !strings.Contains(msgs, c.msg) {
				t.Fatalf("rules = %v, want exactly [%s] with %q; findings:\n%s", got, c.want, c.msg, msgs)
			}
		})
	}
}
