package core

import (
	"testing"

	"treegion/internal/cfg"
	"treegion/internal/ddg"
	"treegion/internal/interp"
	"treegion/internal/ir"
	"treegion/internal/region"
)

func TestHeuristicKeys(t *testing.T) {
	n := &ddg.Node{Height: 3, ExitCount: 2, Weight: 50}
	cases := []struct {
		h    Heuristic
		want [3]float64
	}{
		{DepHeight, [3]float64{3, 0, 0}},
		{ExitCount, [3]float64{2, 3, 0}},
		{GlobalWeight, [3]float64{50, 3, 0}},
		{WeightedCount, [3]float64{50, 2, 3}},
	}
	for _, c := range cases {
		if got := c.h.Keys(n); got != c.want {
			t.Errorf("%v.Keys = %v, want %v", c.h, got, c.want)
		}
	}
}

func TestHeuristicNamesRoundTrip(t *testing.T) {
	for _, h := range Heuristics() {
		got, err := ParseHeuristic(h.String())
		if err != nil || got != h {
			t.Errorf("round trip failed for %v", h)
		}
	}
	if _, err := ParseHeuristic("magic"); err == nil {
		t.Error("bogus heuristic accepted")
	}
}

func TestFormSelfLoop(t *testing.T) {
	// A self-looping block is its own merge point: it roots a singleton
	// treegion and the back edge is an exit to its own root.
	f := ir.NewFunction("self")
	b0, b1, b2 := f.NewBlock(), f.NewBlock(), f.NewBlock()
	p := f.NewReg(ir.ClassPred)
	b0.FallThrough = b1.ID
	f.EmitCmpp(b1, p, ir.NoReg, ir.CondLT, ir.GPR(0), ir.GPR(0))
	f.EmitBrct(b1, ir.NoReg, p, b1.ID, 0.5)
	b1.FallThrough = b2.ID
	f.EmitRet(b2)
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	regions := Form(f, cfg.New(f))
	if err := region.CheckPartition(f, regions); err != nil {
		t.Fatal(err)
	}
	for _, r := range regions {
		if !r.Contains(b1.ID) {
			continue
		}
		if r.Root != b1.ID {
			t.Fatalf("self-loop block must root its treegion, got %v", r)
		}
		// The self edge is an exit back to the root, never a tree edge.
		selfExit := false
		for _, e := range r.Exits() {
			if e.From == b1.ID && e.To == b1.ID {
				selfExit = true
			}
		}
		if !selfExit {
			t.Fatal("self edge not classified as an exit")
		}
		if err := r.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestFormDeepChainSingleTree(t *testing.T) {
	// A merge-free chain of N blocks becomes exactly one treegion.
	f := ir.NewFunction("deep")
	const n = 20
	blocks := make([]*ir.Block, n)
	for i := range blocks {
		blocks[i] = f.NewBlock()
	}
	for i := 0; i < n-1; i++ {
		blocks[i].FallThrough = blocks[i+1].ID
	}
	f.EmitRet(blocks[n-1])
	regions := Form(f, cfg.New(f))
	if len(regions) != 1 || len(regions[0].Blocks) != n {
		t.Fatalf("chain formed %d regions", len(regions))
	}
	if regions[0].PathCount() != 1 {
		t.Fatalf("chain tree has %d paths", regions[0].PathCount())
	}
}

func TestFormTDLimitOneIsPlainForm(t *testing.T) {
	// Expansion limit 1.0 leaves no duplication budget: treeform-td must
	// partition exactly like plain treeform (block sets, not kinds).
	f := fig1(t)
	prof, err := interp.Profile(f, 5, 200, interp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	f2 := f.Clone()
	plain := Form(f, cfg.New(f))
	td := FormTD(f2, prof, TDConfig{ExpansionLimit: 1.0, PathLimit: 20, MergeLimit: 4})
	if len(plain) != len(td) {
		t.Fatalf("limit-1.0 treeform-td made %d regions, plain made %d", len(td), len(plain))
	}
	if f2.NumOps() != f.NumOps() {
		t.Fatal("limit-1.0 duplicated code")
	}
	for i := range plain {
		if plain[i].String()[5:] != td[i].String()[8:] { // strip "tree "/"tree-td "
			t.Fatalf("region %d differs:\n%s\n%s", i, plain[i], td[i])
		}
	}
}

func TestFormTDDeterministic(t *testing.T) {
	mk := func() ([]*region.Region, *ir.Function) {
		f := fig1(t)
		prof, err := interp.Profile(f, 5, 200, interp.Config{})
		if err != nil {
			t.Fatal(err)
		}
		return FormTD(f, prof, DefaultTDConfig()), f
	}
	a, fa := mk()
	b, fb := mk()
	if fa.String() != fb.String() {
		t.Fatal("treeform-td transformed the CFG nondeterministically")
	}
	if len(a) != len(b) {
		t.Fatal("region counts differ")
	}
	for i := range a {
		if a[i].String() != b[i].String() {
			t.Fatal("regions differ")
		}
	}
}

func TestExitsBelowMatchesHeuristicIntuition(t *testing.T) {
	// On the Fig. 1 tree, root ops help every exit; leaf ops help only
	// their own.
	f := fig1(t)
	regions := Form(f, cfg.New(f))
	var top *region.Region
	for _, r := range regions {
		if r.Root == 0 {
			top = r
		}
	}
	eb := top.AppendExitsBelow(nil)
	root, l2, l3 := eb[top.Pos(0)], eb[top.Pos(2)], eb[top.Pos(3)]
	if root <= l2 || root <= l3 {
		t.Fatalf("root exit count %d must exceed leaf counts %d/%d", root, l2, l3)
	}
}
