package api

import (
	"reflect"
	"testing"

	"treegion/internal/core"
	"treegion/internal/eval"
	"treegion/internal/machine"
)

// TestNormalize pins the normal form: the defaults it fills, the
// configuration they resolve to (superblock bounds left zero, as the
// daemon has always compiled them), idempotence, and the errors.
func TestNormalize(t *testing.T) {
	off := false
	for _, tc := range []struct {
		name string
		in   CompileConfig
		want eval.Config
	}{
		{"zero", CompileConfig{}, eval.Config{
			Kind: eval.Treegion, Heuristic: core.GlobalWeight, Machine: machine.FourU,
			Rename: true, TD: core.DefaultTDConfig(),
		}},
		{"tree-td", CompileConfig{Region: "tree-td", ExpansionLimit: 3, Machine: "8U", Rename: &off}, eval.Config{
			Kind: eval.TreegionTD, Heuristic: core.GlobalWeight, Machine: machine.EightU,
			DominatorParallelism: true, TD: core.TDConfig{ExpansionLimit: 3, PathLimit: 20, MergeLimit: 4},
		}},
		{"negative limit", CompileConfig{Region: "sb", ExpansionLimit: -1, IfConvert: true}, eval.Config{
			Kind: eval.Superblock, Heuristic: core.GlobalWeight, Machine: machine.FourU, Rename: true,
			TD: core.TDConfig{ExpansionLimit: -1, PathLimit: 20, MergeLimit: 4}, IfConvert: true,
		}},
	} {
		n, cfg, err := tc.in.Normalize()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !reflect.DeepEqual(cfg, tc.want) {
			t.Errorf("%s: resolved to %+v, want %+v", tc.name, cfg, tc.want)
		}
		if n.Seed != 1 || n.Trips != 100 || n.Rename == nil || *n.Rename != cfg.Rename || n.DomPar != cfg.DominatorParallelism {
			t.Errorf("%s: normal form %+v", tc.name, n)
		}
		again, cfg2, err := n.Normalize()
		if err != nil || !reflect.DeepEqual(again, n) || !reflect.DeepEqual(cfg2, cfg) {
			t.Errorf("%s: normalizing the normal form gave %+v, %v", tc.name, again, err)
		}
	}
	for in, msg := range map[CompileConfig]string{
		{Region: "nope"}:     `unknown region kind "nope" (want bb, slr, tree, sb or tree-td)`,
		{Machine: "2U"}:      `unknown machine "2U" (want 1U, 4U, 8U or 16U)`,
		{Heuristic: "nope"}:  "",
		{Region: "tree-td2"}: "",
	} {
		_, _, err := in.Normalize()
		if err == nil || msg != "" && err.Error() != msg {
			t.Errorf("%+v: error %v, want %q", in, err, msg)
		}
	}
}
