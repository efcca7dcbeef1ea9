package interp_test

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"treegion/internal/eval"
	"treegion/internal/inline"
	"treegion/internal/interp"
	"treegion/internal/ir"
	"treegion/internal/progen"
)

// TestRunnerMatchesReference is the differential witness for the
// slot-decoded interpreter: over the suite, a slice of stress, callhot and
// calldeep — original and compiled functions (compiled as treegions, as
// if-converted treegions, and for the call presets with inlining), with
// the resolved program and without it, at full length and truncated at 500
// steps — every trip must produce the reference's exact trace and error
// text. One Runner serves every trip of a program, so decodes are reused
// across functions, seeds and lengths as the verifier reuses them. Every
// trip also runs on one Runner shared by all programs, reset for each as
// the verifier resets its Scratch's, recording into one reused Trace: its
// numbering, frames, counters, memory and trace storage must carry nothing
// from one trip or program to the next.
func TestRunnerMatchesReference(t *testing.T) {
	progs, err := progen.GenerateAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"stress", "callhot", "calldeep"} {
		preset, _ := progen.PresetByName(name)
		p, err := progen.Generate(preset)
		if err != nil {
			t.Fatal(err)
		}
		if name == "stress" {
			p.Funcs = p.Funcs[:2] // two 7000-op functions suffice
		}
		progs = append(progs, p)
	}
	trips, failed := 0, 0
	var shared interp.Runner
	var sharedNum ir.Numbering
	var sharedTrace interp.Trace
	for _, p := range progs {
		resolved, err := ir.NewProgram(p.Funcs)
		if err != nil {
			t.Fatal(err)
		}
		profs, err := eval.ProfileProgram(p)
		if err != nil {
			t.Fatal(err)
		}
		fns := append([]*ir.Function(nil), p.Funcs...)
		ifc := eval.DefaultConfig()
		ifc.IfConvert = true // guarded ops: squashed and executed
		configs := []eval.Config{eval.DefaultConfig(), ifc}
		if p.Preset.Call != nil {
			on := eval.DefaultConfig()
			on.Inline = inline.DefaultConfig()
			configs = append(configs, on)
		}
		for _, c := range configs {
			res, err := eval.CompileProgram(p, profs, c)
			if err != nil {
				t.Fatal(err)
			}
			for _, fr := range res.Funcs {
				fns = append(fns, fr.Fn)
			}
		}
		for _, prog := range []*ir.Program{resolved, nil} {
			if prog == nil && p.Preset.Call == nil {
				continue // call-free: a nil program changes nothing
			}
			var run interp.Runner
			run.Reset(prog, new(ir.Numbering))
			shared.Reset(prog, &sharedNum)
			for _, fn := range fns {
				for _, seed := range []uint64{1, 42} {
					for _, maxSteps := range []int{0, 500} {
						cfg := interp.Config{MaxSteps: maxSteps}
						got := new(interp.Trace)
						gotErr := run.RunTrace(fn, interp.NewOracle(seed), cfg, got)
						want, wantErr := interp.RefRunIn(prog, fn, interp.NewOracle(seed), cfg)
						where := fmt.Sprintf("%s/%s prog=%v seed=%d maxSteps=%d", p.Name, fn.Name, prog != nil, seed, maxSteps)
						if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
							t.Fatalf("%s: error %v, want %v", where, gotErr, wantErr)
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s: trace diverges from the reference:\n got %d blocks %d stores %d steps\nwant %d blocks %d stores %d steps",
								where, len(got.Blocks), len(got.Stores), got.Steps, len(want.Blocks), len(want.Stores), want.Steps)
						}
						sharedErr := shared.RunTrace(fn, interp.NewOracle(seed), cfg, &sharedTrace)
						if fmt.Sprint(sharedErr) != fmt.Sprint(wantErr) {
							t.Fatalf("%s: on the shared Runner, error %v, want %v", where, sharedErr, wantErr)
						}
						if !slices.Equal(sharedTrace.Blocks, want.Blocks) || !slices.Equal(sharedTrace.Stores, want.Stores) || sharedTrace.Steps != want.Steps {
							t.Fatalf("%s: on the shared Runner, trace diverges from the reference:\n got %d blocks %d stores %d steps\nwant %d blocks %d stores %d steps",
								where, len(sharedTrace.Blocks), len(sharedTrace.Stores), sharedTrace.Steps, len(want.Blocks), len(want.Stores), want.Steps)
						}
						trips++
						if wantErr != nil {
							failed++
						}
					}
				}
			}
		}
	}
	// Truncation must actually cut trips short, so the error path is
	// compared too.
	if failed == 0 || failed == trips {
		t.Fatalf("%d of %d trips failed; want some of each", failed, trips)
	}
	t.Logf("%d trips, %d ending in an error", trips, failed)
}
