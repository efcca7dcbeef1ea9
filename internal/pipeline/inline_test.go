package pipeline

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"treegion/internal/compcache"
	"treegion/internal/eval"
	"treegion/internal/inline"
	"treegion/internal/ir"
	"treegion/internal/profile"
	"treegion/internal/progen"
)

// callhot generates and profiles the 90/10 hot-callee preset: five callers
// and the four leaf callees they call.
func callhot(t testing.TB) (*progen.Program, eval.Profiles) {
	t.Helper()
	p, ok := progen.PresetByName("callhot")
	if !ok {
		t.Fatal("no callhot preset")
	}
	prog, err := progen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	profs, err := eval.ProfileProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	return prog, profs
}

// inlineConfig is the headline configuration with the default inlining
// budgets: Config.Inline, the only inline switch.
func inlineConfig() eval.Config {
	c := eval.DefaultConfig()
	c.Inline = inline.DefaultConfig()
	return c
}

// TestCompileInlineMatchesSerial: the pipeline compiles what Config.Inline
// says. callhot through CompileProgram, at one worker and at four, equals
// eval.CompileProgram under the same Config: time, the inline record and
// every schedule's text.
func TestCompileInlineMatchesSerial(t *testing.T) {
	prog, profs := callhot(t)
	c := inlineConfig()
	want, err := eval.CompileProgram(prog, profs, c)
	if err != nil {
		t.Fatal(err)
	}
	if want.Inline.Inlined == 0 {
		t.Fatal("the serial reference spliced no call on callhot")
	}
	for _, workers := range []int{1, 4} {
		got, err := CompileProgram(context.Background(), prog, profs, c, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if got.Time != want.Time {
			t.Errorf("%d workers: time %v, serial reference %v", workers, got.Time, want.Time)
		}
		if !reflect.DeepEqual(got.Inline, want.Inline) {
			t.Errorf("%d workers: %d splices (%d ops), serial reference %d (%d ops)",
				workers, got.Inline.Inlined, got.Inline.InlinedOps, want.Inline.Inlined, want.Inline.InlinedOps)
		}
		for i, fr := range got.Funcs {
			wf := want.Funcs[i]
			if len(fr.Schedules) != len(wf.Schedules) {
				t.Errorf("%d workers: %s has %d schedules, serial reference %d",
					workers, fr.Fn.Name, len(fr.Schedules), len(wf.Schedules))
				continue
			}
			for j, s := range fr.Schedules {
				if s.String() != wf.Schedules[j].String() {
					t.Errorf("%d workers: %s schedule %d differs from the serial reference", workers, fr.Fn.Name, j)
				}
			}
		}
	}
}

// TestInlineWithoutProgramRefused: a compile of one function cannot
// resolve the program its callees live in, so a config that enables
// inlining without an InlineEnv is refused, naming the function, rather
// than compiled without splices under an inlining fingerprint.
func TestInlineWithoutProgramRefused(t *testing.T) {
	prog, profs := callhot(t)
	fn, prof, c := prog.Funcs[0], profs[0], inlineConfig()
	if _, err := eval.CompileFunction(fn.Clone(), prof.Clone(), c); err == nil || !strings.Contains(err.Error(), fn.Name) {
		t.Errorf("eval.CompileFunction: err = %v, want a refusal naming %s", err, fn.Name)
	}
	load := func() (*ir.Function, *profile.Data, error) { return fn, prof, nil }
	key := contentKey(fn, prof, c, false)
	opts := Options{Cache: compcache.New(64 << 20)}
	if _, _, err := CompileKeyed(context.Background(), key, load, c, opts); err == nil || !strings.Contains(err.Error(), fn.Name) {
		t.Errorf("CompileKeyed: err = %v, want a refusal naming %s", err, fn.Name)
	}
}

// TestEditedCalleeRecompilesItsCallers: with inlining on, a function's
// content key covers the bodies and profiles of its transitive callees
// (DESIGN.md §15). Over one shared cache, editing one callee recompiles it
// and exactly the functions that reach it through calls; every other
// function is a cache hit.
func TestEditedCalleeRecompilesItsCallers(t *testing.T) {
	prog, profs := callhot(t)
	c := inlineConfig()
	opts := Options{Workers: 2, Cache: compcache.New(64 << 20)}
	compile := func(fns []*ir.Function) []bool {
		t.Helper()
		cached := make([]bool, len(fns))
		err := CompileEach(context.Background(), fns, profs, c, opts, func(i int, _ *eval.FunctionResult, hit bool, err error) error {
			cached[i] = hit
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return cached
	}
	compile(prog.Funcs)

	const callee = "callhot_c0"
	fns := append([]*ir.Function(nil), prog.Funcs...)
	edit := -1
	for i, fn := range fns {
		if fn.Name == callee {
			edit = i
		}
	}
	if edit < 0 {
		t.Fatalf("callhot has no %s", callee)
	}
	fns[edit] = fns[edit].Clone()
	edited := false
	for _, b := range fns[edit].Blocks {
		for _, op := range b.Ops {
			if op.Opcode == ir.MovI && !edited {
				op.Imm++
				edited = true
			}
		}
	}
	if !edited {
		t.Fatalf("%s has no MOVI to edit", callee)
	}

	// reaches[i]: fns[i] calls the edited callee, directly or through
	// other callees.
	byName := make(map[string]int, len(fns))
	for i, fn := range fns {
		byName[fn.Name] = i
	}
	reaches := make([]bool, len(fns))
	for changed := true; changed; {
		changed = false
		for i, fn := range fns {
			for _, b := range fn.Blocks {
				for _, op := range b.Ops {
					if j, ok := byName[op.Callee]; ok && op.Opcode == ir.Call && !reaches[i] && (j == edit || reaches[j]) {
						reaches[i], changed = true, true
					}
				}
			}
		}
	}

	cold := 0
	for i, hit := range compile(fns) {
		want := i == edit || reaches[i]
		if hit == want {
			t.Errorf("%s: cache hit %v after editing %s, want %v", fns[i].Name, hit, callee, !want)
		}
		if !hit {
			cold++
		}
	}
	if cold < 2 || cold == len(fns) {
		t.Errorf("editing %s recompiled %d of %d functions; the test needs callers and non-callers", callee, cold, len(fns))
	}
	t.Logf("editing %s: %d cold compiles of %d functions", callee, cold, len(fns))
}
