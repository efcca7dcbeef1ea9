package inline

import (
	"testing"

	"treegion/internal/interp"
	"treegion/internal/ir"
	"treegion/internal/irtext"
	"treegion/internal/profile"
)

const callerSrc = `
func cmain
bb0:
  r0 = movi 7
  r1 = movi 5
  r2 = call @cadd r0, r1
  r3 = add r2, r0
  st [r0+0], r3
  ret

func cadd(r0, r1) -> (r2)
bb0:
  r2 = add r0, r1
  ret
`

// setup parses callerSrc, profiles every function, and returns the program,
// its profiles, and a working clone of function 0 with its profile.
func setup(t *testing.T) (*ir.Program, *Env, *ir.Function, *profile.Data) {
	t.Helper()
	prg, err := irtext.ParseProgram(callerSrc)
	if err != nil {
		t.Fatal(err)
	}
	profs := make([]*profile.Data, len(prg.Funcs))
	for i, fn := range prg.Funcs {
		profs[i], err = interp.Profile(fn, 1, 50, interp.Config{MaxSteps: 1_000_000})
		if err != nil {
			t.Fatal(err)
		}
	}
	env := &Env{Prog: prg, Profiles: profs}
	return prg, env, prg.Funcs[0].Clone(), profs[0].Clone()
}

func TestNewReturnsNilWhenInert(t *testing.T) {
	_, env, fn, prof := setup(t)
	if New(Config{}, env, fn, prof) != nil {
		t.Fatal("disabled config must yield a nil inliner")
	}
	if New(DefaultConfig(), nil, fn, prof) != nil {
		t.Fatal("nil env must yield a nil inliner")
	}
	if New(DefaultConfig(), &Env{}, fn, prof) != nil {
		t.Fatal("env without a program must yield a nil inliner")
	}
	if New(DefaultConfig(), env, fn, nil) != nil {
		t.Fatal("nil profile must yield a nil inliner")
	}
}

func TestSpliceBindsConvention(t *testing.T) {
	prg, env, fn, prof := setup(t)
	in := New(DefaultConfig(), env, fn, prof)
	if in == nil {
		t.Fatal("inliner unexpectedly nil")
	}
	preOps := fn.NumOps()
	if !in.RewriteBlock(fn.Entry) {
		t.Fatal("eligible call not spliced")
	}
	st := in.Stats()
	if st.Inlined != 1 || st.Declined() != 0 || len(st.Splices) != 1 {
		t.Fatalf("stats = %+v", st)
	}
	sp := st.Splices[0]
	if sp.Callee != "cadd" || sp.CalleeIndex != 1 || sp.Depth != 1 {
		t.Fatalf("splice record = %+v", sp)
	}
	// Callee body (1 add) + 2 arg copies + 1 ret copy; the RET itself is
	// replaced by a fallthrough.
	if sp.Ops != 4 || st.InlinedOps != 4 || fn.NumOps() != preOps-1+4 {
		t.Fatalf("ops accounting: splice %d, total %d->%d", sp.Ops, preOps, fn.NumOps())
	}
	// Host prefix: the call is gone, replaced by two argument copies, and
	// control falls through into the spliced entry.
	host := fn.Block(sp.Host)
	last := host.Ops[len(host.Ops)-1]
	if last.Opcode != ir.Copy || host.FallThrough != sp.Entry {
		t.Fatalf("host not rewired: last op %v, fallthrough %v", last.Opcode, host.FallThrough)
	}
	for _, b := range fn.Blocks {
		for _, op := range b.Ops {
			if op.Opcode == ir.Call {
				t.Fatal("call op survived the splice")
			}
		}
	}
	// The entry clone carries the callee's namespaced Orig; the continuation
	// keeps the host's, so the trace logs the caller resuming.
	entry := fn.Block(sp.Entry)
	if int(entry.Orig) < prg.OrigBase(1) {
		t.Fatalf("entry Orig %d not namespaced (base %d)", entry.Orig, prg.OrigBase(1))
	}
	cont := fn.Block(sp.Cont)
	if cont.Orig != host.Orig {
		t.Fatalf("continuation Orig %d != host %d", cont.Orig, host.Orig)
	}
	// The RET clone binds the callee's return into the call destination and
	// falls through to the continuation.
	bind := entry.Ops[len(entry.Ops)-1]
	if bind.Opcode != ir.Copy || entry.FallThrough != sp.Cont {
		t.Fatalf("return not bound: %v -> %v", bind.Opcode, entry.FallThrough)
	}
	if err := fn.Validate(); err != nil {
		t.Fatalf("spliced function invalid: %v", err)
	}
}

func TestDeclineReasons(t *testing.T) {
	t.Run("size", func(t *testing.T) {
		_, env, fn, prof := setup(t)
		c := DefaultConfig()
		c.MaxCalleeOps = 1
		in := New(c, env, fn, prof)
		if in.RewriteBlock(fn.Entry) {
			t.Fatal("oversized callee spliced")
		}
		if st := in.Stats(); st.DeclinedSize != 1 || st.Inlined != 0 {
			t.Fatalf("stats = %+v", st)
		}
	})
	t.Run("budget", func(t *testing.T) {
		_, env, fn, prof := setup(t)
		c := DefaultConfig()
		c.ExpansionLimit = 1.0 // no headroom: any splice adds ops
		in := New(c, env, fn, prof)
		if in.RewriteBlock(fn.Entry) {
			t.Fatal("over-budget callee spliced")
		}
		if st := in.Stats(); st.DeclinedBudget != 1 {
			t.Fatalf("stats = %+v", st)
		}
	})
	t.Run("guarded", func(t *testing.T) {
		_, env, fn, prof := setup(t)
		for _, b := range fn.Blocks {
			for _, op := range b.Ops {
				if op.Opcode == ir.Call {
					op.Guard = fn.NewReg(ir.ClassPred)
				}
			}
		}
		in := New(DefaultConfig(), env, fn, prof)
		if in.RewriteBlock(fn.Entry) {
			t.Fatal("guarded call spliced")
		}
		if st := in.Stats(); st.DeclinedGuarded != 1 {
			t.Fatalf("stats = %+v", st)
		}
	})
	t.Run("shape-unprofiled", func(t *testing.T) {
		_, env, fn, prof := setup(t)
		env.Profiles[1] = nil // entry weight unknowable
		in := New(DefaultConfig(), env, fn, prof)
		if in.RewriteBlock(fn.Entry) {
			t.Fatal("unprofiled callee spliced")
		}
		if st := in.Stats(); st.DeclinedShape != 1 {
			t.Fatalf("stats = %+v", st)
		}
	})
}

const chainSrc = `
func dmain
bb0:
  r0 = movi 9
  r1 = movi 2
  r2 = call @dmid r0, r1
  st [r0+0], r2
  ret

func dmid(r0, r1) -> (r3)
bb0:
  r2 = call @dleaf r0, r1
  r3 = add r2, r1
  ret

func dleaf(r0, r1) -> (r2)
bb0:
  r2 = mul r0, r1
  ret
`

func TestDepthCapDeclinesNestedCall(t *testing.T) {
	prg, err := irtext.ParseProgram(chainSrc)
	if err != nil {
		t.Fatal(err)
	}
	profs := make([]*profile.Data, len(prg.Funcs))
	for i, fn := range prg.Funcs {
		profs[i], err = interp.Profile(fn, 1, 50, interp.Config{MaxSteps: 1_000_000})
		if err != nil {
			t.Fatal(err)
		}
	}
	env := &Env{Prog: prg, Profiles: profs}
	fn, prof := prg.Funcs[0].Clone(), profs[0].Clone()
	c := DefaultConfig()
	c.MaxDepth = 1
	in := New(c, env, fn, prof)
	if !in.RewriteBlock(fn.Entry) {
		t.Fatal("depth-1 splice refused")
	}
	sp := in.Stats().Splices[0]
	// The spliced dmid body carries the call to dleaf at depth 1; with
	// MaxDepth 1 the nested call must be declined, not spliced.
	if in.RewriteBlock(sp.Entry) {
		t.Fatal("nested call spliced past the depth cap")
	}
	if st := in.Stats(); st.DeclinedDepth != 1 || st.Inlined != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// Raising the cap splices it, at depth 2.
	fn2, prof2 := prg.Funcs[0].Clone(), profs[0].Clone()
	in2 := New(DefaultConfig(), env, fn2, prof2)
	if !in2.RewriteBlock(fn2.Entry) {
		t.Fatal("first splice refused")
	}
	if !in2.RewriteBlock(in2.Stats().Splices[0].Entry) {
		t.Fatal("nested splice refused under default depth")
	}
	if sps := in2.Stats().Splices; len(sps) != 2 || sps[1].Depth != 2 {
		t.Fatalf("splices = %+v", sps)
	}
}

func TestTwoSplicesGetFreshRegisters(t *testing.T) {
	src := `
func tmain
bb0:
  r0 = movi 4
  r1 = movi 3
  r2 = call @tadd r0, r1
  r3 = call @tadd r2, r1
  st [r0+0], r3
  ret

func tadd(r0, r1) -> (r2)
bb0:
  r2 = add r0, r1
  ret
`
	prg, err := irtext.ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	profs := make([]*profile.Data, len(prg.Funcs))
	for i, fn := range prg.Funcs {
		profs[i], err = interp.Profile(fn, 1, 50, interp.Config{MaxSteps: 1_000_000})
		if err != nil {
			t.Fatal(err)
		}
	}
	env := &Env{Prog: prg, Profiles: profs}
	fn, prof := prg.Funcs[0].Clone(), profs[0].Clone()
	in := New(DefaultConfig(), env, fn, prof)
	if !in.RewriteBlock(fn.Entry) {
		t.Fatal("first splice refused")
	}
	cont := in.Stats().Splices[0].Cont
	if !in.RewriteBlock(cont) {
		t.Fatal("second splice refused")
	}
	sps := in.Stats().Splices
	if len(sps) != 2 {
		t.Fatalf("splices = %+v", sps)
	}
	// The add op in each clone must write a different register.
	destOf := func(bid ir.BlockID) ir.Reg {
		for _, op := range fn.Block(bid).Ops {
			if op.Opcode == ir.Add {
				return op.Dests[0]
			}
		}
		t.Fatalf("no add in block %d", bid)
		return ir.Reg{}
	}
	if d0, d1 := destOf(sps[0].Entry), destOf(sps[1].Entry); d0 == d1 {
		t.Fatalf("two instances share register %v", d0)
	}
	if err := fn.Validate(); err != nil {
		t.Fatalf("doubly spliced function invalid: %v", err)
	}
	// The program still computes (4+3)+3 = 10: run it and check the store.
	var run interp.Runner
	run.Reset(nil, new(ir.Numbering))
	tr := new(interp.Trace)
	if err := run.RunTrace(fn, interp.NewOracle(1), interp.Config{}, tr); err != nil {
		t.Fatal(err)
	}
	if len(tr.Stores) != 1 || tr.Stores[0].Value != 10 {
		t.Fatalf("stores = %+v, want 10", tr.Stores)
	}
}
