package eval

import (
	"treegion/internal/core"
	"treegion/internal/ir"
	"treegion/internal/verify"
)

// VerifyDiagnostics runs the static verifier over one compiled function,
// translating the compilation Config into verifier options exactly as
// CompileFunction interpreted it (tail-duplication defaults included). orig
// is the pre-compilation function (CompileFunction mutates its input, so
// callers keep a clone); nil skips the differential semantics check. It
// verifies on ar's verifier tables.
//
// Unlike VerifyResult it does not touch fr, so it is safe on results shared
// out of a cache.
func VerifyDiagnostics(orig *ir.Function, fr *FunctionResult, c Config, ar *Arena) []verify.Diagnostic {
	var td core.TDConfig
	if c.Kind == TreegionTD {
		td = c.tdConfig()
	}
	opts := verify.Options{
		Machine:   c.Machine,
		TD:        td,
		IfConvert: c.IfConvert,
		Orig:      orig,
	}
	// Interprocedural context: with a resolved program the differential
	// check executes calls and CL001 re-derives residual call conventions;
	// with inlining on, the splice records enable CL002/CL003 and the
	// region checks' continuation handling.
	if c.InlineEnv != nil {
		opts.Prog = c.InlineEnv.Prog
	}
	if c.Inline.Enabled {
		st := fr.Inline
		opts.Inline = &st
	}
	return verify.CompiledScratch(fr.Fn, fr.Regions, fr.Schedules, opts, &ar.verify)
}

// VerifyResult is VerifyDiagnostics plus recording the diagnostics on fr.
// Only call it on a result this caller owns — never on a cached, shared one.
func VerifyResult(orig *ir.Function, fr *FunctionResult, c Config, ar *Arena) []verify.Diagnostic {
	ds := VerifyDiagnostics(orig, fr, c, ar)
	fr.Diagnostics = ds
	return ds
}
