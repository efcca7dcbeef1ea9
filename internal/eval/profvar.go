package eval

import (
	"treegion/internal/cfg"
	"treegion/internal/interp"
	"treegion/internal/profile"
)

// ReMeasure re-evaluates an already compiled function against a different
// profile — the paper's proposed future-work study ("investigate the
// performance of treegion schedules across different sets of inputs, to see
// the effects of profile variations"). The schedules are untouched; only
// the per-path weights change, exactly as running the compiled binary on a
// different input would.
//
// The new profile must be collected on the *transformed* function (the one
// inside fr), since tail duplication changed its CFG; ProfileCompiled does
// that.
func ReMeasure(fr *FunctionResult, prof *profile.Data) RegionTime {
	lv := cfg.ComputeLiveness(cfg.New(fr.Fn))
	var total RegionTime
	for _, s := range fr.Schedules {
		rt := MeasureRegion(s, prof, lv)
		total.Time += rt.Time
		total.TimeWithCopies += rt.TimeWithCopies
	}
	return total
}

// ProfileCompiled profiles the transformed function of fr with a fresh
// seed. Because the interpreter's branch oracle keys decisions off original
// op identities, duplicated branches keep the behaviour of their originals
// and the varied profile is a faithful "different input set".
func ProfileCompiled(fr *FunctionResult, seed uint64, trips int) (*profile.Data, error) {
	return interp.Profile(fr.Fn, seed, trips, interp.Config{MaxSteps: interp.ProfileMaxSteps})
}
