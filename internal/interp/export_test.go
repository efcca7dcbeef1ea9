package interp

// RefRunIn exposes the map-backed reference interpreter, and RefProfile the
// map-based reference profiler, to the external differential witnesses,
// which compile programs and so cannot live in this package (eval imports
// interp).
var (
	RefRunIn   = refRunIn
	RefProfile = refProfile
)
