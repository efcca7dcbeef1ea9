package interp

// RefRunIn exposes the map-backed reference interpreter to the external
// differential witness, which compiles programs and so cannot live in this
// package (eval imports interp).
var RefRunIn = refRunIn
