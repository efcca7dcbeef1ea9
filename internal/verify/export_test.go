package verify

// RefCheckSchedule exposes the reference schedule check to the external
// differential witness, which compiles schedules and so cannot live in this
// package (eval imports verify).
var RefCheckSchedule = refCheckSchedule
