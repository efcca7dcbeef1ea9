package cfg

// DiffLiveness compares ComputeLiveness against the map-based reference,
// refLiveIn, on every block of fn and returns the number of blocks
// compared. It is exported for the external cfg_test package, whose
// witnesses import core and eval to reach the functions the compile path
// feeds liveness (cfg cannot import them itself).
var DiffLiveness = diffLiveness
