package cfg

import "treegion/internal/ir"

// RegSet is a map-backed set of virtual registers. The hot liveness dataflow
// uses word-packed BitSets instead (see liveness.go). RegSet is kept as the
// verifier's deliberately independent representation: its must-define
// analysis (verify/ircheck.go, irChecker.mustDefine) derives definedness
// over plain register keys, sharing neither the dense ir.RegIndex numbering
// nor the bitsets of the analyses it checks. Tests use it too, where
// registers are inserted incrementally and the universe is not known up
// front.
type RegSet map[ir.Reg]struct{}

// NewRegSet returns a set holding the given registers.
func NewRegSet(rs ...ir.Reg) RegSet {
	s := make(RegSet, len(rs))
	for _, r := range rs {
		s.Add(r)
	}
	return s
}

// Add inserts r (ignores NoReg).
func (s RegSet) Add(r ir.Reg) {
	if r.IsValid() {
		s[r] = struct{}{}
	}
}

// Has reports membership.
func (s RegSet) Has(r ir.Reg) bool {
	_, ok := s[r]
	return ok
}

// AddAll inserts every register of o and reports whether s grew.
func (s RegSet) AddAll(o RegSet) bool {
	grew := false
	for r := range o {
		if _, ok := s[r]; !ok {
			s[r] = struct{}{}
			grew = true
		}
	}
	return grew
}

// Clone returns an independent copy.
func (s RegSet) Clone() RegSet {
	c := make(RegSet, len(s))
	for r := range s {
		c[r] = struct{}{}
	}
	return c
}
