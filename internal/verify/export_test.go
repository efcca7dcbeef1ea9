package verify

import (
	"treegion/internal/cfg"
	"treegion/internal/ir"
	"treegion/internal/region"
	"treegion/internal/sched"
)

// RefCheckSchedule exposes the reference schedule check to the external
// differential witness, which compiles schedules and so cannot live in this
// package (eval imports verify).
var RefCheckSchedule = refCheckSchedule

// CheckSchedule is the package's CheckSchedule on s's tables, so the
// external witnesses can check every region on one shared Scratch.
func (s *Scratch) CheckSchedule(fn *ir.Function, r *region.Region, sch *sched.Schedule, lv *cfg.Liveness) []Diagnostic {
	return s.checkSchedule(fn, r, sch, lv)
}

// Overflows returns how many registers s has numbered through its
// overflow map.
func (s *Scratch) Overflows() int { return s.regs.Overflows() }
