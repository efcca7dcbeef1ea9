package eval

import (
	"treegion/internal/cfg"
	"treegion/internal/ddg"
	"treegion/internal/profile"
	"treegion/internal/sched"
	"treegion/internal/verify"
)

// Arena is the compile scratch: the DDG builder's tables, the list
// scheduler's working set, measurement's views and the verifier's tables,
// reused across every region of a compile. Every
// compile owns one — CompileFunction makes a fresh arena per call, and each
// pipeline worker keeps one across every function it compiles. The
// buffers grow to the largest function and region seen and stay there;
// between builds they hold no facts about the last function (ddg.Scratch),
// so one arena serves any sequence of functions. A compile or a
// verification that panics leaves the arena mid-build, so it must then be
// discarded; the pipeline's panic recovery replaces it with an empty one.
//
// An Arena must not be shared between concurrent compiles.
type Arena struct {
	ddg     ddg.Scratch
	sched   sched.Scratch
	measure measurer
	verify  verify.Scratch
}

// NewArena returns an empty arena; buffers are grown on first use.
func NewArena() *Arena { return &Arena{} }

// MeasureRegion is MeasureRegion on the arena's measurement scratch.
func (a *Arena) MeasureRegion(s *sched.Schedule, prof *profile.Data, lv *cfg.Liveness) RegionTime {
	return a.measure.measure(s, prof, lv)
}
