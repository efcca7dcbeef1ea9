package verify

import (
	"treegion/internal/cfg"
	"treegion/internal/ddg"
	"treegion/internal/ir"
	"treegion/internal/machine"
	"treegion/internal/region"
	"treegion/internal/sched"
)

// refCheckSchedule is CheckSchedule with refPathDependences in place of the
// slot-table walk; every other family is the production code.
func refCheckSchedule(fn *ir.Function, r *region.Region, s *sched.Schedule, lv *cfg.Liveness) []Diagnostic {
	c, ok := newSchedChecker(fn, r, s, lv)
	if !ok {
		return c.ds
	}
	c.width()
	c.edgeConformance()
	refPathDependences(c)
	c.controlWindows()
	c.liveExits()
	c.offPathClobbers()
	return c.ds
}

// refPathDependences is the map-based SC002/SC004 path walk the slot
// tables replaced, kept as their test oracle: fresh register maps per leaf
// and a fresh definition slice per killing definition.
func refPathDependences(c *schedChecker) {
	for _, leaf := range c.r.Leaves() {
		defs := make(map[ir.Reg][]*ddg.Node)
		readers := make(map[ir.Reg][]*ddg.Node)
		var lastStore *ddg.Node
		var loads []*ddg.Node
		for _, bid := range c.r.PathTo(leaf) {
			for _, n := range c.byBlock[bid] {
				if !c.ok(n) {
					continue
				}
				op := n.Op
				srcs := op.Srcs
				if op.Guarded() {
					srcs = append(append([]ir.Reg(nil), srcs...), op.Guard)
				}
				for _, src := range srcs {
					if !src.IsValid() {
						continue
					}
					for _, def := range defs[src] {
						if lat := machine.Latency(def.Op.Opcode); c.cyc(n) < c.cyc(def)+lat {
							c.addOnce("SC002", def, n,
								"%v (cycle %d) reads %v before %v (cycle %d, latency %d) produces it",
								op, c.cyc(n), src, def.Op, c.cyc(def), lat)
						}
					}
					readers[src] = append(readers[src], n)
				}
				switch op.Opcode {
				case ir.Ld:
					if lastStore != nil && c.cyc(n) < c.cyc(lastStore) {
						c.addOnce("SC004", lastStore, n,
							"%v (cycle %d) bypasses %v (cycle %d)", op, c.cyc(n), lastStore.Op, c.cyc(lastStore))
					}
					loads = append(loads, n)
				case ir.St, ir.Call:
					if lastStore != nil && c.cyc(n) < c.cyc(lastStore) {
						c.addOnce("SC004", lastStore, n,
							"%v (cycle %d) bypasses %v (cycle %d)", op, c.cyc(n), lastStore.Op, c.cyc(lastStore))
					}
					for _, ld := range loads {
						if c.cyc(n) < c.cyc(ld) {
							c.addOnce("SC004", ld, n,
								"%v (cycle %d) overtakes %v (cycle %d)", op, c.cyc(n), ld.Op, c.cyc(ld))
						}
					}
					lastStore = n
					loads = nil
				}
				for _, d := range op.Dests {
					if !d.IsValid() {
						continue
					}
					for _, rd := range readers[d] {
						if rd != n && c.cyc(n) < c.cyc(rd) {
							c.addOnce("SC002", rd, n,
								"%v (cycle %d) overwrites %v before reader %v (cycle %d)",
								op, c.cyc(n), d, rd.Op, c.cyc(rd))
						}
					}
					for _, def := range defs[d] {
						if c.cyc(n) < c.cyc(def)+1 {
							c.addOnce("SC002", def, n,
								"%v (cycle %d) does not issue after prior definition %v (cycle %d)",
								op, c.cyc(n), def.Op, c.cyc(def))
						}
					}
				}
				for _, d := range op.Dests {
					if !d.IsValid() {
						continue
					}
					if op.Guarded() {
						defs[d] = append(defs[d], n)
					} else {
						defs[d] = []*ddg.Node{n}
						readers[d] = nil
					}
				}
			}
		}
	}
}
