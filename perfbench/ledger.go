package main

import (
	"time"
)

// ledger accumulates the traced passes of one run into per-layer figures.
type ledger struct {
	passes     int
	tracedWall time.Duration // Σ wall of the traced passes
	plainWall  time.Duration // Σ wall of their untraced counterparts
	self       [numLayers]int64
	passSelf   [numLayers][]float64 // ms per pass, for the spread
	counts     counts
	plainOps   int     // pre-formation ops of the untraced passes
	goDelta    goStats // runtime counters over the untraced passes
	// ddgAllocMiB is the ddg builds' heap allocation in one pass, counted
	// on a pass outside the ledger (see recorder.countAllocs).
	ddgAllocMiB float64

	// Service-only figures, read from the daemon and the client.
	cacheHitRatio, storeHitRatio, httpOverheadShare float64
}

// addPass folds in one traced pass: its spans from mark on, its counts
// since c0, and the wall times of the traced pass and its untraced twin.
func (l *ledger) addPass(rec *recorder, mark int, c0 counts, traced, plain time.Duration) {
	l.passes++
	l.tracedWall += traced
	l.plainWall += plain
	st := rec.selfTimes(mark)
	for i, v := range st {
		l.self[i] += v
		l.passSelf[i] = append(l.passSelf[i], float64(v)/1e6)
	}
	l.counts.regions += rec.c.regions - c0.regions
	l.counts.nodes += rec.c.nodes - c0.nodes
	l.counts.edges += rec.c.edges - c0.edges
	l.counts.cycles += rec.c.cycles - c0.cycles
}

// timedLayers get an _ms metric (per pass) and a .share in the JSON line;
// they run on every workload. shareOnlyLayers run on some workloads only,
// so their JSON metric is the share alone, which is 0 where the layer does
// not run; the readable ledger prints their times too.
var (
	timedLayers     = []layer{lForm, lLiveness, lDDG, lSched, lMeasure}
	shareOnlyLayers = []layer{lVerifyIR, lVerifyRG, lVerifySC, lVerifySEM, lVerifyCL, lProfile, lParse, lCache, lStoreGet, lStorePut}
)

// perLayerNames lists the --trace 1 JSON metrics in print order; it must
// match BENCHMARK.json's per_layer list (a test checks).
func perLayerNames() []string {
	var out []string
	for _, l := range timedLayers {
		out = append(out, layerMetric[l], layerMetric[l]+".share")
		switch l {
		case lForm:
			out = append(out, "core.regions")
		case lDDG:
			out = append(out, "ddg.us_per_region", "ddg.alloc_mb", "ddg.nodes", "ddg.edges")
		case lSched:
			out = append(out, "sched.cycles")
		}
	}
	for _, l := range shareOnlyLayers {
		out = append(out, layerMetric[l]+".share")
	}
	return append(out, "compcache.hit_ratio", "store.hit_ratio", "http.overhead.share",
		"go.gc_cpu_share", "go.alloc_mb_per_kop", "unattributed.share", "trace.overhead_share")
}

// emit prints the ledger and adds the per-layer metrics to rep.
func (l *ledger) emit(rep *report) {
	if l.passes == 0 || l.tracedWall <= 0 {
		rep.fail("no traced pass completed")
		return
	}
	n := float64(l.passes)
	perPass := func(ns int64) float64 { return float64(ns) / 1e6 / n }
	share := func(ns int64) float64 { return float64(ns) / float64(l.tracedWall) }

	rep.linef("# ledger: %d traced passes; self time per pass and share of the traced pass wall time", l.passes)
	attributed := 0.0
	for l2 := layer(0); l2 < lGlue; l2++ {
		attributed += share(l.self[l2])
		rep.linef("layer %-20s %10.3f ms %6.2f%%  iqr=%.1f%%", layerMetric[l2], perPass(l.self[l2]), 100*share(l.self[l2]), 100*spread(l.passSelf[l2]))
	}
	unattributed := 1 - attributed
	flag := ""
	if unattributed > 0.05 {
		flag = "  FLAG: above 5%"
	}
	rep.linef("layer %-20s %10.3f ms %6.2f%%%s", "unattributed", (1-attributed)*float64(l.tracedWall)/1e6/n, 100*unattributed, flag)
	overhead := float64(l.tracedWall-l.plainWall) / float64(l.plainWall)
	rep.linef("# ledger: traced pass %.3f ms = layers + unattributed; untraced pass %.3f ms; tracing overhead %.3f ms (%.2f%%)",
		float64(l.tracedWall)/1e6/n, float64(l.plainWall)/1e6/n, float64(l.tracedWall-l.plainWall)/1e6/n, 100*overhead)

	for _, ly := range timedLayers {
		rep.add(layerMetric[ly], perPass(l.self[ly]), "ms")
		rep.add(layerMetric[ly]+".share", share(l.self[ly]), "fraction")
		switch ly {
		case lForm:
			rep.add("core.regions", float64(l.counts.regions)/n, "count")
		case lDDG:
			usPerRegion := 0.0
			if l.counts.regions > 0 {
				usPerRegion = float64(l.self[lDDG]) / 1e3 / float64(l.counts.regions)
			}
			rep.add("ddg.us_per_region", usPerRegion, "us")
			rep.add("ddg.alloc_mb", l.ddgAllocMiB, "MiB")
			rep.add("ddg.nodes", float64(l.counts.nodes)/n, "count")
			rep.add("ddg.edges", float64(l.counts.edges)/n, "count")
		case lSched:
			rep.add("sched.cycles", float64(l.counts.cycles)/n, "count")
		}
	}
	for _, ly := range shareOnlyLayers {
		rep.add(layerMetric[ly]+".share", share(l.self[ly]), "fraction")
	}
	rep.add("compcache.hit_ratio", l.cacheHitRatio, "fraction")
	rep.add("store.hit_ratio", l.storeHitRatio, "fraction")
	rep.add("http.overhead.share", l.httpOverheadShare, "fraction")
	gcShare, allocPerKop := 0.0, 0.0
	if l.goDelta.totalCPU > 0 {
		gcShare = l.goDelta.gcCPU / l.goDelta.totalCPU
	}
	if l.plainOps > 0 {
		allocPerKop = float64(l.goDelta.allocBytes) / (1 << 20) / (float64(l.plainOps) / 1000)
	}
	rep.add("go.gc_cpu_share", gcShare, "fraction")
	rep.add("go.alloc_mb_per_kop", allocPerKop, "MiB")
	rep.add("unattributed.share", unattributed, "fraction")
	rep.add("trace.overhead_share", overhead, "fraction")
}
