package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostFacts are printed with every run so a noisy figure can be read
// against the machine it came from.
type hostFacts struct {
	cpuModel   string
	nproc      int
	gomaxprocs int
	goVersion  string
	stealStart int64
}

func readHost() hostFacts {
	h := hostFacts{nproc: runtime.NumCPU(), gomaxprocs: runtime.GOMAXPROCS(0), goVersion: runtime.Version(), cpuModel: "unknown"}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.cpuModel = strings.TrimSpace(v)
				break
			}
		}
	}
	h.stealStart = stealTicks()
	return h
}

// stealTicks is the aggregate "steal" column of /proc/stat: time the
// hypervisor ran someone else while this machine's vCPUs wanted to run.
func stealTicks() int64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return -1
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return -1
	}
	v, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return -1
	}
	return v
}

func (h hostFacts) report() string {
	steal := "unavailable"
	if now := stealTicks(); now >= 0 && h.stealStart >= 0 {
		steal = strconv.FormatInt(now-h.stealStart, 10)
	}
	return fmt.Sprintf("host cpu=%q nproc=%d GOMAXPROCS=%d go=%s steal_ticks_during_run=%s",
		h.cpuModel, h.nproc, h.gomaxprocs, h.goVersion, steal)
}

// cpuTime is this process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procCPU is a process's CPU time summed over its live threads from each
// thread's /proc/<pid>/task/<tid>/schedstat, in nanoseconds. /proc/<pid>/stat
// counts 10 ms ticks, too coarse for one pass. A Go process keeps its
// threads, so a thread that exits between two reads is rare; its time then
// drops out of the later read.
func procCPU(pid int) (time.Duration, error) {
	dir := fmt.Sprintf("/proc/%d/task", pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var ns int64
	for _, t := range tasks {
		data, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
		if err != nil {
			continue // the thread exited
		}
		f := strings.Fields(string(data))
		if len(f) < 1 {
			return 0, fmt.Errorf("malformed %s/%s/schedstat", dir, t.Name())
		}
		v, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("malformed %s/%s/schedstat", dir, t.Name())
		}
		ns += v
	}
	return time.Duration(ns), nil
}

// resetPeakRSS sets a process's VmHWM ("self" or a pid) back to its
// current resident set, so the next peakRSSMiB covers one pass only.
func resetPeakRSS(proc string) error {
	return os.WriteFile("/proc/"+proc+"/clear_refs", []byte("5"), 0)
}

// peakRSSMiB is VmHWM, the resident-set high-water mark, of a process
// ("self" or a pid).
func peakRSSMiB(proc string) (float64, error) {
	data, err := os.ReadFile("/proc/" + proc + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", proc)
}

// goStats samples the runtime's GC CPU and allocation counters; deltas
// around a pass give go.gc_cpu_share and go.alloc_mb_per_kop.
type goStats struct {
	gcCPU, totalCPU float64
	allocBytes      uint64
}

var goSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/gc/heap/allocs:bytes"},
}

func readGo() goStats {
	metrics.Read(goSamples)
	return goStats{
		gcCPU:      goSamples[0].Value.Float64(),
		totalCPU:   goSamples[1].Value.Float64(),
		allocBytes: goSamples[2].Value.Uint64(),
	}
}

func (a goStats) sub(b goStats) goStats {
	return goStats{gcCPU: a.gcCPU - b.gcCPU, totalCPU: a.totalCPU - b.totalCPU, allocBytes: a.allocBytes - b.allocBytes}
}
