package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuTicks reads the host's steal ticks and total ticks from the "cpu" line
// of /proc/stat. On a virtual machine, steal is time the hypervisor gave
// this machine's CPUs to other guests; it slows wall time and not CPU time.
func cpuTicks() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		if i < 8 { // user nice system idle iowait irq softirq steal; guest time is inside user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// cpuSeconds returns the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

// peakRSSMB returns the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// phase is the host cost of one timed phase: wall and CPU seconds.
type phase struct{ wall, cpu float64 }

// timed runs fn and measures its wall and CPU time.
func timed(fn func()) phase {
	c0, t0 := cpuSeconds(), time.Now()
	fn()
	return phase{wall: time.Since(t0).Seconds(), cpu: cpuSeconds() - c0}
}

// runtimeSnap is the Go runtime's allocation count, its estimate of GC CPU
// seconds and the process CPU seconds at one instant.
type runtimeSnap struct{ mallocs, gcCPU, cpu float64 }

// runWindow sums the change in a runtimeSnap over the intervals in which at
// least one simulation is inside Run, for the sim layer's allocs_per_minstr
// and gc_cpu_frac. The runtime's counters are process-wide: when Runs
// overlap on the scheduler's workers their union is counted once, including
// what a worker does between two jobs while the other is inside Run.
//
// The allocation count comes from runtime.ReadMemStats, which flushes every
// P's allocation cache first; runtime/metrics counts a cached span's
// allocations only when the span is released, so its count at a window's
// edge would include allocations made before the window (by sim.New, say)
// and miss some made inside it.
type runWindow struct {
	mu      sync.Mutex
	ms      runtime.MemStats // reused, so that taking a snapshot allocates nothing
	samples []metrics.Sample
	inside  int
	start   runtimeSnap
	sum     runtimeSnap
}

func newRunWindow() *runWindow {
	return &runWindow{samples: []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}}
}

// enter marks a simulation entering Run.
func (w *runWindow) enter() {
	w.mu.Lock()
	if w.inside == 0 {
		w.start = w.snap()
	}
	w.inside++
	w.mu.Unlock()
}

// exit marks a simulation leaving Run.
func (w *runWindow) exit() {
	w.mu.Lock()
	w.inside--
	if w.inside == 0 {
		s := w.snap()
		w.sum.mallocs += s.mallocs - w.start.mallocs
		w.sum.gcCPU += s.gcCPU - w.start.gcCPU
		w.sum.cpu += s.cpu - w.start.cpu
	}
	w.mu.Unlock()
}

// setLayers stores the window's sim.allocs_per_minstr and sim.gc_cpu_frac
// for instr simulated instructions.
func (w *runWindow) setLayers(l map[string]float64, instr uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	l["sim.allocs_per_minstr"] = w.sum.mallocs / (float64(instr) / 1e6)
	l["sim.gc_cpu_frac"] = w.sum.gcCPU / max(w.sum.cpu, 1e-9)
}

// snap reads the counters; w.mu is held.
func (w *runWindow) snap() runtimeSnap {
	runtime.ReadMemStats(&w.ms)
	metrics.Read(w.samples)
	return runtimeSnap{mallocs: float64(w.ms.Mallocs), gcCPU: w.samples[0].Value.Float64(), cpu: cpuSeconds()}
}
