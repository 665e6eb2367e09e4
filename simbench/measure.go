package main

import (
	"fmt"
	"hash/fnv"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// iteration is one complete, independent execution of a workload on a
// fresh cluster: set-up, measured phases, collection and checks. A run
// repeats iterations with the same seed; every simulated quantity must
// come out identical each time.
type iteration struct {
	tr   *tracer
	prof *profiler // nil unless this iteration is the traced one

	// Host cost of set-up and of the measured phases, and the live heap
	// after a forced GC at the end.
	setup, measured hostTime
	liveHeap        uint64
	// peakRSS is the process's peak resident set over the iteration,
	// counted from the resident set left after the previous one's heap
	// was returned to the OS.
	peakRSS uint64
	// barrierIdle is the shard workers' wait at epoch barriers over the
	// measured phases; workerTime is those phases' wall time multiplied
	// by their worker count (zero on serial clusters).
	barrierIdle, workerTime time.Duration
	// rt and rtSetup are Go runtime counter deltas over the measured
	// phases and over the set-up steps.
	rt, rtSetup [len(runtimeNames)]float64

	// Simulated time covered by the measured phases.
	virtual time.Duration

	// layer holds the deterministic counter deltas of the measured
	// phases and setupLayer those of set-up (a fresh cluster's counters
	// up to its first measured phase); sim holds every other
	// deterministic simulated quantity (the sim_* results among them);
	// host holds per-layer host times.
	layer, setupLayer map[string]uint64
	sim               map[string]float64
	host              map[string]float64

	attempted, failed uint64
	problems          []string
}

func newIteration(run int, traced bool) *iteration {
	it := &iteration{
		tr:         newTracer(run, traced),
		layer:      map[string]uint64{},
		setupLayer: map[string]uint64{},
		sim:        map[string]float64{},
		host:       map[string]float64{},
	}
	if traced {
		it.prof = &profiler{}
	}
	return it
}

// setupStep runs one set-up step as a span; its time counts in setup_s
// and in the per-layer harness.<name>_s.
func (it *iteration) setupStep(name string, fn func()) {
	rt0 := readRuntime()
	h := it.timed(name, fn)
	rt1 := readRuntime()
	for i := range it.rtSetup {
		it.rtSetup[i] += rt1[i] - rt0[i]
	}
	it.setup.add(h)
	it.host["harness."+name+"_s"] += h.wall.Seconds()
}

// timed runs fn as a span and returns its host cost.
func (it *iteration) timed(name string, fn func()) hostTime {
	cpu0, steal0 := processCPU(), stealTime()
	d := it.tr.do(name, fn)
	return hostTime{wall: d, cpu: processCPU() - cpu0, steal: stealTime() - steal0}
}

// measure runs one measured phase of tb as a span. Its wall time counts
// in wall_s; process CPU, Go runtime counters, engine events, layer
// counters and simulated time are taken as deltas around it, and in a
// traced iteration a CPU profile covers exactly this phase.
func (it *iteration) measure(tb *testbed, name string, fn func()) {
	if !tb.measured {
		// First measured phase of this cluster. Set-up ends by
		// collecting its own garbage, so the measured phases start from
		// the same heap every time; otherwise whether the ramp's
		// leftover collection lands in the window decides wall_s.
		it.setupStep("gc", runtime.GC)
	}
	before := tb.counters()
	if !tb.measured {
		// Everything the cluster counted so far happened in set-up.
		diff(it.setupLayer, before, nil)
		tb.measured = true
	}
	tel0 := tb.cl.Telemetry()
	v0 := tb.cl.Eng.Now()
	if it.prof != nil {
		if err := it.prof.start(); err != nil {
			it.problem("cpu profile: %v", err)
		}
	}
	rt0 := readRuntime()
	h := it.timed(name, fn)
	rt1 := readRuntime()
	if it.prof != nil {
		if err := it.prof.stop(); err != nil {
			it.problem("%v", err)
		}
	}
	it.measured.add(h)
	for i := range it.rt {
		it.rt[i] += rt1[i] - rt0[i]
	}
	tel1 := tb.cl.Telemetry()
	if tel1.Shards > 1 {
		it.barrierIdle += tel1.BarrierIdle - tel0.BarrierIdle
		it.workerTime += time.Duration(tel1.Shards) * h.wall
	}
	it.virtual += time.Duration(tb.cl.Eng.Now() - v0)
	diff(it.layer, tb.counters(), before)
}

func (it *iteration) problem(format string, args ...any) {
	it.problems = append(it.problems, fmt.Sprintf(format, args...))
}

// finish applies the failure rule: a run whose invariant check failed
// counts every one of its operations as failed.
func (it *iteration) finish() {
	if it.attempted == 0 {
		it.problem("no operation attempted")
		it.attempted = 1
	}
	if len(it.problems) > 0 || it.failed > it.attempted {
		it.failed = it.attempted
	}
}

// digest is a hash over every deterministic simulated quantity of the
// iteration: the sim_* results, the workload's other simulated values
// and every deterministic layer counter. Same seed, same digest.
func (it *iteration) digest() string {
	var lines []string
	for k, v := range it.sim {
		lines = append(lines, k+"="+strconv.FormatFloat(v, 'g', -1, 64))
	}
	for k, v := range it.layer {
		lines = append(lines, k+"="+strconv.FormatUint(v, 10))
	}
	for k, v := range it.setupLayer {
		lines = append(lines, "setup."+k+"="+strconv.FormatUint(v, 10))
	}
	lines = append(lines, "attempted="+strconv.FormatUint(it.attempted, 10),
		"failed="+strconv.FormatUint(it.failed, 10))
	sort.Strings(lines)
	h := fnv.New64a()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// takeLiveHeap forces a collection and records the live heap (the
// largest, over a workload's legs); callers invoke it at the end of the
// measured phases while the cluster is still reachable, outside every
// timed span.
func (it *iteration) takeLiveHeap(keep any) {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	it.liveHeap = max(it.liveHeap, s[0].Value.Uint64())
	runtime.KeepAlive(keep)
}

// runtimeNames are the Go runtime counters sampled around measured
// phases (see runtime/metrics).
var runtimeNames = [...]string{
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

const (
	rtGCCycles = iota
	rtAllocObjects
	rtAllocBytes
	rtGCCPU
	rtTotalCPU
	rtIdleCPU
)

func readRuntime() (out [len(runtimeNames)]float64) {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s[i].Value.Float64()
		}
	}
	return out
}

// hostTime is the host cost of a stretch of a run: its wall time, the
// process's CPU time, and the VM's steal time — CPU time its vCPUs
// wanted but the hypervisor gave to other machines.
type hostTime struct {
	wall, cpu, steal time.Duration
}

func (h *hostTime) add(o hostTime) {
	h.wall += o.wall
	h.cpu += o.cpu
	h.steal += o.steal
}

// net is the wall time the stretch would have taken with the vCPUs
// fully served: the wall time scaled by the share of the CPU time the
// process asked for that it received, cpu / (cpu + steal). The process
// is the only busy one in the VM, so the VM's steal is its own. Where
// nothing is stolen, net is the wall time.
func (h hostTime) net() time.Duration {
	if h.steal <= 0 || h.cpu <= 0 {
		return h.wall
	}
	return time.Duration(float64(h.wall) * float64(h.cpu) / float64(h.cpu+h.steal))
}

// stealTime returns the VM's total steal time so far: the steal column
// of the cpu line of /proc/stat, in USER_HZ ticks of 10 ms. It is 0
// where /proc/stat cannot be read.
func stealTime() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseUint(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * 10 * time.Millisecond
}

// processCPU returns the user+system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS returns the heap the process no longer uses to the OS
// and restarts the kernel's record of its peak resident set (VmHWM) from
// the resident set that remains, so that the next peakRSS reading covers
// only what runs after it. It reports false where the record cannot be
// restarted (/proc/self/clear_refs is Linux-only).
func resetPeakRSS() bool {
	debug.FreeOSMemory()
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return false
	}
	_, err = f.Write([]byte("5"))
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err == nil
}

// peakRSS returns the process's peak resident set size in bytes since
// the last resetPeakRSS, or since it started: VmHWM of /proc/self/status,
// or the maximum RSS of getrusage where that file cannot be read.
func peakRSS() uint64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kb, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64); err == nil {
					return kb * 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return uint64(ru.Maxrss) * 1024 // kilobytes on Linux
}
