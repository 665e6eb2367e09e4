package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"ix/internal/apps/echo"
	"ix/internal/harness"
	"ix/internal/stats"
)

func TestBucketingSyntheticProfile(t *testing.T) {
	samples := []sample{
		{stack: []string{"runtime.memhash64", "internal/runtime/maps.(*Map).getWithKeySmall",
			"runtime.mapaccess2", "ix/internal/tcp.(*Stack).Input", "ix/internal/netstack.(*Stack).Input"}, count: 7},
		{stack: []string{"runtime.mapassign_fast64", "ix/internal/fabric.(*Switch).Learn"}, count: 2},
		{stack: []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, count: 5},
		{stack: []string{"runtime.memclrNoHeapPointers", "runtime.gcAssistAlloc", "runtime.mallocgc",
			"ix/internal/tcp.(*Stack).newConn"}, count: 1},
		{stack: []string{"runtime.mallocgc", "ix/internal/tcp.(*Stack).newConn"}, count: 3},
		{stack: []string{"ix/internal/sim.(*Engine).Step", "ix/internal/harness.(*Cluster).Run"}, count: 11},
		{stack: []string{"ix/internal/apps/echo.(*client).OnRecv", "ix/internal/linuxstack.(*Host).deliver"}, count: 4},
		{stack: []string{"ix/internal/sim/shard.(*Runtime).RunFor"}, count: 2},
		{stack: []string{"ix/internal/cp.(*Arbiter).tick"}, count: 1},
		{stack: []string{"runtime.futex", "runtime.mcall"}, count: 6},
	}
	want := map[string]int64{"map": 9, "gc": 6, "tcp": 3, "sim": 11, "apps": 4, "shard": 2, "other": 7}
	counts, total := bucketSamples(samples)
	if total != 42 {
		t.Fatalf("total %d, want 42", total)
	}
	var sum int64
	for _, b := range cpuBuckets {
		sum += counts[b]
		if counts[b] != want[b] {
			t.Errorf("bucket %s: %d samples, want %d", b, counts[b], want[b])
		}
	}
	if len(counts) != len(cpuBuckets) || sum != total {
		t.Fatalf("buckets %v do not partition the %d samples", counts, total)
	}
	traced := &iteration{prof: &profiler{samples: samples}, measured: hostTime{wall: time.Second}}
	base := &iteration{measured: hostTime{wall: time.Second}, layer: map[string]uint64{}, sim: map[string]float64{}, host: map[string]float64{}}
	vals := layerValues([]*iteration{base}, traced)
	frac := 0.0
	for _, b := range cpuBuckets {
		frac += vals["cpu."+b+"_frac"]
	}
	if math.Abs(frac-1) > 1e-12 || vals["cpu.samples"] != 42 || vals["cpu.map_frac"] != 9.0/42 {
		t.Fatalf("shares sum to %v over %v samples (map %v)", frac, vals["cpu.samples"], vals["cpu.map_frac"])
	}
}

// TestDecodeRealProfile decodes a CPU profile written by runtime/pprof
// and checks that labelled samples keep their span.
func TestDecodeRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	pprof.Do(context.Background(), pprof.Labels("span", "spin"), func(context.Context) {
		x := uint64(1)
		for end := time.Now().Add(600 * time.Millisecond); time.Now().Before(end); {
			for i := 0; i < 1000; i++ {
				x = x*6364136223846793005 + 1442695040888963407
			}
		}
		sink = x
	})
	pprof.StopCPUProfile()
	samples, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	spin := int64(0)
	for _, s := range samples {
		if s.span == "spin" && len(s.stack) > 0 && strings.Contains(strings.Join(s.stack, " "), "TestDecodeRealProfile") {
			spin += s.count
		}
	}
	if spin == 0 {
		t.Fatalf("no labelled sample with this test's frames among %d samples", len(samples))
	}
}

var sink uint64

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// benchmarkFile is BENCHMARK.json, which must declare exactly the
// metrics this program prints.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []metricDef `json:"end_to_end"`
	PerLayer   []metricDef `json:"per_layer"`
}

func TestMetricNames(t *testing.T) {
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Fatalf("%d end-to-end and %d per-layer metrics; limits are 16 and 128", len(endToEnd), len(perLayer))
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("bad or repeated metric name %q", m.Name)
		}
		seen[m.Name] = true
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("metric %s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
	}
	maxBound := 0.0
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = math.Max(maxBound, m.Bound)
	}
	if endToEnd[0].Name != "setup_s" || endToEnd[0].Unit != "s" || endToEnd[0].Bound != maxBound {
		t.Errorf("setup_s must be declared, in s, with the largest bound: %+v", endToEnd[0])
	}

	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("BENCHMARK.json declares %d %s metrics, the program prints %d", len(got), kind, len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: BENCHMARK.json %+v, program %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end-to-end", bf.EndToEnd, endToEnd)
	same("per-layer", bf.PerLayer, perLayer)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why == "" {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, bf.Workloads[i].Name, w.name)
		}
	}
}

// TestLeakFailsTheRun leaks one frame on a real testbed: the pool check
// must report it and turn every operation of the run into a failure.
func TestLeakFailsTheRun(t *testing.T) {
	tb := newTestbed(1, 1)
	tb.add("host", harness.HostSpec{Arch: harness.ArchLinux, Cores: 1,
		Factory: echo.ServerFactory(echoPort, echoBytes)})
	tb.cl.Start()
	it := newIteration(0, false)
	it.attempted = 100
	checkPools(it, tb)
	if len(it.problems) != 0 {
		t.Fatalf("clean testbed reported %v", it.problems)
	}
	frame := tb.cl.LinuxHost(0).Stack().FramePool().Get(64)
	checkPools(it, tb)
	it.finish()
	if len(it.problems) != 1 || it.failed != it.attempted {
		t.Fatalf("leaked frame: problems %v, %d of %d failed", it.problems, it.failed, it.attempted)
	}
	frame.Release()
}

func TestDigestMismatchFailsTheRun(t *testing.T) {
	a := newIteration(0, false)
	b := newIteration(1, false)
	for _, it := range []*iteration{a, b} {
		it.attempted = 10
		it.sim["sim_ops_per_s"] = 5
	}
	b.sim["sim_ops_per_s"] = 6
	rep := &report{untraced: []*iteration{a, b}}
	rep.checkDigests()
	res := rep.result(false)
	if len(rep.problems) != 1 || res.Correct || res.Failed != res.Attempted || res.Attempted != 20 {
		t.Fatalf("digest mismatch reported %+v", res)
	}
}

func TestQuantileInterpolates(t *testing.T) {
	h := stats.NewHistogram()
	for v := 1000; v < 2000; v++ {
		h.Record(time.Duration(v))
	}
	for _, q := range []float64{0.25, 0.5, 0.99} {
		want := 1000 + q*1000
		if got := quantile(h, q); math.Abs(got-want) > 0.01*want {
			t.Errorf("quantile(%v) = %v, want ≈ %v (bucket bound %v)", q, got, want, h.Quantile(q))
		}
	}
}

func TestNetWallTime(t *testing.T) {
	for _, c := range []struct {
		h    hostTime
		want time.Duration
	}{
		{hostTime{wall: 3 * time.Second, cpu: 3 * time.Second}, 3 * time.Second},
		// One busy thread, stalled for 1 s of its 4 s: 3 s at full service.
		{hostTime{wall: 4 * time.Second, cpu: 3 * time.Second, steal: time.Second}, 3 * time.Second},
		// Two busy threads, each stalled 0.5 s: the phase stretched 0.5 s.
		{hostTime{wall: 3 * time.Second, cpu: 5 * time.Second, steal: time.Second}, 2500 * time.Millisecond},
	} {
		if got := c.h.net(); got != c.want {
			t.Errorf("%+v: net %v, want %v", c.h, got, c.want)
		}
	}
}

// TestPeakRSSRestarts checks that resetPeakRSS drops the peak left by
// memory the process no longer holds, so each iteration's peak is its
// own.
func TestPeakRSSRestarts(t *testing.T) {
	if !resetPeakRSS() {
		t.Skip("/proc/self/clear_refs is not writable")
	}
	base := peakRSS()
	const size = 64 << 20
	b := make([]byte, size)
	for i := 0; i < len(b); i += 4096 {
		b[i] = 1
	}
	runtime.KeepAlive(b)
	if got := peakRSS(); got < base+size*3/4 {
		t.Fatalf("peak %d after touching %d bytes, want at least %d", got, size, base+size*3/4)
	}
	b = nil
	if !resetPeakRSS() {
		t.Fatal("second reset failed")
	}
	if got := peakRSS(); got > base+size/4 {
		t.Fatalf("peak %d after the buffer was freed and the peak reset, want at most %d", got, base+size/4)
	}
}

func TestUsageErrorsPrintNoResult(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &out, &errb); code == 0 || out.Len() != 0 {
		t.Fatalf("unknown workload: exit %d, stdout %q", code, out.String())
	}
}

// TestTinySmoke runs every workload at tiny size, untraced, and checks
// the result contract: correct, nothing failed, every end-to-end metric
// present and non-zero, the same digest on every iteration.
func TestTinySmoke(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			rep := execute(w, 3, time.Nanosecond, false, true)
			res := rep.result(false)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 || len(rep.problems) != 0 {
				t.Fatalf("result %+v, problems %v", res, rep.problems)
			}
			if len(rep.untraced) != minIterations {
				t.Fatalf("%d iterations, want %d", len(rep.untraced), minIterations)
			}
			for _, it := range rep.untraced {
				if len(it.problems) != 0 {
					t.Fatalf("iteration %d: %v", it.tr.run, it.problems)
				}
			}
			for _, m := range endToEnd {
				if v, ok := res.Metrics[m.Name]; !ok || v.Value <= 0 || v.Unit != m.Unit {
					t.Errorf("metric %s: %+v", m.Name, v)
				}
			}
		})
	}
}

// TestTinyTracedRun checks the traced-run contract on the chaos
// workload, whose last leg runs sharded: every per-layer metric printed, CPU shares summing to 1,
// spans recorded for the set-up and measured steps.
func TestTinyTracedRun(t *testing.T) {
	rep := execute(&workloads[2], 3, time.Nanosecond, true, true)
	res := rep.result(true)
	if !res.Correct || len(res.Metrics) != len(perLayer) {
		t.Fatalf("traced result: correct %v, %d metrics of %d", res.Correct, len(res.Metrics), len(perLayer))
	}
	if n := res.Metrics["cpu.samples"].Value; n > 0 {
		sum := 0.0
		for _, b := range cpuBuckets {
			sum += res.Metrics["cpu."+b+"_frac"].Value
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("CPU shares sum to %v over %v samples", sum, n)
		}
	}
	if res.Metrics["shard.epochs"].Value == 0 || res.Metrics["sim.events"].Value == 0 {
		t.Fatalf("layer counters missing: %+v", res.Metrics)
	}
	names := map[string]bool{}
	for _, s := range rep.spans() {
		names[s.Name] = true
		if s.End < s.Start {
			t.Fatalf("span %+v ends before it starts", s)
		}
	}
	for _, n := range []string{"build", "start", "warmup", "window", "drain", "collect", "footprint"} {
		if !names[n] {
			t.Errorf("no %q span", n)
		}
	}
}
