package main

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"time"

	"ix/internal/core"
	"ix/internal/stats"
)

// metricDef is one metric as BENCHMARK.json declares it. Bound is the
// share of the parent's median by which an end-to-end metric may get
// worse before a change counts as a regression (0 for per-layer).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the reproduction sees, printed on
// every untraced run. Host-cost metrics (what regenerating a figure
// costs) come first, then the simulated results (what the figure
// reports), which are deterministic for a fixed seed and use virtual
// time.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.15},
	{"live_heap_mb", "MB", "lower", 0.1},
	{"sim_ops_per_s", "ops/virtual_s", "higher", 0.05},
	{"sim_p50_us", "virtual_us", "lower", 0.15},
	{"sim_p99_us", "virtual_us", "lower", 0.25},
	{"sim_sla_rps", "req/virtual_s", "higher", 0.05},
	{"sim_bytes_per_conn", "B", "lower", 0.05},
}

// layerRates are the offered rates of memcached-usr whose achieved
// fraction is reported per layer.
var layerRates = memcFull.rates

// perLayer are the metrics of single layers, printed on traced runs.
var perLayer = func() []metricDef {
	ls := []metricDef{
		{"sim.events", "count", "lower", 0},
		{"sim.ns_per_event", "ns", "lower", 0},
		{"sim.events_per_virtual_ms", "count", "lower", 0},
		{"sim.latency_samples", "count", "higher", 0},
		{"sim.setup_events", "count", "lower", 0},
		{"gc.cpu_frac", "fraction", "lower", 0},
		{"gc.cycles", "count", "lower", 0},
		{"gc.setup_cpu_frac", "fraction", "lower", 0},
		{"gc.setup_cycles", "count", "lower", 0},
		{"alloc.objects_per_event", "count", "lower", 0},
		{"alloc.bytes_per_event", "B", "lower", 0},
	}
	for _, b := range cpuBuckets {
		ls = append(ls, metricDef{"cpu." + b + "_frac", "fraction", "lower", 0})
	}
	ls = append(ls, []metricDef{
		{"cpu.samples", "count", "higher", 0},
		{"trace.overhead_frac", "fraction", "lower", 0},
		{"shard.epochs", "count", "lower", 0},
		{"shard.cross_frames", "count", "lower", 0},
		{"shard.remote_releases", "count", "lower", 0},
		{"shard.barrier_idle_frac", "fraction", "lower", 0},
		{"harness.build_s", "s", "lower", 0},
		{"harness.start_s", "s", "lower", 0},
		{"harness.ramp_s", "s", "lower", 0},
		{"harness.warmup_s", "s", "lower", 0},
		{"harness.gc_s", "s", "lower", 0},
		{"harness.ramp_conns_per_s", "conns/s", "higher", 0},
		{"host.raw_setup_s", "s", "lower", 0},
		{"host.raw_wall_s", "s", "lower", 0},
		{"host.steal_s", "s", "lower", 0},
		{"tcp.retransmits", "count", "lower", 0},
		{"tcp.fast_retransmits", "count", "lower", 0},
		{"tcp.ooo_segs", "count", "lower", 0},
		{"tcp.bad_checksums", "count", "lower", 0},
		{"tcp.syns_admitted", "count", "higher", 0},
		{"tcp.accepted", "count", "higher", 0},
		{"tcp.active_opens", "count", "lower", 0},
		{"tcp.segs_out", "count", "lower", 0},
		{"tcp.retransmit_ratio", "fraction", "lower", 0},
		{"tcp.setup_syns_admitted", "count", "higher", 0},
		{"tcp.setup_accepted", "count", "higher", 0},
		{"tcp.setup_active_opens", "count", "lower", 0},
		{"tcp.setup_retransmits", "count", "lower", 0},
		{"nicsim.rx_frames", "count", "lower", 0},
		{"nicsim.rx_drops", "count", "lower", 0},
		{"nicsim.rx_drop_ratio", "fraction", "lower", 0},
		{"nicsim.interrupts", "count", "lower", 0},
		{"nicsim.tx_drops", "count", "lower", 0},
		{"fabric.forwarded", "count", "lower", 0},
		{"fabric.flooded", "count", "lower", 0},
		{"fabric.egress_drops", "count", "lower", 0},
		{"core.mean_batch", "count", "higher", 0},
		{"core.kernel_share", "fraction", "lower", 0},
		{"core.kernel_ns_per_msg", "virtual_ns", "lower", 0},
		{"mem.allocs", "count", "lower", 0},
		{"mem.exhausted", "count", "lower", 0},
		{"mem.frames_in_use_end", "count", "lower", 0},
		{"mem.txchunks_in_use_end", "count", "lower", 0},
		{"faults.dropped", "count", "lower", 0},
		{"faults.duplicated", "count", "lower", 0},
		{"faults.corrupted", "count", "lower", 0},
		{"faults.delayed", "count", "lower", 0},
		{"memprobe.walk_s", "s", "lower", 0},
		{"mutilate.dropped", "count", "lower", 0},
		{"memcached.hit_ratio", "fraction", "higher", 0},
	}...)
	for _, r := range layerRates {
		ls = append(ls, metricDef{"mutilate.achieved_frac_" + rateName(r), "fraction", "higher", 0})
	}
	return ls
}()

// recordLatency stores a workload's latency median and 99th
// percentile, in virtual µs, and their sample count.
func recordLatency(it *iteration, h *stats.Histogram) {
	it.sim["sim_p50_us"] = quantile(h, 0.5) / 1e3
	it.sim["sim_p99_us"] = quantile(h, 0.99) / 1e3
	it.sim["sim.latency_samples"] = float64(h.Count())
}

// quantile returns the q-quantile of h in nanoseconds, interpolated
// linearly inside the histogram bucket that holds it. h.Quantile alone
// returns the bucket's lower bound, which steps in ~3% increments; the
// interpolation places the rank within the bucket, assuming its samples
// are spread evenly. Bucket widths follow the stats layout: exact below
// 32 ns, then 32 sub-buckets per power of two.
func quantile(h *stats.Histogram, q float64) float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	lo := h.Quantile(q)
	// valueAt(r) is the bucket lower bound of the r-th smallest sample.
	valueAt := func(r uint64) time.Duration { return h.Quantile((float64(r) - 0.5) / float64(n)) }
	// below and through count the samples before and up to lo's bucket.
	below := uint64(sort.Search(int(n), func(i int) bool { return valueAt(uint64(i)+1) >= lo }))
	through := uint64(sort.Search(int(n), func(i int) bool { return valueAt(uint64(i)+1) > lo }))
	if through <= below || lo >= h.Max() {
		return float64(lo)
	}
	width := 1.0
	if lo >= 32 {
		width = float64(uint64(1) << (bits.Len64(uint64(lo)) - 1 - 5))
	}
	rank := q * float64(n)
	frac := (rank - float64(below)) / float64(through-below)
	return min(float64(lo)+width*min(max(frac, 0), 1), float64(h.Max()))
}

// recordCore stores an IX dataplane's batching and kernel-time figures
// for a window in which msgs messages completed.
func recordCore(it *iteration, dp *core.Dataplane, msgs uint64) {
	k, u := dp.CPUBreakdown()
	it.sim["core.mean_batch"] = dp.MeanBatch()
	if k+u > 0 {
		it.sim["core.kernel_share"] = float64(k) / float64(k+u)
	}
	if msgs > 0 {
		it.sim["core.kernel_ns_per_msg"] = float64(k) / float64(msgs)
	}
}

// checkPools checks the leak invariant after the drain: no frame and
// no TX chunk may remain in use.
func checkPools(it *iteration, tb *testbed) {
	frames, chunks := tb.cl.FramesInUse(), tb.cl.TxChunksInUse()
	it.sim["mem.frames_in_use_end"] += float64(frames)
	it.sim["mem.txchunks_in_use_end"] += float64(chunks)
	if frames != 0 || chunks != 0 {
		it.problem("leak after drain: %d frames and %d TX chunks still in use", frames, chunks)
	}
}

// result is what one invocation reports.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// median returns the median of xs (the mean of the middle two for an
// even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// hostValues returns f over the iterations, for a median.
func hostValues(its []*iteration, f func(*iteration) float64) []float64 {
	out := make([]float64, len(its))
	for i, it := range its {
		out[i] = f(it)
	}
	return out
}

// endToEndValues computes every end-to-end metric: host costs as the
// median over the untraced iterations, simulated results from the
// first (all iterations agree when the digests match). The peak RSS is
// the smallest iteration's: on a small heap the GC's floating garbage,
// and with it the peak, grows whenever other load on the host slows the
// mark phase, so the least disturbed iteration is the estimate.
func endToEndValues(its []*iteration) map[string]float64 {
	v := map[string]float64{
		"setup_s":      median(hostValues(its, func(it *iteration) float64 { return it.setup.net().Seconds() })),
		"wall_s":       median(hostValues(its, func(it *iteration) float64 { return it.measured.net().Seconds() })),
		"cpu_s":        median(hostValues(its, func(it *iteration) float64 { return it.measured.cpu.Seconds() })),
		"live_heap_mb": median(hostValues(its, func(it *iteration) float64 { return float64(it.liveHeap) / (1 << 20) })),
		"peak_rss_mb":  slices.Min(hostValues(its, func(it *iteration) float64 { return float64(it.peakRSS) / (1 << 20) })),
	}
	for _, m := range endToEnd {
		if _, ok := v[m.Name]; !ok {
			v[m.Name] = its[0].sim[m.Name]
		}
	}
	return v
}

// layerValues computes every per-layer metric. Host-side ones are
// medians over the untraced iterations; CPU shares come from the traced
// iteration's profile, and the tracing overhead compares its measured
// wall time with the untraced median.
func layerValues(untraced []*iteration, traced *iteration) map[string]float64 {
	first := untraced[0]
	v := map[string]float64{}
	for k, x := range first.sim {
		v[k] = x
	}
	for k, x := range first.layer {
		v[k] = float64(x)
	}
	hostMedian := func(f func(*iteration) float64) float64 { return median(hostValues(untraced, f)) }
	for _, m := range perLayer {
		name := m.Name
		if _, ok := first.host[name]; ok {
			v[name] = hostMedian(func(it *iteration) float64 { return it.host[name] })
		}
	}
	if established := first.sim["conn_scale.established"]; established > 0 {
		v["harness.ramp_conns_per_s"] = established / v["harness.ramp_s"]
	}
	v["host.raw_setup_s"] = hostMedian(func(it *iteration) float64 { return it.setup.wall.Seconds() })
	v["host.raw_wall_s"] = hostMedian(func(it *iteration) float64 { return it.measured.wall.Seconds() })
	v["host.steal_s"] = hostMedian(func(it *iteration) float64 { return it.measured.steal.Seconds() })
	events := float64(first.layer["sim.events"])
	if events > 0 {
		v["sim.ns_per_event"] = hostMedian(func(it *iteration) float64 { return float64(it.measured.net()) / events })
		v["alloc.objects_per_event"] = hostMedian(func(it *iteration) float64 { return it.rt[rtAllocObjects] / events })
		v["alloc.bytes_per_event"] = hostMedian(func(it *iteration) float64 { return it.rt[rtAllocBytes] / events })
	}
	if first.virtual > 0 {
		v["sim.events_per_virtual_ms"] = events / (float64(first.virtual) / 1e6)
	}
	v["gc.cycles"] = hostMedian(func(it *iteration) float64 { return it.rt[rtGCCycles] })
	v["gc.cpu_frac"] = hostMedian(func(it *iteration) float64 { return gcFrac(it.rt) })
	v["gc.setup_cycles"] = hostMedian(func(it *iteration) float64 { return it.rtSetup[rtGCCycles] })
	v["gc.setup_cpu_frac"] = hostMedian(func(it *iteration) float64 { return gcFrac(it.rtSetup) })
	v["sim.setup_events"] = float64(first.setupLayer["sim.events"])
	for _, c := range []string{"syns_admitted", "accepted", "active_opens", "retransmits"} {
		v["tcp.setup_"+c] = float64(first.setupLayer["tcp."+c])
	}
	v["shard.barrier_idle_frac"] = hostMedian(func(it *iteration) float64 {
		if it.workerTime <= 0 {
			return 0
		}
		return float64(it.barrierIdle) / float64(it.workerTime)
	})
	if out := first.layer["tcp.segs_out"]; out > 0 {
		v["tcp.retransmit_ratio"] = float64(first.layer["tcp.retransmits"]) / float64(out)
	}
	if rx := first.layer["nicsim.rx_frames"] + first.layer["nicsim.rx_drops"]; rx > 0 {
		v["nicsim.rx_drop_ratio"] = float64(first.layer["nicsim.rx_drops"]) / float64(rx)
	}
	if traced != nil && traced.prof != nil {
		counts, total := bucketSamples(traced.prof.samples)
		v["cpu.samples"] = float64(total)
		for _, b := range cpuBuckets {
			if total > 0 {
				v["cpu."+b+"_frac"] = float64(counts[b]) / float64(total)
			}
		}
		if base := hostMedian(func(it *iteration) float64 { return it.measured.net().Seconds() }); base > 0 {
			v["trace.overhead_frac"] = traced.measured.net().Seconds()/base - 1
		}
	}
	out := make(map[string]float64, len(perLayer))
	for _, m := range perLayer {
		out[m.Name] = v[m.Name]
	}
	return out
}

// gcFrac is the GC's share of the non-idle CPU time in a runtime
// counter delta.
func gcFrac(rt [len(runtimeNames)]float64) float64 {
	if busy := rt[rtTotalCPU] - rt[rtIdleCPU]; busy > 0 {
		return rt[rtGCCPU] / busy
	}
	return 0
}

func formatValue(v float64) string { return fmt.Sprintf("%.6g", v) }
