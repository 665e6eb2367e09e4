package harness

import (
	"testing"
	"time"

	"ix/internal/mutilate"
)

// These tests assert the paper's qualitative claims — the orderings,
// saturation behaviours and improvement factors of §5 — at reduced scale.
// Absolute numbers come from the calibrated cost model; the *shapes* are
// what reproduction means here (see DESIGN.md §3).

// TestClaimLatencyOrdering: unloaded 64B one-way latency: IX ≈ 5.7µs,
// Linux ≈ 4x worse, mTCP ≈ an order of magnitude worse than IX (§5.2).
func TestClaimLatencyOrdering(t *testing.T) {
	oneWay := map[Arch]time.Duration{}
	for _, a := range []Arch{ArchIX, ArchLinux, ArchMTCP} {
		res := RunEcho(EchoSetup{
			ServerArch: a, ServerCores: 1, ClientArch: a, ClientHosts: 1,
			ClientCores: 1, ConnsPerThread: 1, MsgSize: 64,
			Warmup: 2 * time.Millisecond, Window: 6 * time.Millisecond,
		})
		oneWay[a] = res.RTTMean / 2
	}
	t.Logf("one-way 64B: IX=%v Linux=%v mTCP=%v", oneWay[ArchIX], oneWay[ArchLinux], oneWay[ArchMTCP])
	if oneWay[ArchIX] < 4*time.Microsecond || oneWay[ArchIX] > 8*time.Microsecond {
		t.Errorf("IX one-way = %v, paper: 5.7µs", oneWay[ArchIX])
	}
	ratioLinux := float64(oneWay[ArchLinux]) / float64(oneWay[ArchIX])
	if ratioLinux < 2.5 || ratioLinux > 6 {
		t.Errorf("Linux/IX latency ratio = %.1f, paper: ~4x", ratioLinux)
	}
	ratioMTCP := float64(oneWay[ArchMTCP]) / float64(oneWay[ArchIX])
	if ratioMTCP < 6 {
		t.Errorf("mTCP/IX latency ratio = %.1f, paper: ~10x", ratioMTCP)
	}
}

// TestClaimThroughputOrdering: echo at n=1024: IX > mTCP > Linux, with
// IX ≈ 1.9x mTCP and ≈ 8.8x Linux at paper scale (§5.3, Fig. 3b).
func TestClaimThroughputOrdering(t *testing.T) {
	tput := map[Arch]float64{}
	for _, a := range []Arch{ArchIX, ArchLinux, ArchMTCP} {
		res := RunEcho(EchoSetup{
			ServerArch: a, ServerCores: 8, ClientArch: ArchLinux,
			ClientHosts: 10, ClientCores: 6, ConnsPerThread: 4,
			Rounds: 1024, MsgSize: 64,
			Warmup: 3 * time.Millisecond, Window: 8 * time.Millisecond,
		})
		tput[a] = res.MsgsPerSec
	}
	t.Logf("n=1024 msgs/s: IX=%.2gM mTCP=%.2gM Linux=%.2gM",
		tput[ArchIX]/1e6, tput[ArchMTCP]/1e6, tput[ArchLinux]/1e6)
	if !(tput[ArchIX] > tput[ArchMTCP] && tput[ArchMTCP] > tput[ArchLinux]) {
		t.Fatalf("ordering violated: IX=%v mTCP=%v Linux=%v",
			tput[ArchIX], tput[ArchMTCP], tput[ArchLinux])
	}
	if r := tput[ArchIX] / tput[ArchLinux]; r < 4 {
		t.Errorf("IX/Linux = %.1fx, paper: 8.8x", r)
	}
	if r := tput[ArchIX] / tput[ArchMTCP]; r < 1.3 {
		t.Errorf("IX/mTCP = %.1fx, paper: 1.9x", r)
	}
}

// TestClaimIXSaturatesEarly: Fig. 3a's shape — IX saturates the 10GbE
// link with a fraction of the cores (the paper: 3 of 8; here, by 5 of 8
// IX-10 is within 85% of its 8-core rate), while per-core efficiency
// stays far above Linux's.
func TestClaimIXSaturatesEarly(t *testing.T) {
	run := func(cores int, arch Arch) float64 {
		return RunEcho(EchoSetup{
			ServerArch: arch, ServerCores: cores, ClientArch: ArchLinux,
			ClientHosts: 10, ClientCores: 6, ConnsPerThread: 4,
			Rounds: 1024, MsgSize: 64,
			Warmup: 3 * time.Millisecond, Window: 6 * time.Millisecond,
		}).MsgsPerSec
	}
	at5, at8 := run(5, ArchIX), run(8, ArchIX)
	linux8 := run(8, ArchLinux)
	t.Logf("IX-10: 5 cores %.2gM, 8 cores %.2gM; Linux 8 cores %.2gM", at5/1e6, at8/1e6, linux8/1e6)
	if at5 < 0.85*at8 {
		t.Errorf("IX at 5 cores = %.0f, not near saturation (8 cores = %.0f)", at5, at8)
	}
	if at5 < 3*linux8 {
		t.Errorf("IX on 5 cores (%.0f) should far exceed Linux on 8 (%.0f)", at5, linux8)
	}
}

// TestClaimConnectionScalingDroop: Fig. 4's shape — throughput drops with
// very large connection counts as the working set outgrows the L3.
func TestClaimConnectionScalingDroop(t *testing.T) {
	run := func(conns int) float64 {
		threads := 6 * 4
		per := (conns + threads - 1) / threads
		out := 3
		if per < out {
			out = per
		}
		return RunEcho(EchoSetup{
			ServerArch: ArchIX, ServerCores: 8, ServerPorts: 4,
			ClientArch: ArchLinux, ClientHosts: 6, ClientCores: 4,
			ConnsPerThread: per, Outstanding: out, MsgSize: 64,
			Warmup: 4 * time.Millisecond, Window: 8 * time.Millisecond,
		}).MsgsPerSec
	}
	small, large := run(1000), run(20000)
	t.Logf("IX-40: 1k conns %.2gM, 20k conns %.2gM", small/1e6, large/1e6)
	if large >= small {
		t.Errorf("no droop: %.0f at 20k vs %.0f at 1k conns", large, small)
	}
}

// TestClaimMemcachedGain: IX sustains much higher memcached load than
// Linux under the 500µs p99 SLA (§5.5: 2.8–3.6x), and the CPU breakdown
// shifts from kernel-dominated (Linux ~75%) to dataplane-light (IX).
func TestClaimMemcachedGain(t *testing.T) {
	best := func(arch Arch, cores, batch int) (float64, float64) {
		bestRPS := 0.0
		kern := 0.0
		for _, target := range []float64{100_000, 200_000, 300_000, 500_000, 800_000, 1_200_000, 1_600_000} {
			res := RunMemcached(MemcSetup{
				ServerArch: arch, ServerCores: cores, BatchBound: batch,
				Workload: mutilate.USR, TargetRPS: target,
				ClientHosts: 12, ClientCores: 2,
				Warmup: 4 * time.Millisecond, Window: 10 * time.Millisecond,
			})
			if res.AgentP99 > 0 && res.AgentP99 < SLA && res.AchievedRPS > bestRPS {
				bestRPS = res.AchievedRPS
				kern = res.ServerKernelShare
			}
		}
		return bestRPS, kern
	}
	linuxRPS, linuxKern := best(ArchLinux, 8, 0)
	ixRPS, ixKern := best(ArchIX, 6, 64)
	t.Logf("USR SLA throughput: Linux=%.0fK (kern %.0f%%), IX=%.0fK (kern %.0f%%)",
		linuxRPS/1000, linuxKern*100, ixRPS/1000, ixKern*100)
	if linuxRPS == 0 || ixRPS == 0 {
		t.Fatal("no SLA-compliant point found")
	}
	// Our Linux tail model is pessimistic, so the ratio can exceed the
	// paper's 3.6x; require at least 2x.
	if r := ixRPS / linuxRPS; r < 2 {
		t.Errorf("IX/Linux SLA gain = %.1fx, paper: 3.6x", r)
	}
	if linuxKern < 0.5 {
		t.Errorf("Linux kernel share = %.0f%%, paper ~75%%", linuxKern*100)
	}
	if ixKern > 0.35 {
		t.Errorf("IX kernel share = %.0f%%, paper <10%%", ixKern*100)
	}
}

// TestClaimBatchBound: Fig. 6 — throughput improves from B=1 to B≥16 and
// plateaus; low-load latency unaffected by B.
func TestClaimBatchBound(t *testing.T) {
	tput := map[int]float64{}
	lowLat := map[int]time.Duration{}
	for _, b := range []int{1, 16, 64} {
		high := RunEcho(EchoSetup{
			ServerArch: ArchIX, ServerCores: 2, BatchBound: b,
			ClientArch: ArchLinux, ClientHosts: 8, ClientCores: 4,
			ConnsPerThread: 8, Rounds: 256, MsgSize: 64,
			Warmup: 3 * time.Millisecond, Window: 6 * time.Millisecond,
		})
		tput[b] = high.MsgsPerSec
		low := RunEcho(EchoSetup{
			ServerArch: ArchIX, ServerCores: 2, BatchBound: b,
			ClientArch: ArchLinux, ClientHosts: 1, ClientCores: 1,
			ConnsPerThread: 1, MsgSize: 64,
			Warmup: 2 * time.Millisecond, Window: 5 * time.Millisecond,
		})
		lowLat[b] = low.RTTp99
	}
	t.Logf("B sweep: tput 1→%.2gM 16→%.2gM 64→%.2gM; low-load p99 %v/%v/%v",
		tput[1]/1e6, tput[16]/1e6, tput[64]/1e6, lowLat[1], lowLat[16], lowLat[64])
	if tput[16] < 1.15*tput[1] {
		t.Errorf("B=16 gain over B=1 = %.0f%%, paper: ~29%%", (tput[16]/tput[1]-1)*100)
	}
	if tput[64] < 0.95*tput[16] {
		t.Errorf("B=64 regressed vs B=16")
	}
	// The Fig. 6 ablation claim at saturating load: batching on beats
	// batching off outright.
	if tput[64] <= tput[1] {
		t.Errorf("B=64 (%.0f) does not beat B=1 (%.0f) at saturation", tput[64], tput[1])
	}
	if lowLat[64] > lowLat[1]*5/4 {
		t.Errorf("batch bound hurt low-load latency: B=1 %v vs B=64 %v", lowLat[1], lowLat[64])
	}
}

// TestClaimAdaptiveBatching: batching never waits — at low load batches
// are ~1, under load they grow toward B (§3 "we never wait to batch
// requests and batching only occurs in the presence of congestion").
func TestClaimAdaptiveBatching(t *testing.T) {
	low := RunEcho(EchoSetup{
		ServerArch: ArchIX, ServerCores: 1, ClientArch: ArchLinux,
		ClientHosts: 1, ClientCores: 1, ConnsPerThread: 1, MsgSize: 64,
		Warmup: 2 * time.Millisecond, Window: 5 * time.Millisecond,
	})
	high := RunEcho(EchoSetup{
		ServerArch: ArchIX, ServerCores: 1, ClientArch: ArchLinux,
		ClientHosts: 8, ClientCores: 4, ConnsPerThread: 8, Rounds: 256, MsgSize: 64,
		Warmup: 3 * time.Millisecond, Window: 6 * time.Millisecond,
	})
	t.Logf("mean batch: low=%.2f high=%.2f", low.MeanBatch, high.MeanBatch)
	if low.MeanBatch > 2 {
		t.Errorf("low-load batch = %.1f, should be ~1 (never wait)", low.MeanBatch)
	}
	if high.MeanBatch < 4 {
		t.Errorf("high-load batch = %.1f, congestion should grow batches", high.MeanBatch)
	}
}

// TestDeterminism: identical seeds give identical results.
func TestDeterminism(t *testing.T) {
	run := func() (float64, time.Duration) {
		r := RunEcho(EchoSetup{
			ServerArch: ArchIX, ServerCores: 2, ClientArch: ArchLinux,
			ClientHosts: 2, ClientCores: 2, ConnsPerThread: 4, Rounds: 64, MsgSize: 64,
			Warmup: 2 * time.Millisecond, Window: 4 * time.Millisecond, Seed: 99,
		})
		return r.MsgsPerSec, r.RTTp50
	}
	m1, l1 := run()
	m2, l2 := run()
	if m1 != m2 || l1 != l2 {
		t.Fatalf("non-deterministic: %v/%v vs %v/%v", m1, l1, m2, l2)
	}
}

// TestClaimFig4ScalesTo100k: the Fig. 4 sweep's largest bench-scale point
// holds ≥100k concurrent established connections on the IX-40 server
// (the paper sweeps to 250k), and the server still moves traffic.
func TestClaimFig4ScalesTo100k(t *testing.T) {
	const total = 100_000
	threads := 18 * 8 // the paper's client fleet (§5.1)
	per := (total + threads - 1) / threads
	res := RunEcho(EchoSetup{
		ServerArch: ArchIX, ServerCores: 8, ServerPorts: 4,
		ClientArch: ArchLinux, ClientHosts: 18, ClientCores: 8,
		ConnsPerThread: per, Outstanding: 3, MsgSize: 64,
		RampBatch: 16, RampGap: time.Duration(threads) * 4 * time.Microsecond,
		Warmup: 2*time.Millisecond + time.Duration(total*3/5)*time.Microsecond,
		Window: 6 * time.Millisecond,
	})
	t.Logf("established=%d msgs/s=%.3gM", res.ServerConns, res.MsgsPerSec/1e6)
	if res.ServerConns < total {
		t.Fatalf("established connections = %d, want ≥ %d", res.ServerConns, total)
	}
	if res.MsgsPerSec <= 0 {
		t.Fatal("no traffic at 100k connections")
	}
}

// TestClaimFig4LinuxFill: the Fig. 4 Linux rows at the 100k point reach
// their target established count before measurement. The Linux kernel
// accept path absorbs only ~400 conns/ms across 8 cores under load, so
// these rows ramp at that rate with a matching warmup (the per-arch ramp
// of Fig4); without it the largest Linux points under-filled to ~28%.
func TestClaimFig4LinuxFill(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second establishment ramp")
	}
	const total = 100_000
	threads := 18 * 8
	per := (total + threads - 1) / threads
	gap, warm := Fig4Ramp(ArchLinux, total, threads) // the ramp Fig4 itself uses
	res := RunEcho(EchoSetup{
		ServerArch: ArchLinux, ServerCores: 8, ServerPorts: 4,
		ClientArch: ArchLinux, ClientHosts: 18, ClientCores: 8,
		ConnsPerThread: per, Outstanding: 3, MsgSize: 64,
		RampBatch: 16, RampGap: gap,
		Warmup: 2*time.Millisecond + warm,
		Window: 6 * time.Millisecond,
	})
	t.Logf("established=%d target=%d msgs/s=%.3gM", res.ServerConns, threads*per, res.MsgsPerSec/1e6)
	if res.ServerConns < threads*per*95/100 {
		t.Fatalf("established connections = %d, want ≥ 95%% of %d", res.ServerConns, threads*per)
	}
}

// TestClaimTable2LinuxSLA: Table 2's Linux baseline sustains a nonzero
// SLA-compliant rate (the paper: 500K RPS for USR under a 500µs p99).
// Guards against the SLA search bracketing out the feasible region.
func TestClaimTable2LinuxSLA(t *testing.T) {
	sc := Quick
	sc.Warmup = 2 * time.Millisecond
	sc.Window = 6 * time.Millisecond
	rps := slaSearch(sc, ArchLinux, 8, 0, mutilate.USR, 2_000_000)
	t.Logf("USR-Linux SLA RPS = %.0f", rps)
	if rps <= 0 {
		t.Fatal("Linux SLA-compliant throughput = 0; the search bracket skips the feasible region")
	}
}
