package main

import (
	"time"

	"ix/internal/apps/echo"
	"ix/internal/harness"
)

// connScaleParams sizes the conn-scale workload: the Fig. 4 IX-40
// point, an IX server with 8 cores on 4×10GbE under a fleet of Linux
// client threads that quiet-ramps it to total connections, then one
// closed-loop window of 64 B RPCs with outstanding RPCs in flight per
// client thread.
type connScaleParams struct {
	hosts, cores, total, outstanding int
	window                           time.Duration
}

var (
	connScaleFull = connScaleParams{hosts: 18, cores: 8, total: 250_000, outstanding: 3,
		window: 100 * time.Millisecond}
	connScaleTiny = connScaleParams{hosts: 2, cores: 2, total: 200, outstanding: 3,
		window: 2 * time.Millisecond}
)

const (
	echoPort  = 9000
	echoBytes = 64
	// settleRun separates the ramp from the window, letting handshake
	// tails and pure ACKs quiesce (the warm-up).
	settleRun = time.Millisecond
	// pollStep is the cadence of every run-until-done loop; a fixed
	// cadence keeps the stopping time deterministic.
	pollStep = 250 * time.Microsecond
)

func runConnScale(it *iteration, seed int64, p connScaleParams) {
	threads := p.hosts * p.cores
	per := (p.total + threads - 1) / threads
	target := per * threads
	m := echo.NewMetrics()
	fleet := &echo.Fleet{}
	var tb *testbed
	var server harness.Host
	it.setupStep("build", func() {
		tb = newTestbed(seed, 1)
		server = tb.add("server", harness.HostSpec{
			Arch:          harness.ArchIX,
			Cores:         8,
			Ports:         4,
			Factory:       echo.ServerFactory(echoPort, echoBytes),
			ExpectedConns: target,
		})
		for i := 0; i < p.hosts; i++ {
			tb.add("client", harness.HostSpec{
				Arch:  harness.ArchLinux,
				Cores: p.cores,
				Factory: echo.ClientFactory(echo.ClientConfig{
					ServerIP:    server.IP(),
					Port:        echoPort,
					MsgSize:     echoBytes,
					Outstanding: 1,
					RampBatch:   16,
					RampGap:     harness.Fig4QuietGap(harness.ArchIX, threads),
					QuietRamp:   true,
					Fleet:       fleet,
					Metrics:     m,
				}),
			})
		}
	})
	it.setupStep("start", tb.cl.Start)
	dp := tb.cl.IXServer(0)
	it.setupStep("ramp", func() {
		// Quiet ramp of a paused fleet: handshakes only, no RPCs.
		fleet.Pause()
		fleet.Retarget(per, p.outstanding, uint64(seed))
		batches := (per + 15) / 16
		budget := 2*time.Millisecond + time.Duration(target)*4*time.Microsecond +
			time.Duration(batches)*harness.Fig4QuietGap(harness.ArchIX, threads)
		runUntil(tb, budget, func() bool { return fleet.Open() >= target && fleet.Pending() == 0 })
	})
	// The fleet is paused and quiet. The window opens after a further
	// seed-chosen 0–999 µs, so its phase against the stacks' timer
	// wheels and NIC interrupt moderation is an input like any other
	// (echo traffic itself draws nothing from the seed).
	it.setupStep("warmup", func() { tb.cl.Run(settleRun + windowPhase(seed)) })
	established := dp.ConnCount()
	it.sim["conn_scale.established"] = float64(established)
	if established != target || fleet.Open() != target {
		it.problem("conn-scale established %d server / %d client connections of %d", established, fleet.Open(), target)
	}

	m.ResetWindow()
	dp.ResetStats()
	fleet.Resume()
	it.measure(tb, "window", func() { tb.cl.Run(p.window) })

	it.tr.do("collect", func() {
		it.sim["sim_ops_per_s"] = float64(m.Msgs.Since()) / p.window.Seconds()
		it.sim["sim_sla_rps"] = it.sim["sim_ops_per_s"]
		recordLatency(it, m.Latency)
		recordCore(it, dp, m.Msgs.Since())
	})
	it.host["memprobe.walk_s"] += it.tr.do("footprint", func() {
		fp := tb.cl.HostFootprint(server)
		it.sim["sim_bytes_per_conn"] = fp.PerConn()
		it.sim["conn_scale.footprint_conns"] = float64(fp.Conns)
	}).Seconds()
	it.takeLiveHeap(tb)

	// Accounting: no RPC was in flight before the window (the fleet
	// ramped paused), so every RPC issued from its start on either
	// completes by the end of the drain or counts as failed.
	it.tr.do("drain", func() {
		fleet.Pause()
		runUntil(tb, 20*time.Millisecond, func() bool { return fleet.InFlight() == 0 })
		tb.cl.Run(5 * time.Millisecond)
	})
	unfinished := uint64(fleet.InFlight())
	it.attempted = m.Msgs.Since() + unfinished
	it.failed = unfinished
	checkPools(it, tb)
}

// windowPhase derives a sub-millisecond offset from seed (a splitmix64
// scramble, in whole microseconds).
func windowPhase(seed int64) time.Duration {
	z := uint64(seed) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return time.Duration(z%1000) * time.Microsecond
}

// runUntil advances the testbed in fixed pollStep steps until done
// holds or budget (virtual) is spent.
func runUntil(tb *testbed, budget time.Duration, done func() bool) {
	for elapsed := time.Duration(0); elapsed < budget && !done(); elapsed += pollStep {
		tb.cl.Run(pollStep)
	}
}
