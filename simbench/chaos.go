package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"ix/internal/apps/echo"
	"ix/internal/faults"
	"ix/internal/harness"
	"ix/internal/stats"
)

// chaosParams sizes one chaos leg: an echo fleet in verify mode (2 KB
// messages, two segments each; rounds RPCs per connection, then RST and
// reconnect) against one server while every client link cycles through
// phases seeded impairment phases — loss, burst loss, duplication,
// corruption, jitter, link flaps — and the server link takes one brief
// outage. The leg then heals, drains and checks its invariants.
type chaosParams struct {
	serverCores, hosts, cores, conns, rounds, msgSize, phases int
	phaseLen, warmup, drain                                   time.Duration
}

var (
	chaosFull = chaosParams{serverCores: 2, hosts: 4, cores: 2, conns: 4, rounds: 32, msgSize: 2048,
		phases: 128, phaseLen: time.Millisecond, warmup: 2 * time.Millisecond, drain: 30 * time.Millisecond}
	chaosTiny = chaosParams{serverCores: 1, hosts: 2, cores: 1, conns: 2, rounds: 8, msgSize: 2048,
		phases: 4, phaseLen: time.Millisecond, warmup: time.Millisecond, drain: 20 * time.Millisecond}
)

// chaosTotals accumulates the legs of one chaos iteration.
type chaosTotals struct {
	msgs    uint64
	virtual time.Duration
	latency *stats.Histogram
	fpBytes int64
	fpConns int
}

// chaosLeg is one server stack the chaos fleet runs against, on a
// serial or a sharded engine.
type chaosLeg struct {
	arch   harness.Arch
	shards int
}

func (l chaosLeg) String() string {
	if l.shards > 1 {
		return fmt.Sprintf("%v-shards%d", l.arch, l.shards)
	}
	return l.arch.String()
}

// chaosLegs are the legs of the chaos workload: IX, Linux and mTCP
// servers on the serial engine, and the IX leg again on the sharded
// engine with two workers — the one place the benchmark runs sim/shard,
// whose cost shows against the serial IX leg.
var chaosLegs = []chaosLeg{
	{harness.ArchIX, 1}, {harness.ArchLinux, 1}, {harness.ArchMTCP, 1}, {harness.ArchIX, 2},
}

func runChaos(it *iteration, seed int64, p chaosParams) {
	tot := &chaosTotals{latency: stats.NewHistogram()}
	for _, leg := range chaosLegs {
		runtime.GC() // leave the previous leg's garbage behind
		it.tr.do("leg-"+leg.String(), func() { runChaosLeg(it, seed, p, leg, tot) })
	}
	it.sim["sim_ops_per_s"] = float64(tot.msgs) / tot.virtual.Seconds()
	it.sim["sim_sla_rps"] = it.sim["sim_ops_per_s"]
	recordLatency(it, tot.latency)
	if tot.fpConns > 0 {
		it.sim["sim_bytes_per_conn"] = float64(tot.fpBytes) / float64(tot.fpConns)
	}
}

// chaosRegime returns impairment regime k of chaosRegimes: a third of
// the regimes are clean, the rest are the fault regimes.
func chaosRegime(k int) faults.Config {
	switch k {
	case 0, 1, 2:
		return faults.Config{}
	case 3:
		return faults.Config{LossP: 0.02}
	case 4:
		return faults.Config{GE: faults.GELoss(0.05)}
	case 5:
		return faults.Config{DupP: 0.02}
	case 6:
		return faults.Config{CorruptP: 0.01}
	case 7:
		return faults.Config{JitterP: 0.3, Jitter: 30 * time.Microsecond}
	default:
		return faults.Config{LossP: 0.01, DupP: 0.01, CorruptP: 0.005,
			JitterP: 0.1, Jitter: 20 * time.Microsecond}
	}
}

const chaosRegimes = 9

// chaosPlan draws one client link's impairment schedule from rng. The
// mix is fixed — every regime in equal share, and a link flap in one
// phase of eight — and the seed decides the order: which phase gets
// which regime and where the flaps fall. Fixing the mix keeps the
// workload's loss exposure the same for every seed, so seeds vary the
// inputs without moving the tail they produce by whole regimes.
func chaosPlan(rng *rand.Rand, p chaosParams) faults.Plan {
	regimes := make([]int, p.phases)
	flaps := make([]bool, p.phases)
	for i := range regimes {
		regimes[i] = i % chaosRegimes
		flaps[i] = i%8 == 0
	}
	rng.Shuffle(len(regimes), func(i, j int) { regimes[i], regimes[j] = regimes[j], regimes[i] })
	rng.Shuffle(len(flaps), func(i, j int) { flaps[i], flaps[j] = flaps[j], flaps[i] })
	var plan faults.Plan
	for ph := 0; ph < p.phases; ph++ {
		at := p.warmup + time.Duration(ph)*p.phaseLen
		cfg := chaosRegime(regimes[ph])
		plan.Steps = append(plan.Steps, faults.Step{At: at, Cfg: cfg})
		if flaps[ph] {
			plan.Steps = append(plan.Steps,
				faults.Step{At: at + p.phaseLen/4, Cfg: faults.Config{Down: true}},
				faults.Step{At: at + p.phaseLen/2, Cfg: cfg})
		}
	}
	end := p.warmup + time.Duration(p.phases)*p.phaseLen
	plan.Steps = append(plan.Steps, faults.Step{At: end, Cfg: faults.Config{}})
	return plan
}

func runChaosLeg(it *iteration, seed int64, p chaosParams, leg chaosLeg, tot *chaosTotals) {
	arch := leg.arch
	m := echo.NewMetrics()
	var tb *testbed
	var server harness.Host
	var clients []harness.Host
	it.setupStep("build", func() {
		tb = newTestbed(seed, leg.shards)
		server = tb.add("server", harness.HostSpec{
			Arch:    arch,
			Cores:   p.serverCores,
			Factory: echo.VerifyingServerFactory(echoPort, p.msgSize),
		})
		for i := 0; i < p.hosts; i++ {
			clients = append(clients, tb.add("client", harness.HostSpec{
				Arch:  harness.ArchLinux,
				Cores: p.cores,
				Factory: echo.ClientFactory(echo.ClientConfig{
					ServerIP:   server.IP(),
					Port:       echoPort,
					MsgSize:    p.msgSize,
					Rounds:     p.rounds,
					Conns:      p.conns,
					Metrics:    m,
					Verify:     true,
					VerifySeed: uint64(seed) + uint64(i)*1313,
				}),
			}))
		}
		// One independent phase sequence per client link, and one
		// 150 µs outage of the server link halfway through.
		rng := rand.New(rand.NewSource(seed*0x9e3779b9 + 17))
		for _, h := range clients {
			tb.faults(h).Schedule(chaosPlan(rng, p))
		}
		mid := p.warmup + time.Duration(p.phases/2)*p.phaseLen
		tb.faults(server).Schedule(faults.Plan{Steps: []faults.Step{
			{At: mid, Cfg: faults.Config{Down: true}},
			{At: mid + 150*time.Microsecond, Cfg: faults.Config{}},
		}})
	})
	it.setupStep("start", tb.cl.Start)
	it.setupStep("warmup", func() { tb.cl.Run(p.warmup) })
	// The footprint is taken once the fleet runs and before the faults
	// start: under impairment it follows whichever connections are
	// mid-retransmission at the sampled instant.
	it.host["memprobe.walk_s"] += it.tr.do("footprint", func() {
		fp := tb.cl.HostFootprint(server)
		tot.fpBytes += fp.Bytes
		tot.fpConns += fp.Conns
	}).Seconds()

	m.ResetWindow()
	serialIX := leg == chaosLeg{harness.ArchIX, 1}
	if serialIX {
		tb.cl.IXServer(0).ResetStats()
	}
	window := time.Duration(p.phases) * p.phaseLen
	it.measure(tb, "window", func() { tb.cl.Run(window) })
	it.tr.do("collect", func() {
		tot.msgs += m.Msgs.Since()
		tot.virtual += window
		tot.latency.Merge(m.Latency)
		name := "chaos." + leg.String()
		it.sim[name+".msgs"] = float64(m.Msgs.Since())
		it.sim[name+".rtt_p99_ns"] = float64(m.Latency.Quantile(0.99))
		if serialIX {
			recordCore(it, tb.cl.IXServer(0), m.Msgs.Since())
		}
	})
	it.measure(tb, "drain", func() {
		for _, s := range tb.sites {
			s.Heal()
		}
		m.Running = false
		tb.cl.Run(p.drain)
	})
	it.takeLiveHeap(tb)

	// Accounting over the whole leg: every RPC either completed, was in
	// flight on a connection that died (each death loses at most one;
	// failed connects are counted too, conservatively), or is still
	// unfinished on a connection open after the drain.
	open := 0
	for i := range clients {
		idx := i
		if arch == harness.ArchLinux {
			idx++ // the server is LinuxHost(0)
		}
		open += tb.cl.LinuxHost(idx).ConnCount()
	}
	lost := m.Failures.Total() + uint64(open)
	corrupt := m.VerifyErrors.Total() + m.SumMismatches.Total()
	it.attempted += m.Msgs.Total() + lost
	it.failed += lost + corrupt
	name := "chaos." + leg.String()
	it.sim[name+".verify_errors"] = float64(m.VerifyErrors.Total())
	it.sim[name+".sum_mismatches"] = float64(m.SumMismatches.Total())
	it.sim[name+".conn_failures"] = float64(m.Failures.Total())
	checkPools(it, tb)
}
