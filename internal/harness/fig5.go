package harness

import (
	"fmt"
	"time"

	"ix/internal/apps/memcached"
	"ix/internal/mutilate"
)

// MemcSetup describes one memcached measurement point (§5.5).
type MemcSetup struct {
	ServerArch  Arch
	ServerCores int
	BatchBound  int
	Workload    mutilate.Workload
	// TargetRPS is the offered load across all clients.
	TargetRPS float64

	ClientHosts    int
	ClientCores    int
	ConnsPerThread int

	Warmup, Window time.Duration
	Seed           int64
}

// MemcResult is one measured point.
type MemcResult struct {
	AchievedRPS float64
	AgentP99    time.Duration
	AgentMean   time.Duration
	LoadP99     time.Duration
	// ServerKernelShare is the §5.5 CPU breakdown (kernel time share).
	ServerKernelShare float64
	Hits, Misses      uint64
}

// RunMemcached builds the §5.5 testbed: one memcached server (IX or
// Linux), ClientHosts mutilate load machines, and one separate unloaded
// latency agent, with the keyspace preloaded.
func RunMemcached(s MemcSetup) MemcResult {
	if s.Seed == 0 {
		s.Seed = 7
	}
	if s.ConnsPerThread <= 0 {
		s.ConnsPerThread = 32
	}
	cl := NewCluster(s.Seed)
	const port = 11211
	store := memcached.NewStore(256 << 20)
	mutilate.Preload(store, s.Workload)
	cl.AddHost("memcached", HostSpec{
		Arch:       s.ServerArch,
		Cores:      s.ServerCores,
		Ports:      1,
		BatchBound: s.BatchBound,
		Factory:    memcached.ServerFactory(store, port),
	})
	srvIP := cl.hosts[0].IP()
	m := mutilate.NewMetrics()
	threads := s.ClientHosts * s.ClientCores
	for i := 0; i < s.ClientHosts; i++ {
		cl.AddHost("mutilate", HostSpec{
			Arch:  ArchLinux, // clients always run Linux (§5.1)
			Cores: s.ClientCores,
			Factory: mutilate.LoadFactory(mutilate.LoadConfig{
				ServerIP:  srvIP,
				Port:      port,
				Workload:  s.Workload,
				Conns:     s.ConnsPerThread,
				TargetRPS: s.TargetRPS / float64(threads),
				Pipeline:  4,
				Metrics:   m,
				Seed:      uint64(s.Seed) + uint64(i)*977,
			}),
		})
	}
	// The separate unloaded latency agent.
	cl.AddHost("agent", HostSpec{
		Arch:  ArchLinux,
		Cores: 1,
		Factory: mutilate.AgentFactory(mutilate.AgentConfig{
			ServerIP: srvIP,
			Port:     port,
			Workload: s.Workload,
			Metrics:  m,
			Seed:     uint64(s.Seed) * 31,
		}),
	})
	cl.Start()
	cl.Run(s.Warmup)
	m.ResetWindow()
	if s.ServerArch == ArchIX {
		cl.IXServer(0).ResetStats()
	} else {
		cl.LinuxHost(0).ResetStats()
	}
	cl.Run(s.Window)
	res := MemcResult{
		AchievedRPS: float64(m.Responses.Since()) / s.Window.Seconds(),
		AgentP99:    m.AgentLatency.Quantile(0.99),
		AgentMean:   m.AgentLatency.Mean(),
		LoadP99:     m.LoadLatency.Quantile(0.99),
		Hits:        store.Hits,
		Misses:      store.Misses,
	}
	var k, u time.Duration
	if s.ServerArch == ArchIX {
		k, u = cl.IXServer(0).CPUBreakdown()
	} else {
		k, u = cl.LinuxHost(0).CPUBreakdown()
	}
	if k+u > 0 {
		res.ServerKernelShare = float64(k) / float64(k+u)
	}
	m.Running = false
	return res
}

// memcConfig is one §5.5 server configuration; the paper reports the
// best core count per system: 8 for Linux, 6 for IX.
type memcConfig struct {
	label string
	arch  Arch
	cores int
	batch int
}

var memcConfigs = []memcConfig{
	{"Linux", ArchLinux, 8, 0},
	{"IX", ArchIX, 6, 64},
}

// rpsGrid builds the offered-load sweep, scaled to client capacity.
func rpsGrid(sc Scale, maxRPS float64) []float64 {
	scaleF := float64(sc.MemcClients*sc.MemcCores) / float64(Full.MemcClients*Full.MemcCores)
	maxRPS *= scaleF
	pts := sc.RPSSteps
	if pts < 3 {
		pts = 3
	}
	grid := make([]float64, 0, pts)
	for i := 0; i < pts; i++ {
		// Half-step offset puts points both well below and at the
		// saturation knee (Linux's SLA point sits low on the axis).
		grid = append(grid, maxRPS*(float64(i)+0.5)/float64(pts))
	}
	return grid
}

// Fig5 regenerates the memcached latency-throughput curves (Fig. 5):
// average and 99th percentile latency vs achieved RPS for ETC and USR on
// Linux and IX.
func Fig5(sc Scale) *Result {
	r := &Result{
		Name:   "memcached ETC/USR latency vs throughput",
		Figure: "Figure 5",
		XLabel: "kRPS",
		YLabel: "latency µs",
	}
	for _, w := range []mutilate.Workload{mutilate.ETC, mutilate.USR} {
		for _, cfg := range memcConfigs {
			for _, target := range rpsGrid(sc, 2_000_000) {
				res := RunMemcached(MemcSetup{
					ServerArch:  cfg.arch,
					ServerCores: cfg.cores,
					BatchBound:  cfg.batch,
					Workload:    w,
					TargetRPS:   target,
					ClientHosts: sc.MemcClients,
					ClientCores: sc.MemcCores,
					Warmup:      sc.Warmup,
					Window:      sc.Window,
				})
				base := fmt.Sprintf("%s-%s", w.Name, cfg.label)
				kRPS := res.AchievedRPS / 1000
				r.AddPoint(base+"(avg)", kRPS, float64(res.AgentMean.Microseconds()))
				r.AddPoint(base+"(99th)", kRPS, float64(res.AgentP99.Microseconds()))
				r.AddPoint(base+"(kernel%)", kRPS, res.ServerKernelShare*100)
			}
		}
	}
	r.Notes = append(r.Notes,
		"paper: at peak, CPU time shifts from ~75% kernel (Linux) to <10% (IX dataplane)")
	return r
}

// SLA is the §5.5 service-level agreement on 99th percentile latency.
const SLA = 500 * time.Microsecond

// slaSearch finds the highest achieved RPS whose agent p99 stays under
// the SLA. A fixed offered-load grid is wrong here: Linux's feasible
// region at reduced scale lies below the lowest grid point, so a grid
// scan reports zero. Instead, descend geometrically from the client
// fleet's capacity until a compliant point is found (establishing the
// bracket), then bisect the knee.
func slaSearch(sc Scale, arch Arch, cores, batch int, w mutilate.Workload, maxRPS float64) float64 {
	scaleF := float64(sc.MemcClients*sc.MemcCores) / float64(Full.MemcClients*Full.MemcCores)
	hi := maxRPS * scaleF
	run := func(target float64) (rps float64, ok bool) {
		res := RunMemcached(MemcSetup{
			ServerArch:  arch,
			ServerCores: cores,
			BatchBound:  batch,
			Workload:    w,
			TargetRPS:   target,
			ClientHosts: sc.MemcClients,
			ClientCores: sc.MemcCores,
			Warmup:      sc.Warmup,
			Window:      sc.Window,
		})
		return res.AchievedRPS, res.AgentP99 > 0 && res.AgentP99 < SLA
	}
	best := 0.0
	lo := 0.0
	probe := hi
	for i := 0; i < 6; i++ {
		rps, ok := run(probe)
		if ok {
			best = rps
			lo = probe
			break
		}
		hi = probe
		probe /= 2
	}
	if best == 0 {
		return 0 // nothing compliant down to capacity/32
	}
	// Refine the knee. When the very first probe (the capacity ceiling)
	// was already compliant, lo == hi and there is nothing to bisect.
	for i := 0; i < 3 && hi-lo > hi/16; i++ {
		mid := (lo + hi) / 2
		if rps, ok := run(mid); ok {
			if rps > best {
				best = rps
			}
			lo = mid
		} else {
			hi = mid
		}
	}
	return best
}

// Table2 regenerates Table 2: unloaded 99th percentile latency and the
// maximum RPS that still meets the 500 µs SLA at the 99th percentile.
func Table2(sc Scale) *Result {
	r := &Result{
		Name:   "memcached unloaded latency and SLA throughput",
		Figure: "Table 2",
	}
	t := Table{
		Title:   "unloaded 99th pct latency / max RPS with p99 < 500µs",
		Columns: []string{"config", "min latency @99th", "RPS for SLA"},
	}
	for _, w := range []mutilate.Workload{mutilate.ETC, mutilate.USR} {
		for _, cfg := range memcConfigs {
			// Unloaded: agent only, negligible offered load.
			un := RunMemcached(MemcSetup{
				ServerArch:  cfg.arch,
				ServerCores: cfg.cores,
				BatchBound:  cfg.batch,
				Workload:    w,
				TargetRPS:   1000,
				ClientHosts: 1,
				ClientCores: 1,
				Warmup:      sc.Warmup,
				Window:      sc.Window,
			})
			// SLA search: bracket by geometric descent, then bisect.
			best := slaSearch(sc, cfg.arch, cfg.cores, cfg.batch, w, 2_000_000)
			label := fmt.Sprintf("%s-%s", w.Name, cfg.label)
			t.Rows = append(t.Rows, []string{
				label,
				un.AgentP99.String(),
				fmt.Sprintf("%.0fK", best/1000),
			})
			r.AddPoint(label, 0, best)
		}
	}
	r.Tables = append(r.Tables, t)
	r.Notes = append(r.Notes,
		"paper: ETC 94µs/550K (Linux) vs 45µs/1550K (IX); USR 85µs/500K vs 32µs/1800K")
	return r
}

// Fig6 regenerates the batch-bound sweep (Fig. 6): 99th percentile
// latency vs throughput on USR for B ∈ {1, 2, 8, 16, 64}.
func Fig6(sc Scale) *Result {
	r := &Result{
		Name:   "adaptive batch bound sweep (USR, IX)",
		Figure: "Figure 6",
		XLabel: "kRPS",
		YLabel: "p99 µs",
	}
	for _, b := range []int{1, 2, 8, 16, 64} {
		for _, target := range rpsGrid(sc, 2_000_000) {
			res := RunMemcached(MemcSetup{
				ServerArch:  ArchIX,
				ServerCores: 6,
				BatchBound:  b,
				Workload:    mutilate.USR,
				TargetRPS:   target,
				ClientHosts: sc.MemcClients,
				ClientCores: sc.MemcCores,
				Warmup:      sc.Warmup,
				Window:      sc.Window,
			})
			r.AddPoint(fmt.Sprintf("B=%d", b), res.AchievedRPS/1000,
				float64(res.AgentP99.Microseconds()))
		}
	}
	r.Notes = append(r.Notes,
		"paper: B≥16 maximizes throughput (+29% vs B=1); B does not affect tail latency at low load")
	return r
}

// Experiments is the registry used by cmd/ixbench and the benches.
var Experiments = map[string]func(Scale) *Result{
	"fig2":    Fig2,
	"fig3a":   Fig3a,
	"fig3b":   Fig3b,
	"fig3c":   Fig3c,
	"fig4":    Fig4,
	"fig5":    Fig5,
	"fig6":    Fig6,
	"table2":  Table2,
	"elastic": Elastic,
	// Scenario breadth beyond the paper's figures: N-to-1 incast at the
	// §4.2 16 µs RTO floor, and the echo fleet under a randomized
	// fault schedule with end-to-end invariant checks.
	"incast": Incast,
	"chaos":  Chaos,
	// Multi-tenant core arbitration (§4.1 runtime policy): several IX
	// dataplanes share one machine and an SLO-driven arbiter moves
	// cores between them through a flash crowd.
	"tenants": Tenants,
	// The blocking facade: an HTTP/1.1 echo server and a redis-style
	// KV store written purely against net.Conn, bridged onto the
	// event-driven stacks by ixnet's deterministic fibers.
	"httpkv": HTTPKV,
}
