// Package harness builds the paper's experimental setup (§5.1) — a
// cluster of client machines and one server connected by a 48-port 10GbE
// cut-through switch — and defines one function per table and figure of
// the evaluation, each returning the data series the paper plots.
package harness

import (
	"fmt"
	"time"

	"ix/internal/app"
	"ix/internal/core"
	"ix/internal/cost"
	"ix/internal/fabric"
	"ix/internal/faults"
	"ix/internal/libix"
	"ix/internal/linuxstack"
	"ix/internal/memprobe"
	"ix/internal/mtcpstack"
	"ix/internal/netstack"
	"ix/internal/nicsim"
	"ix/internal/sim"
	"ix/internal/sim/shard"
	"ix/internal/wire"
)

// Arch selects an OS architecture for a host.
type Arch int

// Architectures under comparison.
const (
	ArchIX Arch = iota
	ArchLinux
	ArchMTCP
)

func (a Arch) String() string {
	switch a {
	case ArchIX:
		return "IX"
	case ArchLinux:
		return "Linux"
	case ArchMTCP:
		return "mTCP"
	}
	return "?"
}

// Host is the contract every host model meets for cluster plumbing:
// cabling and ARP, start-up, the live connection count, the memprobe
// footprint, frame conservation and shard placement.
type Host interface {
	NIC() *nicsim.NIC
	ARP() *netstack.ARPTable
	IP() wire.IPv4
	MAC() wire.MAC
	Start()
	ConnCount() int
	// Footprint samples the host's per-connection memory under the
	// memprobe contract (read-only; never perturbs the simulation).
	Footprint() memprobe.Footprint
	// FramesInUse counts frames outstanding from the host's pools.
	FramesInUse() int
	// SetShard places the host's frame pools on shard sh of a parallel
	// engine (before Start).
	SetShard(sh int, r fabric.RemoteReleaser)
}

var (
	_ Host = (*core.Dataplane)(nil)
	_ Host = (*linuxstack.Host)(nil)
	_ Host = (*mtcpstack.Host)(nil)
)

// HostSpec describes one machine.
type HostSpec struct {
	Arch    Arch
	Cores   int
	Factory app.Factory
	// Ports is the number of 10GbE NIC ports (4 = the bonded 4x10GbE
	// server configuration).
	Ports int
	// BatchBound is IX's B (ignored elsewhere).
	BatchBound int
	// MaxThreads provisions extra NIC queue pairs beyond Cores so the
	// control plane can grow an IX dataplane (ignored elsewhere).
	MaxThreads int
	// IXCost optionally overrides the IX cost model (ablations).
	IXCost *cost.IX
	// RcvWnd optionally overrides the TCP receive window.
	RcvWnd int
	// MinRTO optionally overrides the TCP retransmission-timeout floor
	// (default 200 µs; the paper cites support for 16 µs incast floors).
	MinRTO time.Duration
	// Tenant tags an IX host's frame pools for multi-tenant isolation
	// accounting (0 = untagged): every frame the host originates
	// charges this tag at shared switch egress. Only IX hosts are
	// tenants; AddHost rejects a tag on the other architectures.
	Tenant int
	// ExpectedConns presizes the host's connection tables (TCP engine,
	// syscall gate / socket table, user-library cookie table) for the
	// anticipated steady-state flow population (0 = grow on demand).
	ExpectedConns int
}

// Cluster is the experiment testbed.
type Cluster struct {
	// Eng is the coordinator's engine: the only engine in serial runs,
	// shard 0's (the switch shard's) engine in sharded runs.
	Eng    *sim.Engine
	Switch *fabric.Switch

	// Sharded-runtime state (nil/empty for serial clusters): engines[i]
	// drives shard i. The switch and all its ports live on shard 0, hosts
	// round-robin over shards 1..N-1, so every host↔switch cable crosses
	// at full link latency — the widest conservative lookahead this
	// topology offers.
	rt      *shard.Runtime
	engines []*sim.Engine

	hosts []Host
	// links[i] holds host i's cables, in port order: Port(0) faces the
	// host NIC, Port(1) faces the switch.
	links   [][]*fabric.Link
	sites   []*faults.Site
	ixs     []*core.Dataplane
	linuxes []*linuxstack.Host
	mtcps   []*mtcpstack.Host

	nextIP  uint32
	nextMAC uint64
	seed    uint64
}

// LinkBandwidth is one 10GbE port.
const LinkBandwidth = 10 * fabric.Gbps

// linkLatency is NIC traversal plus propagation, one way.
const linkLatency = fabric.NICLatency + fabric.PropDelay

// NewCluster creates an empty serial testbed.
func NewCluster(seed int64) *Cluster {
	return NewClusterShards(seed, 1)
}

// NewClusterShards creates a testbed that runs on shards OS workers.
// shards ≤ 1 yields the exact serial cluster (one engine, no runtime —
// fixed-seed output stays byte-identical to every previous PR); shards
// N > 1 places the switch on shard 0 and round-robins hosts over shards
// 1..N-1, coupling them only through the cross-shard link latency.
func NewClusterShards(seed int64, shards int) *Cluster {
	if shards <= 1 {
		eng := sim.NewEngine(seed)
		return &Cluster{
			Eng:     eng,
			Switch:  fabric.NewSwitch(eng),
			nextIP:  uint32(wire.Addr4(10, 10, 0, 10)),
			nextMAC: 0x02_00_00_00_00_10,
			seed:    uint64(seed)*0x9e3779b97f4a7c15 + 1,
		}
	}
	engines := make([]*sim.Engine, shards)
	for i := range engines {
		// Engine RNGs are currently unused (hosts and injectors carry
		// their own seeded streams), but keep the per-shard seeds
		// deterministic and distinct anyway.
		engines[i] = sim.NewEngine(seed + int64(i)*0x51_7c_c1_b7_27_22_0a95)
	}
	return &Cluster{
		Eng:     engines[0],
		Switch:  fabric.NewSwitch(engines[0]),
		rt:      shard.New(engines),
		engines: engines,
		nextIP:  uint32(wire.Addr4(10, 10, 0, 10)),
		nextMAC: 0x02_00_00_00_00_10,
		seed:    uint64(seed)*0x9e3779b97f4a7c15 + 1,
	}
}

// Telemetry returns the sharded runtime's counters (zero Telemetry with
// Shards==1 for serial clusters).
func (c *Cluster) Telemetry() shard.Telemetry {
	if c.rt == nil {
		return shard.Telemetry{Shards: 1}
	}
	return c.rt.Telemetry()
}

func (c *Cluster) nextAddrs() (wire.IPv4, wire.MAC) {
	ip := wire.IPv4(c.nextIP)
	c.nextIP++
	var mac wire.MAC
	v := c.nextMAC
	c.nextMAC++
	for i := 5; i >= 0; i-- {
		mac[i] = byte(v)
		v >>= 8
	}
	return ip, mac
}

// AddHost builds a machine per spec and cables it to the switch.
func (c *Cluster) AddHost(name string, spec HostSpec) Host {
	if spec.Tenant != 0 && spec.Arch != ArchIX {
		panic(fmt.Sprintf("harness: %s host %q has tenant %d; only IX hosts are tenants", spec.Arch, name, spec.Tenant))
	}
	ip, mac := c.nextAddrs()
	if spec.Ports <= 0 {
		spec.Ports = 1
	}
	if spec.Cores <= 0 {
		spec.Cores = 1
	}
	c.seed = c.seed*6364136223846793005 + 1442695040888963407
	seed := c.seed
	// Shard placement: hosts round-robin over shards 1..N-1 (shard 0 is
	// the switch's). The host's stacks, NIC and pools all live on heng.
	sh := 0
	heng := c.Eng
	if c.rt != nil {
		sh = 1 + len(c.hosts)%(len(c.engines)-1)
		heng = c.engines[sh]
	}
	hc := netstack.HostConfig{
		Name:          name,
		IP:            ip,
		MAC:           mac,
		Seed:          seed,
		RcvWnd:        spec.RcvWnd,
		MinRTO:        spec.MinRTO,
		ExpectedConns: spec.ExpectedConns,
	}
	var h Host
	switch spec.Arch {
	case ArchIX:
		ccfg := core.Config{
			HostConfig: hc,
			Threads:    spec.Cores,
			MaxThreads: spec.MaxThreads,
			BatchBound: spec.BatchBound,
			Tenant:     spec.Tenant,
			User:       libix.Program(spec.Factory),
		}
		if spec.IXCost != nil {
			ccfg.Cost = *spec.IXCost
		}
		dp := core.New(heng, ccfg)
		c.ixs = append(c.ixs, dp)
		h = dp
	case ArchLinux:
		lh := linuxstack.New(heng, linuxstack.Config{HostConfig: hc, Cores: spec.Cores, Factory: spec.Factory})
		c.linuxes = append(c.linuxes, lh)
		h = lh
	case ArchMTCP:
		mh := mtcpstack.New(heng, mtcpstack.Config{HostConfig: hc, Cores: spec.Cores, Factory: spec.Factory})
		c.mtcps = append(c.mtcps, mh)
		h = mh
	default:
		panic(fmt.Sprintf("harness: unknown arch %d", spec.Arch))
	}
	if c.rt != nil {
		// Frame pools belong to the host's shard: releases from other
		// shards route home through the runtime's return boxes. The host
		// tags each pool as its owning thread spawns (IX and mTCP build
		// stacks at Start, and IX elastic threads can be granted mid-run).
		h.SetShard(sh, c.rt.Releaser(sh))
	}
	// Cable the NIC's ports to the switch.
	var portIdxs []int
	var hostLinks []*fabric.Link
	for p := 0; p < spec.Ports; p++ {
		link := fabric.NewLink(c.Eng, LinkBandwidth, linkLatency)
		if c.rt != nil {
			// The host side transmits on the host's shard, the switch
			// side on shard 0; both directions cross, so frame delivery
			// becomes a cross-shard post and this cable's latency bounds
			// the epoch lookahead.
			link.Port(0).SetShard(heng, sh, 0, c.rt.Remote(sh, 0))
			link.Port(1).SetShard(c.Eng, 0, sh, c.rt.Remote(0, sh))
			c.rt.ObserveLink(link.Latency())
		}
		h.NIC().AttachPort(link.Port(0))
		idx := c.Switch.AddPort(link.Port(1))
		portIdxs = append(portIdxs, idx)
		hostLinks = append(hostLinks, link)
	}
	if spec.Ports == 1 {
		c.Switch.Learn(mac, portIdxs[0])
	} else {
		c.Switch.Bond(mac, portIdxs)
	}
	c.hosts = append(c.hosts, h)
	c.links = append(c.links, hostLinks)
	c.sites = append(c.sites, nil)
	return h
}

// hostIndex finds h's position in the cluster.
func (c *Cluster) hostIndex(h Host) int {
	for i, o := range c.hosts {
		if o == h {
			return i
		}
	}
	panic("harness: host not in cluster")
}

// HostLinks returns the cables of h, in NIC-port order. Port(0) of each
// link faces the host, Port(1) the switch.
func (c *Cluster) HostLinks(h Host) []*fabric.Link {
	return c.links[c.hostIndex(h)]
}

// Faults returns (attaching on first use) the fault-injection site
// covering both directions of every cable of h. Injector seeds derive
// from the cluster seed chain, so a fixed-seed run replays the same
// fault schedule byte for byte.
func (c *Cluster) Faults(h Host) *faults.Site {
	idx := c.hostIndex(h)
	if c.sites[idx] == nil {
		site := &faults.Site{}
		for _, link := range c.links[idx] {
			c.seed = c.seed*6364136223846793005 + 1442695040888963407
			// Port(0)'s endpoint is the host NIC: impairs traffic
			// toward the host. Port(1)'s endpoint is the switch:
			// impairs traffic from the host. Each injector runs on the
			// engine of the shard that owns its port (delivery side),
			// keeping its PRNG stream on one worker; in serial runs both
			// engines are c.Eng, so schedules replay byte for byte.
			site.Injectors = append(site.Injectors,
				faults.Interpose(link.Port(0).Engine(), link.Port(0), c.seed),
				faults.Interpose(link.Port(1).Engine(), link.Port(1), c.seed^0xa5a5a5a5a5a5a5a5))
		}
		c.sites[idx] = site
	}
	return c.sites[idx]
}

// LimitEgress bounds the switch egress buffer toward h to n bytes per
// port — the shallow-buffer configuration incast experiments need (the
// default fabric queues without bound, so drops happen only at the NIC
// edge, §3).
func (c *Cluster) LimitEgress(h Host, n int) {
	for _, link := range c.HostLinks(h) {
		link.Port(1).SetTxBuffer(n)
	}
}

// EgressDrops sums frames tail-dropped at the switch egress toward h.
func (c *Cluster) EgressDrops(h Host) uint64 {
	var n uint64
	for _, link := range c.HostLinks(h) {
		n += link.Port(1).TxDropped
	}
	return n
}

// FramesInUse sums outstanding frames across every stack's pool: the
// cluster-wide frame-conservation invariant. After traffic quiesces it
// must return to zero — a dropped, duplicated or delayed frame that
// leaks (or double-frees, which panics in fabric) shows up here.
func (c *Cluster) FramesInUse() int {
	n := 0
	for _, h := range c.hosts {
		n += h.FramesInUse()
	}
	return n
}

// HostFootprint samples one host's per-connection memory under the
// memprobe contract: live connections and the bytes they pin across
// every layer of that host's stack. Read-only — safe to call between
// engine steps without perturbing fixed-seed output.
func (c *Cluster) HostFootprint(h Host) memprobe.Footprint {
	return h.Footprint()
}

// TxChunksInUse sums TX arena chunks held across every IX dataplane
// thread: the zero-copy-arena conservation invariant. Once traffic has
// quiesced (all sends acknowledged, dead connections torn down) it must
// return to zero — a teardown path that fails to release a connection's
// arena shows up here.
func (c *Cluster) TxChunksInUse() int {
	n := 0
	for _, dp := range c.ixs {
		n += dp.TxChunksInUse()
	}
	return n
}

// TenantFramesInUse sums outstanding frames across the pools of hosts
// tagged with tenant tag. Because every pool belongs to exactly one
// host and every host carries exactly one tag, summing over all tags
// reproduces FramesInUse exactly — the per-tenant half of the
// conservation contract (no unattributed or double-charged frames).
func (c *Cluster) TenantFramesInUse(tag int) int {
	n := 0
	for _, h := range c.hosts {
		if hostTenant(h) == tag {
			n += h.FramesInUse()
		}
	}
	return n
}

// TenantTxChunksInUse is TenantFramesInUse for TX arena chunks.
func (c *Cluster) TenantTxChunksInUse(tag int) int {
	n := 0
	for _, dp := range c.ixs {
		if dp.Tenant() == tag {
			n += dp.TxChunksInUse()
		}
	}
	return n
}

// MaxTenantTag returns the highest tenant tag any host carries.
func (c *Cluster) MaxTenantTag() int {
	tag := 0
	for _, dp := range c.ixs {
		tag = max(tag, dp.Tenant())
	}
	return tag
}

// hostTenant is h's tenant tag: IX hosts carry one, others are untagged.
func hostTenant(h Host) int {
	if dp, ok := h.(*core.Dataplane); ok {
		return dp.Tenant()
	}
	return 0
}

// EgressBytes sums bytes transmitted by switch egress ports (toward
// hosts) across the cluster — the shared-fabric byte charge.
func (c *Cluster) EgressBytes() uint64 {
	var n uint64
	for _, hostLinks := range c.links {
		for _, link := range hostLinks {
			n += link.Port(1).TxBytes
		}
	}
	return n
}

// TenantEgressBytes sums switch-egress bytes charged to tenant tag
// across every port of the cluster: frames carry their originating
// pool's tag across hops, so a tenant's traffic toward a *shared*
// client host is still charged to that tenant even though the egress
// port is shared.
func (c *Cluster) TenantEgressBytes(tag int) uint64 {
	var n uint64
	for _, hostLinks := range c.links {
		for _, link := range hostLinks {
			n += link.Port(1).TenantTxStats(tag).Bytes
		}
	}
	return n
}

// TenantEgressDrops sums switch-egress tail drops charged to tag.
func (c *Cluster) TenantEgressDrops(tag int) uint64 {
	var n uint64
	for _, hostLinks := range c.links {
		for _, link := range hostLinks {
			n += link.Port(1).TenantTxStats(tag).Dropped
		}
	}
	return n
}

// IXServer returns the i-th IX dataplane added.
func (c *Cluster) IXServer(i int) *core.Dataplane { return c.ixs[i] }

// LinuxHost returns the i-th Linux host added.
func (c *Cluster) LinuxHost(i int) *linuxstack.Host { return c.linuxes[i] }

// MTCPHost returns the i-th mTCP host added.
func (c *Cluster) MTCPHost(i int) *mtcpstack.Host { return c.mtcps[i] }

// Start preloads every host's ARP table with every other host (a warmed
// testbed — the paper's experiments run after connectivity is
// established) and starts all hosts.
func (c *Cluster) Start() {
	for _, a := range c.hosts {
		for _, b := range c.hosts {
			if a != b {
				a.ARP().Learn(b.IP(), b.MAC())
			}
		}
	}
	for _, h := range c.hosts {
		h.Start()
	}
	// Topology is complete: freeze the switch tables so no frame can
	// ever observe a partially built FDB.
	c.Switch.Seal()
}

// Run advances the simulation by d (all shards in lockstep when
// sharded).
func (c *Cluster) Run(d time.Duration) {
	if c.rt != nil {
		c.rt.RunFor(d)
		return
	}
	c.Eng.RunFor(d)
}
