package main

import (
	"ix/internal/core"
	"ix/internal/faults"
	"ix/internal/harness"
	"ix/internal/netstack"
	"ix/internal/sim"
	"ix/internal/tcp"
)

// testbed is a harness.Cluster plus the bookkeeping the cluster keeps
// to itself: which hosts were added, of which architecture, and which
// fault sites were attached. With it the benchmark sums the exported
// counters of every stack through the cluster's public accessors.
type testbed struct {
	cl     *harness.Cluster
	hosts  []harness.Host
	sites  []*faults.Site
	counts [3]int // hosts added per harness.Arch
	// measured is set once the first measured phase has begun.
	measured bool
}

func newTestbed(seed int64, shards int) *testbed {
	return &testbed{cl: harness.NewClusterShards(seed, shards)}
}

func (tb *testbed) add(name string, spec harness.HostSpec) harness.Host {
	h := tb.cl.AddHost(name, spec)
	tb.hosts = append(tb.hosts, h)
	tb.counts[spec.Arch]++
	return h
}

func (tb *testbed) faults(h harness.Host) *faults.Site {
	s := tb.cl.Faults(h)
	tb.sites = append(tb.sites, s)
	return s
}

// ixServers returns every IX dataplane of the testbed.
func (tb *testbed) ixServers() []*core.Dataplane {
	dps := make([]*core.Dataplane, tb.counts[harness.ArchIX])
	for i := range dps {
		dps[i] = tb.cl.IXServer(i)
	}
	return dps
}

// stacks returns every network stack instance: one per IX elastic
// thread, one per Linux host, one per mTCP core.
func (tb *testbed) stacks() []*netstack.Stack {
	var out []*netstack.Stack
	for _, dp := range tb.ixServers() {
		for i := 0; i < dp.Threads(); i++ {
			out = append(out, dp.Thread(i).Stack())
		}
	}
	for i := 0; i < tb.counts[harness.ArchLinux]; i++ {
		out = append(out, tb.cl.LinuxHost(i).Stack())
	}
	for i := 0; i < tb.counts[harness.ArchMTCP]; i++ {
		mh := tb.cl.MTCPHost(i)
		for c := 0; c < mh.Cores(); c++ {
			out = append(out, mh.Stack(c))
		}
	}
	return out
}

// engines returns the distinct simulation engines: the coordinator's
// and, on a sharded cluster, the engine each host's cables transmit on.
func (tb *testbed) engines() []*sim.Engine {
	seen := map[*sim.Engine]bool{tb.cl.Eng: true}
	out := []*sim.Engine{tb.cl.Eng}
	for _, h := range tb.hosts {
		for _, l := range tb.cl.HostLinks(h) {
			if e := l.Port(0).Engine(); !seen[e] {
				seen[e] = true
				out = append(out, e)
			}
		}
	}
	return out
}

// counters snapshots the deterministic layer counters the exported
// API reaches, keyed by their per-layer metric names. They are running
// totals; a phase's counts are the difference of two snapshots.
func (tb *testbed) counters() map[string]uint64 {
	c := map[string]uint64{}
	for _, e := range tb.engines() {
		c["sim.events"] += e.Processed
	}
	for _, ns := range tb.stacks() {
		addTCP(c, ns.TCP())
	}
	for _, h := range tb.hosts {
		nic := h.NIC()
		c["nicsim.rx_frames"] += nic.RxFrames
		c["nicsim.rx_drops"] += nic.RxDrops
		c["nicsim.interrupts"] += nic.Interrupts
		for q := 0; q < nic.Queues(); q++ {
			c["nicsim.tx_drops"] += nic.TxQueue(q).TxDrops
		}
		c["fabric.egress_drops"] += tb.cl.EgressDrops(h)
	}
	c["fabric.forwarded"] = tb.cl.Switch.Forwarded
	c["fabric.flooded"] = tb.cl.Switch.Flooded
	for _, dp := range tb.ixServers() {
		for i := 0; i < dp.Threads(); i++ {
			th := dp.Thread(i)
			c["mem.allocs"] += th.Pool().Allocs + th.TxPool().Allocs
			c["mem.exhausted"] += th.Pool().Exhausted + th.TxPool().Exhausted
		}
	}
	for _, s := range tb.sites {
		st := s.Stats()
		c["faults.dropped"] += st.Dropped
		c["faults.duplicated"] += st.Duplicated
		c["faults.corrupted"] += st.Corrupted
		c["faults.delayed"] += st.Delayed
	}
	tel := tb.cl.Telemetry()
	c["shard.epochs"] = tel.Epochs
	c["shard.cross_frames"] = tel.CrossShardFrames
	c["shard.remote_releases"] = tel.RemoteReleases
	return c
}

func addTCP(c map[string]uint64, t *tcp.Stack) {
	c["tcp.retransmits"] += t.Retransmits
	c["tcp.fast_retransmits"] += t.FastRetransmits
	c["tcp.ooo_segs"] += t.OutOfOrderSegs
	c["tcp.bad_checksums"] += t.BadChecksums
	c["tcp.syns_admitted"] += t.SynsAdmitted
	c["tcp.accepted"] += t.AcceptedConns
	c["tcp.active_opens"] += t.ActiveOpens
	c["tcp.segs_out"] += t.SegsOut
}

// diff adds after − before into into, for every key of after.
func diff(into, after, before map[string]uint64) {
	for k, v := range after {
		into[k] += v - before[k]
	}
}
