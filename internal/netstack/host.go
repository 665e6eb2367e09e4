package netstack

import (
	"time"

	"ix/internal/fabric"
	"ix/internal/nicsim"
	"ix/internal/sim"
	"ix/internal/tcp"
	"ix/internal/timerwheel"
	"ix/internal/wire"
)

// HostConfig is the settings every host model carries, IX, Linux and
// mTCP alike. Each model embeds it in its own Config beside what only
// that architecture has, so a testbed fills it once per machine.
type HostConfig struct {
	Name string
	IP   wire.IPv4
	MAC  wire.MAC
	// Seed makes the host deterministic; each stack instance derives
	// its ISS seed from it.
	Seed uint64
	// RcvWnd and MinRTO tune the TCP engine (0 = the tcp defaults).
	RcvWnd int
	MinRTO time.Duration
	// ExpectedConns is the anticipated host-wide steady-state flow
	// population; each stack instance presizes its tables for its share
	// of it (0 = grow on demand).
	ExpectedConns int
}

// Machine is the part of a host model every architecture shares: its
// settings, NIC and ARP table, and the shard that owns its frame pools.
// Host models embed it, which supplies their NIC, ARP, IP, MAC and
// SetShard, and build their stack instances with NewStack.
type Machine struct {
	host HostConfig
	eng  *sim.Engine
	nic  *nicsim.NIC
	arp  *ARPTable
	// shard/releaser: frame-pool ownership on a parallel engine (see
	// SetShard); zero-valued on the serial engine.
	shard    int
	releaser fabric.RemoteReleaser
}

// NewMachine returns the machine of host on eng, with a NIC configured
// by nic. Host models embed the result.
func NewMachine(eng *sim.Engine, host HostConfig, nic nicsim.Config) Machine {
	return Machine{host: host, eng: eng, nic: nicsim.New(eng, host.MAC, nic), arp: NewARPTable()}
}

// NIC returns the host NIC for fabric attachment.
func (m *Machine) NIC() *nicsim.NIC { return m.nic }

// ARP returns the host-wide ARP table (preloaded by the harness, as a
// warmed-up testbed would be).
func (m *Machine) ARP() *ARPTable { return m.arp }

// IP returns the host address.
func (m *Machine) IP() wire.IPv4 { return m.host.IP }

// MAC returns the hardware address.
func (m *Machine) MAC() wire.MAC { return m.host.MAC }

// SetShard declares the shard owning the host's frame pools on a
// parallel engine. It must be called before Start: every stack that
// NewStack builds afterwards, elastic threads granted mid-run included,
// returns cross-shard frame releases home through r.
func (m *Machine) SetShard(sh int, r fabric.RemoteReleaser) {
	m.shard, m.releaser = sh, r
}

// ConnShare is one of n stack instances' share of the expected flow
// population: RSS spreads flows near-uniformly over the queues.
func (m *Machine) ConnShare(n int) int {
	return max(m.host.ExpectedConns, 0) / max(n, 1)
}

// NewStack builds stack instance id of the machine. Instances that
// partition the host's flows by NIC queue (IX elastic threads, mTCP
// cores) pass their count n: each presizes for its ConnShare and probes
// ephemeral ports whose replies RSS-hash back to queue id (§4.4: "we
// simply probe the ephemeral port range"). n = 0 builds the one stack
// that serves every queue (the Linux kernel). delAck enables delayed
// ACKs (see tcp.Config.DelAck).
func (m *Machine) NewStack(id, n int, wheel *timerwheel.Wheel, events tcp.Events, send func(*fabric.Frame), delAck time.Duration) *Stack {
	cfg := Config{
		TCP: tcp.Config{
			LocalIP: m.host.IP,
			Now:     m.now,
			Wheel:   wheel,
			Events:  events,
			Seed:    m.host.Seed + uint64(id)*0x9e3779b97f4a7c15,
			RcvWnd:  m.host.RcvWnd,
			MinRTO:  m.host.MinRTO,
			DelAck:  delAck,

			ExpectedConns: m.ConnShare(n),
		},
		LocalMAC:  m.host.MAC,
		SendFrame: send,
		ARP:       m.arp,
	}
	if n > 0 {
		cfg.TCP.PortOK = func(p uint16, dst wire.IPv4, dport uint16) bool {
			ret := wire.FlowKey{SrcIP: dst, DstIP: m.host.IP, SrcPort: dport, DstPort: p, Proto: wire.ProtoTCP}
			return m.nic.RSSQueue(ret) == id
		}
	}
	s := New(cfg)
	if m.releaser != nil {
		s.frames.SetShard(m.shard, m.releaser)
	}
	return s
}

func (m *Machine) now() int64 { return int64(m.eng.Now()) }
