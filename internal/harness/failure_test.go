package harness

import (
	"testing"
	"time"

	"ix/internal/apps/echo"
	"ix/internal/core"
	"ix/internal/fabric"
	"ix/internal/libix"
	"ix/internal/linuxstack"
	"ix/internal/netstack"
	"ix/internal/sim"
	"ix/internal/wire"
)

// TestOverloadDropsAtNICEdge: §3's claim that queues build up (and drops
// happen) only at the NIC edge. Overload an undersized IX server: the
// RX descriptor rings overflow, drops are counted, and the system keeps
// serving at its capacity with no internal failure.
func TestOverloadDropsAtNICEdge(t *testing.T) {
	cl := NewCluster(21)
	m := echo.NewMetrics()
	cl.AddHost("server", HostSpec{
		Arch: ArchIX, Cores: 1, BatchBound: 16,
		Factory: echo.ServerFactory(9000, 64),
	})
	srv := cl.IXServer(0)
	for i := 0; i < 8; i++ {
		cl.AddHost("client", HostSpec{
			Arch: ArchMTCP, Cores: 4, // mTCP clients push harder per core
			Factory: echo.ClientFactory(echo.ClientConfig{
				ServerIP: srv.IP(), Port: 9000, MsgSize: 64, Rounds: 1024,
				Conns: 16, Metrics: m,
			}),
		})
	}
	cl.Start()
	cl.Run(30 * time.Millisecond)
	m.Running = false
	if m.Msgs.Total() == 0 {
		t.Fatal("server made no progress under overload")
	}
	t.Logf("overload: %d msgs, %d NIC-edge drops", m.Msgs.Total(), srv.RxDrops())
	// Retransmissions recovered whatever was dropped; steady service.
	rate := float64(m.Msgs.Total()) / 0.03
	if rate < 500_000 {
		t.Fatalf("rate %.0f too low — overload collapsed the server", rate)
	}
}

// TestMemoryPressure: a dataplane whose large-page grant
// (core.Config.MemPages) is too small for all its pools drops packets
// where a pool runs dry, but does not fail. Two elastic threads share a
// two-page grant. The client ramps one connection at a time, so the
// thread serving the first connection takes one page for its mbufs and
// one for its TX arena; the other thread's mbuf pool then finds the
// region empty and drops every frame RSS steers to it. The first
// thread keeps serving, and at idle every mbuf is back in its pool.
func TestMemoryPressure(t *testing.T) {
	eng := sim.NewEngine(22)
	m := echo.NewMetrics()
	srv := core.New(eng, core.Config{
		HostConfig: netstack.HostConfig{Name: "server", IP: wire.Addr4(10, 0, 0, 2), MAC: wire.MAC{2, 0, 0, 0, 0, 2}, Seed: 1},
		Threads:    2,
		MemPages:   2,
		User:       libix.Program(echo.ServerFactory(9000, 64)),
	})
	cli := linuxstack.New(eng, linuxstack.Config{
		HostConfig: netstack.HostConfig{Name: "client", IP: wire.Addr4(10, 0, 0, 1), MAC: wire.MAC{2, 0, 0, 0, 0, 1}, Seed: 2},
		Factory: echo.ClientFactory(echo.ClientConfig{
			ServerIP: srv.IP(), Port: 9000, MsgSize: 64, Conns: 8,
			RampBatch: 1, RampGap: 50 * time.Microsecond, Metrics: m,
		}),
	})
	link := fabric.NewLink(eng, LinkBandwidth, linkLatency)
	srv.NIC().AttachPort(link.Port(0))
	cli.NIC().AttachPort(link.Port(1))
	srv.ARP().Learn(cli.IP(), cli.MAC())
	cli.ARP().Learn(srv.IP(), srv.MAC())
	srv.Start()
	cli.Start()

	eng.RunUntil(sim.Time(5 * time.Millisecond))
	var exhausted uint64
	for i := 0; i < srv.Threads(); i++ {
		exhausted += srv.Thread(i).Pool().Exhausted
	}
	_, _, _, drops := srv.LossTotals()
	if exhausted == 0 || drops == 0 {
		t.Fatalf("grant never ran dry: %d failed mbuf allocations, %d pool drops", exhausted, drops)
	}
	before := m.Msgs.Total()
	eng.RunUntil(sim.Time(15 * time.Millisecond))
	served := m.Msgs.Total() - before
	t.Logf("%d failed mbuf allocations, %d pool drops, %d msgs after the pool ran dry", exhausted, drops, served)
	if served == 0 {
		t.Fatal("service stopped once the pool ran dry")
	}

	// All buffers recycled at quiescence (no steady-state leak).
	m.Running = false
	eng.RunUntil(sim.Time(20 * time.Millisecond))
	for i := 0; i < srv.Threads(); i++ {
		if inUse := srv.Thread(i).Pool().InUse(); inUse != 0 {
			t.Fatalf("thread %d holds %d mbufs at idle", i, inUse)
		}
	}
}
