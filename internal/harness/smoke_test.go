package harness

import (
	"sort"
	"testing"
	"time"

	"ix/internal/apps/echo"
	"ix/internal/wire"
)

// TestSmokeEchoIXIX runs one IX client against one IX server and checks
// RPCs complete with sane latency.
func TestSmokeEchoIXIX(t *testing.T) {
	smoke(t, ArchIX, ArchIX, 4*time.Microsecond, 12*time.Microsecond)
}

// TestSmokeEchoLinuxLinux checks the Linux model end to end.
func TestSmokeEchoLinuxLinux(t *testing.T) {
	smoke(t, ArchLinux, ArchLinux, 30*time.Microsecond, 90*time.Microsecond)
}

// TestSmokeEchoMTCP checks the mTCP model end to end.
func TestSmokeEchoMTCP(t *testing.T) {
	smoke(t, ArchMTCP, ArchMTCP, 80*time.Microsecond, 200*time.Microsecond)
}

// TestSmokeCross runs a Linux client against an IX server.
func TestSmokeCross(t *testing.T) {
	smoke(t, ArchIX, ArchLinux, 15*time.Microsecond, 60*time.Microsecond)
}

func smoke(t *testing.T, server, client Arch, minRTT, maxRTT time.Duration) {
	t.Helper()
	cl := NewCluster(1)
	m := echo.NewMetrics()
	cl.AddHost("server", HostSpec{Arch: server, Cores: 2, Factory: echo.ServerFactory(7777, 64)})
	var srvIP wire.IPv4
	srvIP = cl.hosts[0].IP()
	cl.AddHost("client", HostSpec{Arch: client, Cores: 2, Factory: echo.ClientFactory(echo.ClientConfig{
		ServerIP: srvIP, Port: 7777, MsgSize: 64, Rounds: 0, Conns: 2, Metrics: m,
	})})
	cl.Start()
	cl.Run(20 * time.Millisecond)
	if m.Msgs.Total() == 0 {
		t.Fatalf("no echo RPCs completed; failures=%d", m.Failures.Total())
	}
	rtt := m.Latency.Quantile(0.5)
	t.Logf("%v->%v: msgs=%d rtt p50=%v p99=%v", client, server, m.Msgs.Total(), rtt, m.Latency.Quantile(0.99))
	if rtt < minRTT || rtt > maxRTT {
		t.Errorf("median RTT %v outside expected [%v, %v]", rtt, minRTT, maxRTT)
	}
}

// TestExperimentsSmoke runs every registry experiment at a tiny scale:
// each must build its cluster, run, and report series or tables. It is
// the one test that covers the whole Experiments map.
func TestExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("registry sweep")
	}
	sc := Scale{
		Name:        "smoke",
		Warmup:      2 * time.Millisecond,
		Window:      5 * time.Millisecond,
		EchoClients: 2,
		ClientCores: 2,
		MemcClients: 2,
		MemcCores:   1,
		MaxConns:    2_000,
		RPSSteps:    1,
	}
	names := make([]string, 0, len(Experiments))
	for name := range Experiments {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fn := Experiments[name]
		t.Run(name, func(t *testing.T) {
			res := fn(sc)
			if res == nil {
				t.Fatalf("%s returned nil", name)
			}
			if len(res.Series) == 0 && len(res.Tables) == 0 {
				t.Errorf("%s produced no series or tables", name)
			}
		})
	}
}
