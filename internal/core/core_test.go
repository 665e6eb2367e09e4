package core

import (
	"testing"
	"time"

	"ix/internal/dune"
	"ix/internal/mem"
	"ix/internal/netstack"
	"ix/internal/sim"
	"ix/internal/wire"
)

// scriptProgram is a minimal UserProgram driven by a function.
type scriptProgram struct {
	run func(api *UserAPI, events []Event, results []SyscallResult)
}

func (p *scriptProgram) Run(api *UserAPI, events []Event, results []SyscallResult) {
	if p.run != nil {
		p.run(api, events, results)
	}
}

// loopback wires a dataplane NIC port back to itself through a second
// dataplane, so two IX instances can talk (no switch needed).
func twoDataplanes(t *testing.T, userA, userB func(api *UserAPI, thread, threads int) UserProgram) (*sim.Engine, *Dataplane, *Dataplane) {
	t.Helper()
	eng := sim.NewEngine(5)
	a := New(eng, Config{
		HostConfig: netstack.HostConfig{Name: "a", IP: wire.Addr4(10, 0, 0, 1), MAC: wire.MAC{2, 0, 0, 0, 0, 1}, Seed: 1},
		Threads:    1, User: userA,
	})
	b := New(eng, Config{
		HostConfig: netstack.HostConfig{Name: "b", IP: wire.Addr4(10, 0, 0, 2), MAC: wire.MAC{2, 0, 0, 0, 0, 2}, Seed: 2},
		Threads:    1, User: userB,
	})
	link := newLink(eng)
	a.NIC().AttachPort(link.Port(0))
	b.NIC().AttachPort(link.Port(1))
	a.ARP().Learn(b.IP(), b.MAC())
	b.ARP().Learn(a.IP(), a.MAC())
	return eng, a, b
}

func TestDataplaneEndToEnd(t *testing.T) {
	var serverGot []byte
	var clientGot []byte
	var clientHandle uint64
	server := func(api *UserAPI, thread, threads int) UserProgram {
		if err := api.Listen(80); err != nil {
			t.Fatal(err)
		}
		return &scriptProgram{run: func(api *UserAPI, events []Event, results []SyscallResult) {
			for _, ev := range events {
				switch ev.Type {
				case EvKnock:
					api.Accept(ev.Handle, 0x517)
				case EvRecv:
					serverGot = append(serverGot, ev.Data...)
					api.Sendv(ev.Handle, [][]byte{[]byte("pong")})
					api.RecvDone(ev.Handle, ev.Bytes, []*mem.Mbuf{ev.Mbuf})
				}
			}
		}}
	}
	client := func(api *UserAPI, thread, threads int) UserProgram {
		api.Connect(0xc11, wire.Addr4(10, 0, 0, 2), 80)
		return &scriptProgram{run: func(api *UserAPI, events []Event, results []SyscallResult) {
			for _, r := range results {
				if r.Type == SysConnect && r.Err == nil {
					clientHandle = r.Handle
				}
			}
			for _, ev := range events {
				switch ev.Type {
				case EvConnected:
					if !ev.Outcome {
						t.Error("connect failed")
					}
					api.Sendv(ev.Handle, [][]byte{[]byte("ping")})
				case EvRecv:
					clientGot = append(clientGot, ev.Data...)
					api.RecvDone(ev.Handle, ev.Bytes, []*mem.Mbuf{ev.Mbuf})
				}
			}
		}}
	}
	eng, a, b := twoDataplanes(t,
		func(api *UserAPI, th, ths int) UserProgram { return client(api, th, ths) },
		func(api *UserAPI, th, ths int) UserProgram { return server(api, th, ths) })
	a.Start()
	b.Start()
	eng.RunUntil(sim.Time(10 * time.Millisecond))
	if string(serverGot) != "ping" || string(clientGot) != "pong" {
		t.Fatalf("server got %q, client got %q", serverGot, clientGot)
	}
	if clientHandle == 0 {
		t.Fatal("connect result handle missing")
	}
	// No buffers leaked: all recv_done'd.
	if a.Thread(0).Pool().InUse() != 0 || b.Thread(0).Pool().InUse() != 0 {
		t.Fatalf("mbufs leaked: a=%d b=%d", a.Thread(0).Pool().InUse(), b.Thread(0).Pool().InUse())
	}
}

// TestMaliciousApp verifies the §4.5 security model: forged, foreign and
// stale handles, recv_done overruns, and writes to read-only buffers are
// all rejected with violations counted, and the dataplane keeps working.
func TestMaliciousApp(t *testing.T) {
	var mal *UserAPI
	var victim *Dataplane
	var gotMbuf *mem.Mbuf
	attacks := 0
	server := func(api *UserAPI, thread, threads int) UserProgram {
		_ = api.Listen(80)
		return &scriptProgram{run: func(api *UserAPI, events []Event, results []SyscallResult) {
			for _, r := range results {
				if r.Err != nil {
					attacks++
				}
			}
			for _, ev := range events {
				switch ev.Type {
				case EvKnock:
					api.Accept(ev.Handle, 0)
				case EvRecv:
					gotMbuf = ev.Mbuf
					// Attack 1: forge a handle.
					api.Sendv(0xdeadbeef00000000, [][]byte{[]byte("forged")})
					// Attack 2: recv_done more than delivered.
					api.RecvDone(ev.Handle, ev.Bytes*100, nil)
					// Attack 3: write to the read-only buffer.
					if err := api.TryWriteMbuf(ev.Mbuf, []byte("overwrite")); err == nil {
						t.Error("read-only mbuf write allowed")
					}
					// Legitimate path still works afterwards.
					api.Sendv(ev.Handle, [][]byte{[]byte("ok")})
					api.RecvDone(ev.Handle, ev.Bytes, []*mem.Mbuf{ev.Mbuf})
				}
			}
			mal = api
		}}
	}
	var clientOK bool
	client := func(api *UserAPI, thread, threads int) UserProgram {
		api.Connect(0, wire.Addr4(10, 0, 0, 2), 80)
		return &scriptProgram{run: func(api *UserAPI, events []Event, results []SyscallResult) {
			for _, ev := range events {
				switch ev.Type {
				case EvConnected:
					api.Sendv(ev.Handle, [][]byte{[]byte("req")})
				case EvRecv:
					if string(ev.Data) == "ok" {
						clientOK = true
					}
					api.RecvDone(ev.Handle, ev.Bytes, []*mem.Mbuf{ev.Mbuf})
				}
			}
		}}
	}
	eng, a, b := twoDataplanes(t,
		func(api *UserAPI, th, ths int) UserProgram { return client(api, th, ths) },
		func(api *UserAPI, th, ths int) UserProgram { return server(api, th, ths) })
	victim = b
	a.Start()
	b.Start()
	eng.RunUntil(sim.Time(10 * time.Millisecond))
	if !clientOK {
		t.Fatal("legitimate traffic broken by the malicious app")
	}
	if attacks < 2 {
		t.Fatalf("attack syscalls returned %d errors, want ≥2", attacks)
	}
	g := victim.Thread(0).Gate()
	if g.Violations(dune.VioBadHandle)+g.Violations(dune.VioForeignHandle) == 0 {
		t.Fatal("forged handle not counted")
	}
	if g.Violations(dune.VioRecvDoneOverrun) == 0 {
		t.Fatal("recv_done overrun not counted")
	}
	if g.Violations(dune.VioReadOnlyWrite) == 0 {
		t.Fatal("read-only write not counted")
	}
	_ = mal
	_ = gotMbuf
}

// TestBatchBoundRespected: cycles never take more than B frames.
func TestBatchBoundRespected(t *testing.T) {
	// Covered end-to-end by harness tests; here check the config default.
	eng := sim.NewEngine(1)
	d := New(eng, Config{
		HostConfig: netstack.HostConfig{Name: "x", IP: wire.Addr4(1, 1, 1, 1), MAC: wire.MAC{2}},
		Threads:    1,
		User:       func(api *UserAPI, t, n int) UserProgram { return &scriptProgram{} },
	})
	if d.BatchBound() != DefaultBatchBound {
		t.Fatalf("default B = %d", d.BatchBound())
	}
}

// TestUserTimeout: an application burning >10ms of user CPU in one cycle
// is marked non-responsive and reported to the control plane (§4.5).
func TestUserTimeout(t *testing.T) {
	reported := -1
	eng := sim.NewEngine(1)
	d := New(eng, Config{
		HostConfig:      netstack.HostConfig{Name: "x", IP: wire.Addr4(1, 1, 1, 1), MAC: wire.MAC{2}},
		Threads:         1,
		OnNonResponsive: func(th int) { reported = th },
		User: func(api *UserAPI, th, n int) UserProgram {
			// Burn 20ms of user time at startup.
			api.Charge(20 * time.Millisecond)
			return &scriptProgram{}
		},
	})
	link := newLink(eng)
	d.NIC().AttachPort(link.Port(0))
	d.Start()
	eng.RunUntil(sim.Time(50 * time.Millisecond))
	if reported != 0 {
		t.Fatalf("non-responsive thread not reported (got %d)", reported)
	}
	if !d.Thread(0).NonResponsive {
		t.Fatal("thread not flagged")
	}
}

func TestKernelUserAccounting(t *testing.T) {
	eng := sim.NewEngine(1)
	d := New(eng, Config{
		HostConfig: netstack.HostConfig{Name: "x", IP: wire.Addr4(1, 1, 1, 1), MAC: wire.MAC{2}},
		Threads:    1,
		User: func(api *UserAPI, th, n int) UserProgram {
			api.Charge(100 * time.Microsecond)
			return &scriptProgram{}
		},
	})
	link := newLink(eng)
	d.NIC().AttachPort(link.Port(0))
	d.Start()
	eng.RunUntil(sim.Time(time.Millisecond))
	k, u := d.CPUBreakdown()
	if u < 100*time.Microsecond {
		t.Fatalf("user time = %v, want ≥100µs", u)
	}
	if k <= 0 {
		t.Fatalf("kernel time = %v", k)
	}
}
