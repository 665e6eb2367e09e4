package mtcpstack

import (
	"runtime"
	"testing"
	"time"

	"ix/internal/app"
	"ix/internal/fabric"
	"ix/internal/netstack"
	"ix/internal/sim"
	"ix/internal/wire"
)

type pingpong struct {
	server bool
	got    *[]byte
	rtts   *[]time.Duration
	env    app.Env
	t0     int64
}

func (p *pingpong) OnAccept(c app.Conn) {}
func (p *pingpong) OnConnected(c app.Conn, ok bool) {
	if ok {
		p.t0 = p.env.Now()
		c.Send([]byte("ping"))
	}
}
func (p *pingpong) OnRecv(c app.Conn, data []byte) {
	*p.got = append(*p.got, data...)
	if p.server {
		c.Send(data)
	} else if p.rtts != nil {
		*p.rtts = append(*p.rtts, time.Duration(p.env.Now()-p.t0))
		p.t0 = p.env.Now()
		c.Send([]byte("ping"))
	}
}
func (p *pingpong) OnSent(c app.Conn, n int) {}
func (p *pingpong) OnEOF(c app.Conn)         { c.Close() }
func (p *pingpong) OnClosed(c app.Conn)      {}

// TestHandoffLatencyFloor: mTCP RPC latency is dominated by the batched
// TCP-thread↔app-thread handoffs — roughly 4 handoffs per RTT.
func TestHandoffLatencyFloor(t *testing.T) {
	eng := sim.NewEngine(4)
	var srvGot []byte
	var rtts []time.Duration
	srv := New(eng, Config{
		HostConfig: netstack.HostConfig{Name: "s", IP: wire.Addr4(10, 0, 0, 2), MAC: wire.MAC{2, 0, 0, 0, 0, 2}},
		Cores:      1,
		Factory: func(env app.Env, th, n int) app.Handler {
			_ = env.Listen(80)
			return &pingpong{server: true, got: &srvGot, env: env}
		},
	})
	var cliGot []byte
	cli := New(eng, Config{
		HostConfig: netstack.HostConfig{Name: "c", IP: wire.Addr4(10, 0, 0, 1), MAC: wire.MAC{2, 0, 0, 0, 0, 1}},
		Cores:      1,
		Factory: func(env app.Env, th, n int) app.Handler {
			p := &pingpong{got: &cliGot, rtts: &rtts, env: env}
			_ = env.Connect(wire.Addr4(10, 0, 0, 2), 80, nil)
			return p
		},
	})
	link := fabric.NewLink(eng, 10*fabric.Gbps, time.Microsecond)
	srv.NIC().AttachPort(link.Port(0))
	cli.NIC().AttachPort(link.Port(1))
	srv.ARP().Learn(cli.IP(), cli.MAC())
	cli.ARP().Learn(srv.IP(), srv.MAC())
	srv.Start()
	cli.Start()
	eng.RunUntil(sim.Time(20 * time.Millisecond))
	if len(rtts) < 10 {
		t.Fatalf("only %d RPCs completed", len(rtts))
	}
	// 4 handoffs of 23µs each ≈ 92µs floor + wire + processing.
	avg := time.Duration(0)
	for _, r := range rtts {
		avg += r
	}
	avg /= time.Duration(len(rtts))
	if avg < 80*time.Microsecond || avg > 160*time.Microsecond {
		t.Fatalf("mTCP RPC RTT = %v, want ~100µs (handoff-dominated)", avg)
	}
}

// TestTimerWakeSkipsCurrentTick: a deadline landing inside the wheel's
// current tick on an idle core must arm the wake at the next tick
// boundary — not at the current instant, which would re-run poll rounds
// one virtual instant after another until the boundary (the cousin of
// the linuxstack same-instant livelock, unified behind
// timerwheel.NextFireTime).
func TestTimerWakeSkipsCurrentTick(t *testing.T) {
	eng := sim.NewEngine(1)
	h := New(eng, Config{
		HostConfig: netstack.HostConfig{Name: "m", IP: wire.Addr4(10, 0, 0, 9), MAC: wire.MAC{2, 0, 0, 0, 0, 9}},
		Cores:      1,
	})
	h.cfg.Factory = func(env app.Env, th, n int) app.Handler {
		return &pingpong{got: new([]byte), env: env}
	}
	h.Start()
	eng.Run()
	m := h.cores[0]

	// Advance the engine and wheel mid-tick, then plant a deadline
	// inside the current tick.
	tick := int64(16 * time.Microsecond)
	mid := sim.Time(10*tick + tick/2)
	eng.At(mid, func() {})
	eng.Run()
	m.wheel.Advance(int64(eng.Now()))
	m.wheel.Add(int64(eng.Now()), func() {})

	m.timer.Ensure()
	got, ok := m.timer.Armed()
	if !ok {
		t.Fatal("no timer wake armed for a pending deadline")
	}
	if got == eng.Now() {
		t.Fatalf("timer wake armed at the current instant %v (would spin rounds); want the tick boundary", got)
	} else if want := sim.Time(11 * tick); got != want {
		t.Fatalf("timer wake at %v, want next tick boundary %v", got, want)
	}
}

// rpc is a 64 B ping-pong that does not allocate: the server echoes
// what it reads, the client sends again. Both sides count the messages
// they hand to and take from their sockets.
type rpc struct {
	server bool
	msg    []byte
	msgs   *int
}

func (p *rpc) OnAccept(c app.Conn) {}
func (p *rpc) OnConnected(c app.Conn, ok bool) {
	if ok {
		*p.msgs++
		c.Send(p.msg)
	}
}
func (p *rpc) OnRecv(c app.Conn, data []byte) {
	*p.msgs += 2
	if p.server {
		c.Send(data)
		return
	}
	c.Send(p.msg)
}
func (p *rpc) OnSent(c app.Conn, n int) {}
func (p *rpc) OnEOF(c app.Conn)         { c.Close() }
func (p *rpc) OnClosed(c app.Conn)      {}

// TestZeroAllocMTCPHandoffs: once warm, the mTCP RPC cycle — job
// handoff to the TCP thread, poll round, event handoff back to the app
// thread, end-of-round re-arming — allocates nothing of its own. The
// only allocations are the socket buffers the shared adapter
// re-materializes per message (an idle socket holds none, so every
// write and every arrival takes one), so the heap allocation count
// equals the number of socket writes plus reads.
func TestZeroAllocMTCPHandoffs(t *testing.T) {
	eng := sim.NewEngine(4)
	msgs := 0
	srv := New(eng, Config{
		HostConfig: netstack.HostConfig{Name: "s", IP: wire.Addr4(10, 0, 0, 2), MAC: wire.MAC{2, 0, 0, 0, 0, 2}},
		Factory: func(env app.Env, th, n int) app.Handler {
			_ = env.Listen(80)
			return &rpc{server: true, msgs: &msgs}
		},
	})
	cli := New(eng, Config{
		HostConfig: netstack.HostConfig{Name: "c", IP: wire.Addr4(10, 0, 0, 1), MAC: wire.MAC{2, 0, 0, 0, 0, 1}},
		Factory: func(env app.Env, th, n int) app.Handler {
			for i := 0; i < 4; i++ {
				_ = env.Connect(wire.Addr4(10, 0, 0, 2), 80, nil)
			}
			return &rpc{msg: make([]byte, 64), msgs: &msgs}
		},
	})
	link := fabric.NewLink(eng, 10*fabric.Gbps, time.Microsecond)
	srv.NIC().AttachPort(link.Port(0))
	cli.NIC().AttachPort(link.Port(1))
	srv.ARP().Learn(cli.IP(), cli.MAC())
	cli.ARP().Learn(srv.IP(), srv.MAC())
	srv.Start()
	cli.Start()

	// Warm up: pools provision and every backing array sizes itself.
	until := sim.Time(5 * time.Millisecond)
	eng.RunUntil(until)
	if msgs == 0 {
		t.Fatal("ping-pong did not start")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	start := msgs
	runtime.ReadMemStats(&before)
	eng.RunUntil(until.Add(10 * time.Millisecond))
	runtime.ReadMemStats(&after)
	socketOps := uint64(msgs - start)
	if socketOps < 400 {
		t.Fatalf("only %d socket writes and reads in the window", socketOps)
	}
	if allocs := after.Mallocs - before.Mallocs; allocs != socketOps {
		t.Fatalf("steady-state mTCP echo made %d allocations for %d socket writes and reads; the handoffs allocate %d",
			allocs, socketOps, int64(allocs)-int64(socketOps))
	}
}
