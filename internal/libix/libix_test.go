package libix

import (
	"testing"
	"time"

	"ix/internal/app"
	"ix/internal/core"
	"ix/internal/fabric"
	"ix/internal/netstack"
	"ix/internal/sim"
	"ix/internal/wire"
)

// recorder implements app.Handler, recording everything.
type recorder struct {
	env      app.Env
	accepted []app.Conn
	recvd    map[app.Conn][]byte
	sent     map[app.Conn]int
	closed   int
	onRecv   func(c app.Conn, data []byte)
	onConn   func(c app.Conn, ok bool)
}

func (r *recorder) OnAccept(c app.Conn) { r.accepted = append(r.accepted, c) }
func (r *recorder) OnConnected(c app.Conn, ok bool) {
	if r.onConn != nil {
		r.onConn(c, ok)
	}
}
func (r *recorder) OnRecv(c app.Conn, data []byte) {
	if r.recvd == nil {
		r.recvd = map[app.Conn][]byte{}
	}
	r.recvd[c] = append(r.recvd[c], data...)
	if r.onRecv != nil {
		r.onRecv(c, data)
	}
}
func (r *recorder) OnSent(c app.Conn, n int) {
	if r.sent == nil {
		r.sent = map[app.Conn]int{}
	}
	r.sent[c] += n
}
func (r *recorder) OnEOF(c app.Conn)    { c.Close() }
func (r *recorder) OnClosed(c app.Conn) { r.closed++ }

// pair builds two IX dataplanes running libix programs.
func pair(t *testing.T, serverF, clientF app.Factory) (*sim.Engine, *core.Dataplane, *core.Dataplane) {
	t.Helper()
	eng := sim.NewEngine(3)
	a := core.New(eng, core.Config{
		HostConfig: netstack.HostConfig{Name: "a", IP: wire.Addr4(10, 0, 0, 1), MAC: wire.MAC{2, 0, 0, 0, 0, 1}, Seed: 1},
		Threads:    1, User: Program(clientF),
	})
	b := core.New(eng, core.Config{
		HostConfig: netstack.HostConfig{Name: "b", IP: wire.Addr4(10, 0, 0, 2), MAC: wire.MAC{2, 0, 0, 0, 0, 2}, Seed: 2},
		Threads:    1, User: Program(serverF),
	})
	link := fabric.NewLink(eng, 10*fabric.Gbps, 500*time.Nanosecond)
	a.NIC().AttachPort(link.Port(0))
	b.NIC().AttachPort(link.Port(1))
	a.ARP().Learn(b.IP(), b.MAC())
	b.ARP().Learn(a.IP(), a.MAC())
	return eng, a, b
}

// TestEchoAndCoalescing: several Send calls in one handler invocation
// coalesce into a single sendv and arrive in order.
func TestEchoAndCoalescing(t *testing.T) {
	var srvRec, cliRec *recorder
	serverF := func(env app.Env, th, n int) app.Handler {
		_ = env.Listen(80)
		srvRec = &recorder{env: env}
		srvRec.onRecv = func(c app.Conn, data []byte) {
			// Three writes in one round: must coalesce, stay ordered.
			c.Send([]byte("one-"))
			c.Send([]byte("two-"))
			c.Send([]byte("three"))
		}
		return srvRec
	}
	clientF := func(env app.Env, th, n int) app.Handler {
		cliRec = &recorder{env: env}
		cliRec.onConn = func(c app.Conn, ok bool) {
			if !ok {
				t.Error("connect failed")
				return
			}
			c.Send([]byte("go"))
		}
		_ = env.Connect(wire.Addr4(10, 0, 0, 2), 80, nil)
		return cliRec
	}
	eng, a, b := pair(t, serverF, clientF)
	a.Start()
	b.Start()
	eng.RunUntil(sim.Time(5 * time.Millisecond))
	if len(srvRec.accepted) != 1 {
		t.Fatalf("accepted = %d", len(srvRec.accepted))
	}
	var got []byte
	for _, v := range cliRec.recvd {
		got = v
	}
	if string(got) != "one-two-three" {
		t.Fatalf("client received %q", got)
	}
	// The server's TCP stack saw ONE outgoing data segment (coalesced),
	// not three.
	if segs := b.Thread(0).Stack().TCP().SegsOut; segs > 6 {
		t.Fatalf("server emitted %d segments; writes not coalesced", segs)
	}
}

// TestFlowControlReissue: a send bigger than the receive window is
// trimmed by the kernel and re-issued on sent events until delivered.
func TestFlowControlReissue(t *testing.T) {
	const total = 600 << 10 // > 256KB default receive window
	var srvRec *recorder
	serverF := func(env app.Env, th, n int) app.Handler {
		_ = env.Listen(80)
		srvRec = &recorder{env: env}
		return srvRec
	}
	clientF := func(env app.Env, th, n int) app.Handler {
		cli := &recorder{env: env}
		cli.onConn = func(c app.Conn, ok bool) {
			big := make([]byte, total)
			if n := c.Send(big); n != total {
				t.Errorf("libix buffered %d of %d", n, total)
			}
		}
		_ = env.Connect(wire.Addr4(10, 0, 0, 2), 80, nil)
		return cli
	}
	eng, a, b := pair(t, serverF, clientF)
	a.Start()
	b.Start()
	eng.RunUntil(sim.Time(50 * time.Millisecond))
	got := 0
	for _, v := range srvRec.recvd {
		got += len(v)
	}
	if got != total {
		t.Fatalf("server received %d of %d bytes", got, total)
	}
}
