package netstack

import (
	"fmt"
	"strings"
	"testing"
	"time"
	"unsafe"

	"ix/internal/app"
	"ix/internal/cost"
	"ix/internal/fabric"
	"ix/internal/mem"
	"ix/internal/tcp"
	"ix/internal/timerwheel"
	"ix/internal/wire"
)

// TestSockSize pins the shared socket at the per-connection budget of
// the smaller of the two adapters it replaced, so neither stack's
// bytes/conn can rise.
func TestSockSize(t *testing.T) {
	if n := unsafe.Sizeof(Sock{}); n > 96 {
		t.Fatalf("unsafe.Sizeof(Sock{}) = %d B, budget 96 B", n)
	}
}

// inlineStack is a SockStack that runs protocol work inline and totals
// the charges.
type inlineStack struct{ charged time.Duration }

func (f *inlineStack) Charge(d time.Duration) { f.charged += d }
func (f *inlineStack) Wake()                  {}
func (f *inlineStack) Run(s *Sock, op SockOp) { s.Do(op) }

// logHandler records upcalls as "<cookie>:<event>" lines (a run of
// receives logs once), totals received bytes, and keeps the last
// connection it saw.
type logHandler struct {
	log  []string
	rcvd int
	conn app.Conn
}

func (h *logHandler) add(c app.Conn, ev string) {
	h.conn = c
	line := fmt.Sprintf("%v:%s", c.Cookie(), ev)
	if n := len(h.log); n > 0 && h.log[n-1] == line && ev == "recv" {
		return
	}
	h.log = append(h.log, line)
}
func (h *logHandler) OnAccept(c app.Conn) {
	c.SetCookie("srv")
	h.add(c, "accept")
}
func (h *logHandler) OnConnected(c app.Conn, ok bool) { h.add(c, fmt.Sprintf("connected(%v)", ok)) }
func (h *logHandler) OnRecv(c app.Conn, data []byte) {
	h.rcvd += len(data)
	h.add(c, "recv")
}
func (h *logHandler) OnSent(c app.Conn, acked int) { h.add(c, fmt.Sprintf("sent(%d)", acked)) }
func (h *logHandler) OnEOF(c app.Conn) {
	h.add(c, "eof")
	c.Close()
}
func (h *logHandler) OnClosed(c app.Conn) { h.add(c, "closed") }

// sockHost is a netstack host whose engine events feed a socket table
// with one owner.
type sockHost struct {
	host
	wheel *timerwheel.Wheel
	socks *Sockets
	owner SockOwner
	stack inlineStack
	h     logHandler
}

func newSockHost(now *int64, ip wire.IPv4, mac wire.MAC, arp *ARPTable) *sockHost {
	h := &sockHost{}
	h.pool = mem.NewMbufPool(mem.NewRegion(64), 0)
	h.wheel = timerwheel.New(timerwheel.DefaultTick, 0)
	h.socks = NewSockets(0, func() *SockOwner { return &h.owner })
	h.owner.Init(&h.stack, cost.DefaultLinux().Sock())
	h.owner.SetHandler(&h.h)
	h.s = New(Config{
		TCP: tcp.Config{
			LocalIP: ip,
			Now:     func() int64 { return *now },
			Wheel:   h.wheel,
			Events:  h.socks,
		},
		LocalMAC: mac,
		SendFrame: func(f *fabric.Frame) {
			h.out = append(h.out, append([]byte(nil), f.Data...))
			f.Release()
		},
		ARP: arp,
	})
	return h
}

// TestSockLifecycle drives one connection through the shared adapter —
// open, data both ways, a close with most of a large write still in the
// send buffer, the peer's EOF-driven close — and checks the upcall
// order, that every queued byte precedes the FIN, that both slots are
// released, and that each side's calls were charged.
func TestSockLifecycle(t *testing.T) {
	now := int64(0)
	arp := NewARPTable()
	ipA, ipB := wire.Addr4(10, 0, 0, 1), wire.Addr4(10, 0, 0, 2)
	macA, macB := wire.MAC{2, 0, 0, 0, 0, 1}, wire.MAC{2, 0, 0, 0, 0, 2}
	a := newSockHost(&now, ipA, macA, arp)
	b := newSockHost(&now, ipB, macB, arp)
	arp.Learn(ipA, macA)
	arp.Learn(ipB, macB)
	if _, err := b.s.TCP().Listen(80); err != nil {
		t.Fatal(err)
	}
	step := func() {
		for i := 0; i < 64; i++ {
			now += int64(100 * time.Microsecond)
			a.wheel.Advance(now)
			b.wheel.Advance(now)
			exchange(&a.host, &b.host)
			a.owner.Drain()
			b.owner.Drain()
		}
	}

	a.socks.Connect(&a.owner, a.s.TCP(), ipB, 80, "cli")
	step()
	cli, srv := a.h.conn, b.h.conn
	if cli == nil || srv == nil {
		t.Fatalf("no connection: client log %v, server log %v", a.h.log, b.h.log)
	}
	if n := srv.Send([]byte("hello")); n != 5 {
		t.Fatalf("server Send = %d, want 5", n)
	}
	step()
	// The client closes with most of a write still buffered (it exceeds
	// the initial congestion window, but not the receive window): the
	// ACK-clocked flush drains it, then the FIN follows.
	const big = 128 << 10
	if n := cli.Send(make([]byte, big)); n != big {
		t.Fatalf("client Send = %d, want %d", n, big)
	}
	if cli.Unsent() == 0 {
		t.Fatal("large write went out at once; the close would not defer")
	}
	cli.Close()
	if n := cli.Send([]byte("late")); n != 0 {
		t.Fatalf("Send after Close = %d, want 0", n)
	}
	step()

	if b.h.rcvd != big {
		t.Errorf("server received %d bytes, want %d", b.h.rcvd, big)
	}
	want := []string{"cli:connected(true)", "cli:recv", "cli:closed"}
	if got := a.h.log; strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("client upcalls %v, want %v", got, want)
	}
	want = []string{"srv:accept", "srv:recv", "srv:eof", "srv:closed"}
	if got := b.h.log; strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("server upcalls %v, want %v", got, want)
	}
	for _, h := range []*sockHost{a, b} {
		if n := h.s.TCP().ConnCount(); n != 0 {
			t.Errorf("%d connections left after close", n)
		}
		if h.socks.tab.Lookup(1) != nil {
			t.Error("socket slot not released at teardown")
		}
		if h.stack.charged == 0 {
			t.Error("no socket work charged")
		}
	}
}

// TestSockWindowUpdateFlushes sends more than the peer's receive window
// to a reader that only drains between exchanges. The window then
// closes with data still in the send buffer, and it reopens with a pure
// window update — an ACK that acknowledges nothing new. That update
// must flush the buffer, or the rest of the write stalls for good.
func TestSockWindowUpdateFlushes(t *testing.T) {
	now := int64(0)
	arp := NewARPTable()
	ipA, ipB := wire.Addr4(10, 0, 0, 1), wire.Addr4(10, 0, 0, 2)
	macA, macB := wire.MAC{2, 0, 0, 0, 0, 1}, wire.MAC{2, 0, 0, 0, 0, 2}
	a := newSockHost(&now, ipA, macA, arp)
	b := newSockHost(&now, ipB, macB, arp)
	arp.Learn(ipA, macA)
	arp.Learn(ipB, macB)
	if _, err := b.s.TCP().Listen(80); err != nil {
		t.Fatal(err)
	}
	step := func(n int) {
		for i := 0; i < n; i++ {
			now += int64(100 * time.Microsecond)
			a.wheel.Advance(now)
			b.wheel.Advance(now)
			exchange(&a.host, &b.host)
			a.owner.Drain()
			b.owner.Drain()
		}
	}

	a.socks.Connect(&a.owner, a.s.TCP(), ipB, 80, "cli")
	step(4)
	cli := a.h.conn
	if cli == nil || b.h.conn == nil {
		t.Fatalf("no connection: client log %v, server log %v", a.h.log, b.h.log)
	}
	const big = 1 << 20
	if n := cli.Send(make([]byte, big)); n != big {
		t.Fatalf("client Send = %d, want %d", n, big)
	}
	step(256)
	if b.h.rcvd != big {
		t.Errorf("server received %d of %d bytes (%d still unsent)", b.h.rcvd, big, cli.Unsent())
	}
}
