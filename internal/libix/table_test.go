package libix

import (
	"testing"
	"time"
	"unsafe"

	"ix/internal/app"
	"ix/internal/sim"
	"ix/internal/wire"
)

// TestConnSize pins the per-flow descriptor: the cookie-table id lives
// in padding, so it must not grow the struct past the budget.
func TestConnSize(t *testing.T) {
	if n := unsafe.Sizeof(conn{}); n > 152 {
		t.Fatalf("unsafe.Sizeof(conn{}) = %d B, budget 152 B", n)
	}
}

// churnClient keeps width flows open at once: each sends one small
// message on connect, aborts a nanosecond later and is replaced, until
// total flows have been started.
type churnClient struct {
	env     app.Env
	msg     []byte
	started int
	total   int
}

func (c *churnClient) connect() {
	if c.started < c.total {
		c.started++
		_ = c.env.Connect(wire.Addr4(10, 0, 0, 2), 80, nil)
	}
}

func (c *churnClient) OnAccept(app.Conn) {}
func (c *churnClient) OnConnected(conn app.Conn, ok bool) {
	if ok {
		conn.Send(c.msg)
		c.env.After(time.Nanosecond, conn.Abort)
	}
	c.connect()
}
func (c *churnClient) OnRecv(app.Conn, []byte) {}
func (c *churnClient) OnSent(app.Conn, int)    {}
func (c *churnClient) OnEOF(app.Conn)          {}
func (c *churnClient) OnClosed(app.Conn)       {}

// TestKnockBatchDeathFreesCookie: a flow whose handshake ACK, data and
// RST reach the server in one RX batch delivers knock, recv and dead
// together, before the accept that would attach its cookie. The dead
// event carries cookie 0, so the server must free the flow's cookie
// slot by the id the conn itself holds; otherwise the slot stays taken
// and keeps pointing at the dead conn.
func TestKnockBatchDeathFreesCookie(t *testing.T) {
	const width, total = 64, 2000
	var srv *program
	serverF := func(env app.Env, th, n int) app.Handler {
		_ = env.Listen(80)
		srv = env.(*program)
		return pingServer{}
	}
	cli := &churnClient{msg: make([]byte, 64), total: total}
	clientF := func(env app.Env, th, n int) app.Handler {
		cli.env = env
		for i := 0; i < width; i++ {
			cli.connect()
		}
		return cli
	}
	eng, a, b := pair(t, serverF, clientF)
	a.Start()
	b.Start()
	eng.RunUntil(sim.Time(20 * time.Millisecond))
	if cli.started < total {
		t.Fatalf("only %d of %d flows started", cli.started, total)
	}
	leaked := 0
	for id := uint64(1); id <= 2*total; id++ {
		if srv.tab.Lookup(id) != nil {
			leaked++
		}
	}
	if leaked > 0 {
		t.Fatalf("%d cookie ids still resolve on the server after all %d flows died", leaked, total)
	}
}
