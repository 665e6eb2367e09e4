package netstack

import (
	"time"
	"unsafe"

	"ix/internal/app"
	"ix/internal/cost"
	"ix/internal/mem"
	"ix/internal/memprobe"
	"ix/internal/sim"
	"ix/internal/tcp"
	"ix/internal/timerwheel"
	"ix/internal/wire"
)

// The kernel-socket adapter: one app.Conn implementation over the TCP
// engine, shared by the Linux and mTCP models. Both baselines run the
// same socket semantics (§5); what differs is where protocol work runs,
// what each call costs and how the application thread is woken (§2.3,
// §5.2). Those differences are a SockStack plus a cost.Sock price list;
// everything else — buffering, the close and writable-again edges, the
// ordered event dispatch — lives here once.

// sndbufMax models SO_SNDBUF: bytes a socket buffers beyond what the
// TCP window has accepted (the kernel applies flow control inside the
// socket layer, §4.3).
const sndbufMax = 4 << 20

// SockStack is the per-stack policy an owning core supplies.
type SockStack interface {
	// Charge bills socket work to the owning core.
	Charge(d time.Duration)
	// Wake schedules the owning application thread to drain its ready
	// queue; called after every enqueue.
	Wake()
	// Run performs protocol work op on s where the stack runs it:
	// inline in the syscall, or as a job for a TCP thread.
	Run(s *Sock, op SockOp)
}

// SockOp is deferred protocol work on a socket.
type SockOp uint8

const (
	// OpFlush pushes the send buffer into TCP as the window allows.
	OpFlush SockOp = iota
	// OpFin issues the FIN of a close once the send buffer drains.
	OpFin
	// OpRst resets the connection.
	OpRst
)

// Socket state bits (packed so the socket stays within 96 bytes, part
// of the per-connection byte budget).
const (
	sQueued           uint16 = 1 << iota // on the owner's ready queue
	sAcceptPending                       // OnAccept owed
	sConnectedPending                    // OnConnected owed
	sConnectedOK                         // ...with this outcome
	sEOFPending                          // OnEOF owed
	sDeadPending                         // OnClosed owed
	sDead                                // OnClosed delivered, or failed open
	// sClosing: Close was called; the FIN is owed but deferred until the
	// send buffer drains (sFinSent marks it issued), so queued bytes
	// reach the wire first and are never dropped.
	sClosing
	sFinSent
	// sWantReady arms the writable-again edge for a handler that
	// implements app.SendReadyHandler after a short Send; sReadyPending
	// carries the armed edge to the dispatch.
	sWantReady
	sReadyPending
)

// Sock is a kernel socket as the application sees it.
type Sock struct {
	o      *SockOwner
	conn   *tcp.Conn
	cookie any

	// rcvbuf holds bytes copied out of segments, awaiting the
	// application; rcvOff is the read cursor. The backing is
	// materialized only while data is queued and released the moment
	// the reader drains it, so an idle socket holds no receive buffer.
	rcvbuf []byte
	// sndbuf holds bytes written by the application beyond the TCP
	// window.
	sndbuf []byte

	// rcvOff and sentPending are bounded by buffer sizes, so int32.
	rcvOff      int32
	sentPending int32
	state       uint16
}

var _ app.Conn = (*Sock)(nil)

func (s *Sock) is(bits uint16) bool { return s.state&bits != 0 }
func (s *Sock) set(bits uint16)     { s.state |= bits }
func (s *Sock) clear(bits uint16)   { s.state &^= bits }

// Send copies b into the send buffer, truncated at the buffer limit,
// and has the stack flush it toward TCP.
func (s *Sock) Send(b []byte) int {
	if s.is(sDead|sClosing) || s.conn == nil {
		return 0
	}
	o := s.o
	o.stack.Charge(o.cost.Write + o.cost.Copy.Cost(len(b)))
	room := sndbufMax - len(s.sndbuf)
	if room <= 0 {
		s.armSendReady()
		return 0
	}
	if len(b) > room {
		b = b[:room]
		s.armSendReady()
	}
	// The socket owns a copy of the data from here on.
	s.sndbuf = append(s.sndbuf, b...)
	o.stack.Run(s, OpFlush)
	return len(b)
}

// armSendReady arms the writable-again edge after a short write; a
// no-op unless the owner's handler implements app.SendReadyHandler.
func (s *Sock) armSendReady() {
	if s.o.sendReady == nil || s.is(sDead|sClosing) {
		return
	}
	s.set(sWantReady)
}

// Unsent reports buffered bytes not yet accepted by TCP.
func (s *Sock) Unsent() int { return len(s.sndbuf) }

// Close is an orderly close. Bytes still in the send buffer are not
// dropped: the ACK-driven flush keeps running and the FIN is issued
// only once the buffer drains. Further writes are rejected.
func (s *Sock) Close() {
	if s.is(sDead|sClosing) || s.conn == nil {
		return
	}
	s.o.stack.Charge(s.o.cost.Close)
	s.set(sClosing)
	s.clear(sWantReady)
	s.o.stack.Run(s, OpFin)
}

// Abort resets the connection (close with SO_LINGER 0).
func (s *Sock) Abort() {
	if s.is(sDead) || s.conn == nil {
		return
	}
	s.o.stack.Charge(s.o.cost.Close)
	s.o.stack.Run(s, OpRst)
}

// Cookie returns the app tag.
func (s *Sock) Cookie() any { return s.cookie }

// SetCookie tags the socket.
func (s *Sock) SetCookie(v any) { s.cookie = v }

// Do performs op now; a SockStack's Run calls it inline or from its
// TCP thread.
func (s *Sock) Do(op SockOp) {
	switch op {
	case OpFlush:
		s.flush()
	case OpFin:
		s.finishClose()
	case OpRst:
		s.conn.Abort()
	}
}

// flush pushes the send buffer into the TCP engine as the window
// allows. The transmitted prefix stays immutable until acknowledged
// (the engine's zero-copy contract): consumed prefixes are never
// mutated, only sliced off.
func (s *Sock) flush() {
	if len(s.sndbuf) == 0 || s.conn == nil || s.is(sDead) {
		return
	}
	n := s.conn.Sendv([][]byte{s.sndbuf})
	if n > 0 {
		segs := (n + wire.MSS - 1) / wire.MSS
		s.o.stack.Charge(time.Duration(segs) * s.o.cost.TxPerSeg)
		s.sndbuf = s.sndbuf[n:]
		if len(s.sndbuf) == 0 {
			s.sndbuf = nil
		}
	}
}

// finishClose issues an owed FIN once the send buffer is empty;
// otherwise the FIN stays owed to the ACK-driven Sent.
func (s *Sock) finishClose() {
	if !s.is(sClosing) || s.is(sFinSent|sDead) || s.conn == nil || len(s.sndbuf) > 0 {
		return
	}
	s.set(sFinSent)
	s.conn.Close()
}

// SockOwner is one application thread's side of the adapter: its
// handler, the ready queue its event loop drains, and the policy and
// prices of the stack it runs on.
type SockOwner struct {
	stack     SockStack
	cost      cost.Sock
	handler   app.Handler
	sendReady app.SendReadyHandler
	ready     []*Sock
	head      int
}

// Init binds the owner to its stack's policy and price list.
func (o *SockOwner) Init(stack SockStack, c cost.Sock) {
	o.stack, o.cost = stack, c
}

// SetHandler installs the application thread's handler.
func (o *SockOwner) SetHandler(h app.Handler) {
	o.handler = h
	o.sendReady, _ = h.(app.SendReadyHandler)
}

// Pending reports whether sockets await dispatch.
func (o *SockOwner) Pending() bool { return o.head < len(o.ready) }

// enqueue marks s eventful and wakes the application thread.
func (o *SockOwner) enqueue(s *Sock) {
	if !s.is(sQueued) {
		s.set(sQueued)
		o.ready = append(o.ready, s)
	}
	o.stack.Wake()
}

// Drain delivers every ready socket's events to the handler in FIFO
// order, including sockets that become ready while it runs.
func (o *SockOwner) Drain() {
	for o.head < len(o.ready) {
		s := o.ready[o.head]
		o.ready[o.head] = nil
		o.head++
		if o.head == len(o.ready) {
			o.ready = o.ready[:0]
			o.head = 0
		}
		s.clear(sQueued)
		o.stack.Charge(o.cost.Dispatch)
		o.dispatch(s)
	}
}

// dispatch delivers one socket's events in order: accept, connected,
// receive, sent, send-ready, EOF, closed.
func (o *SockOwner) dispatch(s *Sock) {
	c := &o.cost
	if s.is(sAcceptPending) {
		s.clear(sAcceptPending)
		o.stack.Charge(c.Accept)
		o.handler.OnAccept(s)
	}
	if s.is(sConnectedPending) {
		s.clear(sConnectedPending)
		o.stack.Charge(c.Notify)
		ok := s.is(sConnectedOK)
		o.handler.OnConnected(s, ok)
		if !ok {
			return
		}
	}
	for int(s.rcvOff) < len(s.rcvbuf) {
		n := len(s.rcvbuf) - int(s.rcvOff)
		if c.ReadChunk > 0 && n > c.ReadChunk {
			n = c.ReadChunk
		}
		chunk := s.rcvbuf[s.rcvOff : int(s.rcvOff)+n]
		s.rcvOff += int32(n)
		if int(s.rcvOff) == len(s.rcvbuf) {
			// Fully drained: release the backing so an idle socket holds
			// no receive buffer; it re-materializes on the next arrival.
			// chunk stays valid through the OnRecv call below — nothing
			// can append to rcvbuf while the application thread runs.
			s.rcvbuf = nil
			s.rcvOff = 0
		}
		o.stack.Charge(c.Read + c.Copy.Cost(n))
		s.conn.RecvDone(n) // the window opens as the app consumes
		o.handler.OnRecv(s, chunk)
		if s.is(sDead) {
			return
		}
	}
	if s.sentPending > 0 {
		n := int(s.sentPending)
		s.sentPending = 0
		o.stack.Charge(c.Notify)
		o.handler.OnSent(s, n)
	}
	if s.is(sReadyPending) {
		s.clear(sReadyPending)
		if o.sendReady != nil && !s.is(sDead|sClosing) {
			o.stack.Charge(c.Notify)
			o.sendReady.OnSendReady(s)
		}
	}
	if s.is(sEOFPending) {
		s.clear(sEOFPending)
		o.handler.OnEOF(s)
	}
	if s.is(sDeadPending) {
		s.clear(sDeadPending)
		s.set(sDead)
		o.handler.OnClosed(s)
	}
}

// Sockets is a socket table and the tcp.Events adapter that turns
// engine callbacks into socket state. The engine's per-connection
// cookie is the socket's slot id; embryonic connections (not yet
// accepted) have none.
type Sockets struct {
	tab tcp.CookieTable[Sock]
	// acceptor names the owner of a newly accepted socket.
	acceptor func() *SockOwner
}

// NewSockets returns a table presized for expected connections whose
// accepted sockets belong to acceptor().
func NewSockets(expected int, acceptor func() *SockOwner) *Sockets {
	t := &Sockets{acceptor: acceptor}
	t.tab.Reserve(expected)
	return t
}

// Connect opens a connection on st for owner o and registers its
// socket. A failed open delivers OnConnected(false) instead.
func (t *Sockets) Connect(o *SockOwner, st *tcp.Stack, dst wire.IPv4, port uint16, cookie any) {
	o.stack.Charge(o.cost.Connect)
	conn, err := st.Connect(dst, port, 0)
	if err != nil {
		o.enqueue(&Sock{o: o, cookie: cookie, state: sConnectedPending | sDead})
		return
	}
	s := &Sock{o: o, conn: conn, cookie: cookie}
	conn.Cookie = t.tab.Grant(s)
}

// Footprint implements the memprobe accounting contract for a socket
// layer over st: the engine's tally plus the table's backing and, per
// socket, the struct and its buffer capacities.
func (t *Sockets) Footprint(st *tcp.Stack) memprobe.Footprint {
	const sockBytes = int64(unsafe.Sizeof(Sock{}))
	f := st.Footprint()
	f.Bytes += t.tab.FootprintBytes()
	f.Bytes += st.SumConns(func(c *tcp.Conn) int64 {
		s := t.tab.Lookup(c.Cookie)
		if s == nil {
			return 0 // embryonic: no socket until accept
		}
		return sockBytes + int64(cap(s.rcvbuf)) + int64(cap(s.sndbuf))
	})
	return f
}

// Knock admits every remotely initiated connection.
func (t *Sockets) Knock(l *tcp.Listener, key wire.FlowKey) bool { return true }

// Accepted creates the socket of a completed passive open.
func (t *Sockets) Accepted(c *tcp.Conn) {
	o := t.acceptor()
	s := &Sock{o: o, conn: c, state: sAcceptPending}
	c.Cookie = t.tab.Grant(s)
	o.enqueue(s)
}

// Connected reports an active open's outcome.
func (t *Sockets) Connected(c *tcp.Conn, ok bool) {
	s := t.tab.Lookup(c.Cookie)
	if s == nil {
		return
	}
	s.set(sConnectedPending)
	if ok {
		s.set(sConnectedOK)
	} else {
		// Terminal: a failed active open never reaches Dead (the engine
		// reports SynSent teardown as Connected(false) only), so the
		// cookie slot is released here.
		s.set(sDead)
		t.tab.Revoke(c.Cookie)
	}
	s.o.enqueue(s)
}

// Recv copies in-order payload into the socket buffer. The copy is
// charged when the application reads it.
func (t *Sockets) Recv(c *tcp.Conn, buf *mem.Mbuf, data []byte) {
	s := t.tab.Lookup(c.Cookie)
	if s == nil {
		return
	}
	s.rcvbuf = append(s.rcvbuf, data...)
	s.o.enqueue(s)
}

// Sent clocks the send buffer out on ACKs. released is ignored: the
// buffer slides by accepted bytes, not by segment reclamation.
func (t *Sockets) Sent(c *tcp.Conn, acked, released int) {
	s := t.tab.Lookup(c.Cookie)
	if s == nil {
		return
	}
	s.flush()
	if s.is(sClosing) {
		// A deferred close issues its FIN the moment the buffer drains.
		s.finishClose()
		return
	}
	// Only wake the app for write-readiness while it still has
	// buffered data (libevent-style write events are enabled on
	// demand).
	if acked > 0 && len(s.sndbuf) > 0 {
		s.sentPending += int32(acked)
		s.o.enqueue(s)
	}
	// Writable-again edge: a writer that saw a short write wakes once —
	// and only once the buffer has actually reopened, so a fully drained
	// buffer (which the wake above never covers) still signals.
	if s.is(sWantReady) && len(s.sndbuf) < sndbufMax {
		s.clear(sWantReady)
		s.set(sReadyPending)
		s.o.enqueue(s)
	}
}

// RemoteClosed queues the EOF of a peer FIN.
func (t *Sockets) RemoteClosed(c *tcp.Conn) {
	s := t.tab.Lookup(c.Cookie)
	if s == nil {
		return
	}
	s.set(sEOFPending)
	s.o.enqueue(s)
}

// Dead releases the socket's slot and queues OnClosed.
func (t *Sockets) Dead(c *tcp.Conn, reason tcp.Reason) {
	s := t.tab.Lookup(c.Cookie)
	if s == nil {
		return
	}
	t.tab.Revoke(c.Cookie)
	s.set(sDeadPending)
	s.o.enqueue(s)
}

// TimerWake arms one engine event at a timer wheel's next fire time, so
// an idle core wakes exactly when its wheel has work.
type TimerWake struct {
	eng   *sim.Engine
	wheel *timerwheel.Wheel
	ev    *sim.Event
	// fire is the caller's wake action; fired is the bound callback
	// handed to the engine (created once — method values allocate).
	fire, fired func()
}

// Init binds the wake to its engine, wheel and action.
func (t *TimerWake) Init(eng *sim.Engine, wheel *timerwheel.Wheel, fire func()) {
	t.eng, t.wheel, t.fire = eng, wheel, fire
	t.fired = t.onFire
}

// Ensure arms the wake for the wheel's next deadline. It arms at the
// wheel's NextFireTime, which quantizes a deadline inside the current
// wheel tick up to the next tick boundary: waking earlier could not fire
// anything and would spin at one virtual instant after another (the
// same-instant livelock).
func (t *TimerWake) Ensure() {
	ft, ok := t.wheel.NextFireTime()
	if !ok {
		return
	}
	at := sim.Time(ft)
	if at < t.eng.Now() {
		// The wheel's clock lags the engine (no protocol work ran
		// lately): wake now; the woken task's Advance catches the wheel
		// up and the next arming lands strictly in the future.
		at = t.eng.Now()
	}
	if t.ev != nil {
		if t.ev.At() <= at {
			return
		}
		t.eng.Cancel(t.ev)
	}
	t.ev = t.eng.At(at, t.fired)
}

// Armed reports the pending wake's instant.
func (t *TimerWake) Armed() (sim.Time, bool) {
	if t.ev == nil {
		return 0, false
	}
	return t.ev.At(), true
}

func (t *TimerWake) onFire() {
	t.ev = nil
	t.fire()
}
