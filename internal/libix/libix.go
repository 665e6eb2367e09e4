// Package libix is the user-level library of §4.3: it abstracts the
// low-level batched syscall/event-condition ABI behind a libevent-style
// callback API (app.Handler). Like the paper's libix, it:
//
//   - coalesces multiple application writes into a single sendv system
//     call per batching round, preserving stream order across partial
//     accepts;
//   - tracks outgoing buffers in the transmit vector and re-issues
//     trimmed writes when the `sent` event condition reports window
//     space, so send-window policy lives entirely in user space;
//   - enforces a maximum pending-send byte limit (the paper's "very
//     basic" buffer sizing policy);
//   - owns a per-connection zero-copy TX arena: Send appends the message
//     into pooled arena chunks (one warm-cache copy, no allocation), the
//     transmit vector and the kernel's retransmission queue reference
//     arena bytes in place, and the `sent` event condition's release
//     count — cumulative-ACK-driven — reclaims chunks. This is the
//     paper's §3.3 ownership contract ("may not be modified until the
//     sent event condition signals the peer's ACK") made explicit;
//   - recycles the kernel's read-only RX mbufs via batched recv_done
//     calls as soon as the handler returns.
package libix

import (
	"fmt"
	"time"

	"ix/internal/app"
	"ix/internal/core"
	"ix/internal/mem"
	"ix/internal/tcp"
	"ix/internal/wire"
)

// Tunables of the user-level library.
const (
	// MaxPendingSend is the per-connection pending-send byte limit.
	MaxPendingSend = 1 << 20
	// dispatchCost is the per-event user-level dispatch overhead.
	dispatchCost = 18 * time.Nanosecond
	// copyPerByte is the arena-append cost (ns/byte): the single
	// warm-cache copy of the message into the TX arena, the same copy
	// the pre-arena path charged for its libevent-compatibility buffer —
	// what the arena removes is the per-message heap allocation (a real
	// wall-clock cost, never part of the simulated cost model), so the
	// charge is unchanged.
	copyPerByte = 0.06
)

// Program adapts an app.Factory to the dataplane's UserProgram contract.
// Use it as core.Config.User.
func Program(factory app.Factory) func(api *core.UserAPI, thread, threads int) core.UserProgram {
	// One cookie table per dataplane, shared by every elastic thread's
	// program: kernel cookies must survive EvMigrated re-homing across
	// threads (the destination thread resolves the migrated flow's
	// cookie), and all threads of one host execute within a single
	// simulation shard, so the shared table needs no locking.
	tab := &tcp.CookieTable[conn]{}
	return func(api *core.UserAPI, thread, threads int) core.UserProgram {
		tab.Reserve(api.ExpectedConns())
		p := &program{
			api:     api,
			txchunk: api.TxChunks(),
			tab:     tab,
			first:   thread == 0,
		}
		p.handler = factory(p, thread, threads)
		p.sendReady, _ = p.handler.(app.SendReadyHandler)
		return p
	}
}

// program is the per-elastic-thread event loop.
type program struct {
	api     *core.UserAPI
	txchunk *mem.TxChunkPool
	handler app.Handler
	// sendReady is the handler's optional writable-again extension
	// (nil when not implemented).
	sendReady app.SendReadyHandler
	// tab is the dataplane-shared cookie table (see Program): every
	// return code and event resolves through it. first marks thread
	// 0's program, which accounts the table and every conn in it, so
	// the shared bytes are charged exactly once per host.
	tab   *tcp.CookieTable[conn]
	first bool
	// knocked are the connections accepted this Run. Events sharing an
	// RX batch with their knock precede the accept that attaches the
	// cookie, so they carry cookie 0 and resolve here by handle.
	knocked []*conn
	dirty   []*conn // connections with work to flush this round
	// waiters are connections whose send-ready condition is armed, in
	// registration order (delivery order is therefore deterministic).
	waiters []*conn
}

// conn is the user-level connection state: the zero-copy TX arena, the
// transmit vector over it, and receive recycling state.
type conn struct {
	p      *program
	handle uint64
	cookie any

	// arena holds the connection's outgoing bytes; txq entries and the
	// kernel's retransmission segments reference it in place. Released
	// by the sent event condition's cumulative-ACK count.
	arena mem.TxArena

	// Transmit vector: arena views not yet accepted by the kernel.
	// txHead is the consumption cursor. On full drain the backing is
	// released unless it is a single slot (the request-response steady
	// state, kept so the steady cycle stays allocation-free) — an idle
	// connection retains at most one entry of transmit state, which is
	// what keeps the Fig. 4 bytes/conn budget flat as the population
	// grows (DESIGN.md, "Per-connection memory budget"). txHead/txBytes
	// are int32: both are bounded by MaxPendingSend, and the narrower
	// fields pack the descriptor.
	txq     [][]byte
	txHead  int32
	txBytes int32

	// Receive recycling accumulated during this round; the batch issued
	// to recv_done is consumed within the same cycle and the backing is
	// released with it, so only connections with in-flight receives pin
	// recycle state.
	rdBufs  []*mem.Mbuf
	rdBytes int32

	// id is the connection's cookie-table id: its kernel cookie.
	id uint32

	issued  bool // a sendv is in the current batch
	stalled bool // last sendv was trimmed; wait for a sent event
	// closing: Close was called with bytes still in the txq; the close
	// syscall is deferred until the transmit vector drains, so queued
	// data reaches the wire ahead of the FIN.
	closing bool
	closed  bool
	// wantReady: the send-ready condition is armed (the conn sits in
	// p.waiters); blockedPool refines it — the short Send hit chunk-pool
	// exhaustion, so delivery also waits for the pool to reopen.
	wantReady   bool
	blockedPool bool
	inDirty     bool
}

var _ app.Conn = (*conn)(nil)

// Send appends b to the connection's TX arena and schedules a coalesced
// sendv over the arena views. No allocation happens: the bytes take one
// warm-cache copy into a pooled chunk and are then referenced in place
// by the transmit vector and, once transmitted, the kernel's
// retransmission queue — immutable until the sent event condition's
// release count passes them (the §3.3 ownership contract). Bytes beyond
// the pending-send limit (or an exhausted chunk pool) are dropped and
// reported short, pushing the buffering decision back to the
// application; only accepted bytes are charged.
//
//ix:hotpath
func (c *conn) Send(b []byte) int {
	if c.closed || c.closing {
		return 0
	}
	want := len(b)
	room := MaxPendingSend - int(c.txBytes)
	if room <= 0 {
		c.armSendReady(false)
		return 0
	}
	if len(b) > room {
		b = b[:room]
	}
	accepted := 0
	pool := false
	for len(b) > 0 {
		v := c.arena.Append(b)
		if len(v) == 0 {
			pool = true
			break // chunk pool exhausted: accept what we have
		}
		c.pushTx(v)
		accepted += len(v)
		b = b[len(v):]
	}
	if accepted < want {
		c.armSendReady(pool)
	}
	if accepted == 0 {
		return 0
	}
	c.p.api.Charge(time.Duration(float64(accepted) * copyPerByte))
	c.txBytes += int32(accepted)
	c.markDirty()
	return accepted
}

// pushTx appends an arena view to the transmit vector, merging it with
// the tail entry when contiguous (consecutive appends to one chunk), so
// small messages coalesce into single scatter-gather entries. The
// merged entry keeps the chunk-extending capacity TxChunk.Append hands
// out, so any number of consecutive views coalesce, not just pairs.
//
//ix:hotpath
func (c *conn) pushTx(v []byte) {
	if n := len(c.txq); n > int(c.txHead) {
		tail := c.txq[n-1]
		if len(tail) > 0 && cap(tail) >= len(tail)+len(v) {
			ext := tail[:len(tail)+len(v)]
			if &ext[len(tail)] == &v[0] {
				c.txq[n-1] = ext
				return
			}
		}
	}
	c.txq = append(c.txq, v)
}

// armSendReady arms the writable-again condition after a short Send; a
// no-op unless the thread's handler implements app.SendReadyHandler.
// pool marks that the shortfall came from chunk-pool exhaustion rather
// than the pending-send budget.
//
//ix:hotpath
func (c *conn) armSendReady(pool bool) {
	if pool {
		c.blockedPool = true
	}
	if c.p.sendReady == nil || c.wantReady {
		return
	}
	c.wantReady = true
	c.p.waiters = append(c.p.waiters, c)
}

// Unsent reports bytes not yet accepted by the dataplane.
func (c *conn) Unsent() int { return int(c.txBytes) }

// Close requests an orderly close after pending data drains: when the
// transmit vector still holds bytes, the close syscall — which would
// sequence the FIN at sndNxt, ahead of them — is deferred until the
// sent event condition drains the vector. Further writes are rejected.
func (c *conn) Close() {
	if c.closed || c.closing {
		return
	}
	if c.txBytes > 0 {
		c.closing = true
		return
	}
	c.closed = true
	c.p.api.Close(c.handle)
}

// finishClose issues the deferred close syscall once the transmit
// vector has fully drained.
func (c *conn) finishClose() {
	if !c.closing || c.closed || c.txBytes > 0 {
		return
	}
	c.closing = false
	c.closed = true
	c.p.api.Close(c.handle)
}

// Abort resets the connection immediately.
func (c *conn) Abort() {
	if c.closed {
		return
	}
	c.closing = false
	c.closed = true
	c.p.api.Abort(c.handle)
}

// Cookie returns the application tag.
func (c *conn) Cookie() any { return c.cookie }

// SetCookie tags the connection.
func (c *conn) SetCookie(v any) { c.cookie = v }

//ix:hotpath
func (c *conn) markDirty() {
	if !c.inDirty {
		c.inDirty = true
		c.p.dirty = append(c.p.dirty, c)
	}
}

// program implements app.Env.

// Now returns virtual nanoseconds.
func (p *program) Now() int64 { return p.api.Now() }

// Charge accounts application CPU time.
func (p *program) Charge(d time.Duration) { p.api.Charge(d) }

// Elapsed returns CPU time charged in the current cycle.
func (p *program) Elapsed() time.Duration { return p.api.Elapsed() }

// Thread returns the elastic thread index.
func (p *program) Thread() int { return p.api.Thread() }

// Listen binds this thread's stack to port.
func (p *program) Listen(port uint16) error { return p.api.Listen(port) }

// After schedules fn on the thread's timer service.
func (p *program) After(d time.Duration, fn func()) { p.api.After(d, fn) }

// newConn builds a connection with its arena wired to the thread pool
// and its cookie-table id granted.
func (p *program) newConn(handle uint64, cookie any) *conn {
	c := &conn{p: p, handle: handle, cookie: cookie}
	c.arena.Init(p.txchunk)
	c.id = uint32(p.tab.Grant(c))
	return c
}

// Connect initiates a connection; OnConnected reports the outcome.
func (p *program) Connect(dst wire.IPv4, port uint16, cookie any) error {
	c := p.newConn(0, cookie)
	p.api.Connect(uint64(c.id), dst, port)
	return nil
}

// Run is the ring-3 phase of the run-to-completion cycle: consume return
// codes, consume event conditions, run handlers, then coalesce and issue
// this round's batched system calls.
func (p *program) Run(api *core.UserAPI, events []core.Event, results []core.SyscallResult) {
	// 1. Return codes from the previous batch.
	for i := range results {
		p.processResult(&results[i])
	}
	// 2. Event conditions.
	for i := range events {
		p.processEvent(&events[i])
	}
	// 3. Writable-again deliveries: after results reopened pending-send
	// budgets and events released arena chunks, wake armed writers whose
	// shortfall has actually cleared (so every wake makes progress).
	if len(p.waiters) > 0 {
		p.fireSendReady()
	}
	// 4. Coalesced flush: one sendv per dirty connection, plus batched
	// recv_done recycling.
	for _, c := range p.dirty {
		c.inDirty = false
		if c.rdBytes > 0 || len(c.rdBufs) > 0 {
			api.RecvDone(c.handle, int(c.rdBytes), c.rdBufs)
			c.rdBytes = 0
			// The issued batch is consumed by the kernel phase of this
			// same cycle — before the next user round can append — so a
			// one-slot backing (the request-response steady state) is
			// reused in place and the steady cycle stays allocation-free.
			// Larger batch backings are released: an idle connection pins
			// at most one pointer slot of recycle state.
			if cap(c.rdBufs) > 1 {
				c.rdBufs = nil
			} else {
				c.rdBufs = c.rdBufs[:0]
			}
		}
		if c.txBytes > 0 && !c.issued && !c.stalled && !c.closed && c.handle != 0 {
			c.issued = true
			api.Sendv(c.handle, c.txq[c.txHead:])
		}
	}
	p.dirty = p.dirty[:0]
	clear(p.knocked)
	p.knocked = p.knocked[:0]
}

func (p *program) processResult(r *core.SyscallResult) {
	switch r.Type {
	case core.SysConnect:
		c := p.tab.Lookup(r.Cookie)
		if c == nil {
			return
		}
		if r.Err != nil {
			// The kernel also appends an EvConnected(false) condition for
			// a failed connect; that event — processed later this same
			// Run — delivers the single OnConnected callback and releases
			// the arena. Reporting here too would double the failure.
			return
		}
		c.handle = r.Handle
		// Outcome arrives via the connected event condition.
	case core.SysSendv:
		c := p.tab.Lookup(r.Cookie)
		if c == nil {
			return
		}
		c.issued = false
		accepted := r.N
		if r.Err != nil {
			accepted = 0
		}
		c.consumeTx(accepted)
		if c.txBytes > 0 {
			// Trimmed by the sliding window: wait for `sent` to
			// re-issue (§4.3).
			c.stalled = true
		}
		// A deferred orderly close fires once the vector drains.
		c.finishClose()
	}
}

// fireSendReady delivers the writable-again condition to armed writers
// whose shortfall cleared: pending-send budget reopened and — for
// pool-blocked writers — the thread's chunk pool can allocate again.
// Writers still blocked re-queue in order, so delivery stays FIFO and
// deterministic and no wake is a spin.
func (p *program) fireSendReady() {
	w := p.waiters
	p.waiters = nil
	for i, c := range w {
		w[i] = nil
		if c.p != p {
			// Migrated away mid-round; the new home re-armed it.
			continue
		}
		if c.closed || c.closing {
			c.wantReady = false
			c.blockedPool = false
			continue
		}
		if MaxPendingSend-c.txBytes <= 0 || (c.blockedPool && !p.txchunk.Ready()) {
			p.waiters = append(p.waiters, c)
			continue
		}
		c.wantReady = false
		c.blockedPool = false
		p.api.Charge(dispatchCost)
		p.sendReady.OnSendReady(c)
	}
}

func (c *conn) consumeTx(n int) {
	c.txBytes -= int32(n)
	if c.txBytes < 0 {
		c.txBytes = 0
	}
	head := int(c.txHead)
	for n > 0 && head < len(c.txq) {
		e := c.txq[head]
		if len(e) <= n {
			n -= len(e)
			c.txq[head] = nil
			head++
		} else {
			c.txq[head] = e[n:]
			n = 0
		}
	}
	if head == len(c.txq) {
		// Fully drained. A one-entry backing — the request-response
		// steady state, where contiguous views merge into a single
		// scatter-gather entry — is kept so the steady cycle stays
		// allocation-free; anything larger was grown by a bulk or
		// flow-controlled send and is released, bounding what an idle
		// connection retains to one slice header's backing.
		if cap(c.txq) > 1 {
			c.txq = nil
		} else {
			c.txq = c.txq[:0]
		}
		head = 0
	} else if head >= 32 && head*2 >= len(c.txq) {
		// A flow-controlled connection that never fully drains would
		// otherwise grow the dead prefix forever; compact the live
		// entries to the front.
		k := copy(c.txq, c.txq[head:])
		for i := k; i < len(c.txq); i++ {
			c.txq[i] = nil
		}
		c.txq = c.txq[:k]
		head = 0
	}
	c.txHead = int32(head)
}

func (p *program) processEvent(ev *core.Event) {
	p.api.Charge(dispatchCost)
	switch ev.Type {
	case core.EvKnock:
		c := p.newConn(ev.Handle, nil)
		p.knocked = append(p.knocked, c)
		// Accept with the conn's table id as kernel cookie so later
		// events resolve with one bounds-checked indexed load (the
		// Table 1 cookie design, minus the interface box).
		p.api.Accept(ev.Handle, uint64(c.id))
		p.handler.OnAccept(c)
	case core.EvConnected:
		c := p.resolve(ev)
		if c == nil {
			return
		}
		if !ev.Outcome {
			p.tab.Revoke(uint64(c.id))
			c.closed = true
			c.arena.ReleaseAll()
			p.handler.OnConnected(c, false)
			return
		}
		p.handler.OnConnected(c, true)
	case core.EvRecv:
		c := p.resolve(ev)
		if c == nil {
			// Connection vanished (e.g. aborted earlier in this batch);
			// still recycle the buffer.
			if ev.Mbuf != nil {
				ev.Mbuf.Unref()
			}
			return
		}
		p.handler.OnRecv(c, ev.Data)
		// Recycle as soon as the handler returns (copying semantics);
		// batched into one recv_done per round.
		c.rdBytes += int32(ev.Bytes)
		if ev.Mbuf != nil {
			c.rdBufs = append(c.rdBufs, ev.Mbuf)
		}
		c.markDirty()
	case core.EvSent:
		c := p.resolve(ev)
		if c == nil {
			return
		}
		// tx_sent: the ACK-driven reclamation step. The kernel dropped
		// its references to these arena bytes when the cumulative ACK
		// trimmed its retransmission queue; advance the release cursor,
		// returning drained chunks to the pool.
		if ev.Released > 0 {
			c.arena.Release(ev.Released)
		}
		if c.stalled && ev.Window > 0 {
			c.stalled = false
			if c.txBytes > 0 {
				c.markDirty()
			}
		}
		p.handler.OnSent(c, ev.Bytes)
	case core.EvEOF:
		c := p.resolve(ev)
		if c == nil {
			return
		}
		p.handler.OnEOF(c)
	case core.EvDead:
		c := p.resolve(ev)
		if c == nil {
			return
		}
		p.tab.Revoke(uint64(c.id))
		c.closed = true
		// The kernel dropped the connection's retransmission queue with
		// the flow; nothing references the arena any more.
		c.arena.ReleaseAll()
		// Recycle receive buffers still pending from this batch locally:
		// the handle is already revoked, so a recv_done for it would be
		// rejected before the kernel's own Unref loop ran (leaking the
		// delivery references taken for EvRecv).
		for _, b := range c.rdBufs {
			b.Unref()
		}
		c.rdBufs = nil
		c.rdBytes = 0
		p.handler.OnClosed(c)
	case core.EvTimer:
		if ev.Fn != nil {
			ev.Fn()
		}
	case core.EvMigrated:
		// The id resolves in the shared table regardless of which
		// thread's program granted it — the property that makes
		// cross-thread flow migration safe under compact cookies.
		c := p.tab.Lookup(ev.Cookie)
		if c == nil {
			return
		}
		// Re-home the connection: it now belongs to this thread's
		// program and namespace.
		if c.p != p {
			c.inDirty = false
		}
		c.p = p
		c.handle = ev.Handle
		c.issued = false
		if c.txBytes > 0 || c.rdBytes > 0 || len(c.rdBufs) > 0 {
			c.markDirty()
		}
		// An armed send-ready condition migrates with the connection:
		// the old program's waiter entry goes stale (c.p moved on) and
		// the new home registers its own.
		if c.wantReady {
			c.wantReady = false
			if p.sendReady != nil {
				c.armSendReady(c.blockedPool)
			} else {
				c.blockedPool = false
			}
		}
	}
}

// resolve finds the libix conn for an event via its cookie, or — for
// an event sharing its RX batch with the knock, before the accept gave
// the flow a cookie — by handle among this Run's knocked connections.
//
//ix:hotpath
func (p *program) resolve(ev *core.Event) *conn {
	if ev.Cookie != 0 {
		return p.tab.Lookup(ev.Cookie)
	}
	for _, c := range p.knocked {
		if c.handle == ev.Handle {
			return c
		}
	}
	return nil
}

// String aids debugging.
func (c *conn) String() string {
	return fmt.Sprintf("libix.conn(h=%#x pend=%d stalled=%v)", c.handle, c.txBytes, c.stalled)
}
