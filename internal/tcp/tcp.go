// Package tcp is a from-scratch TCP protocol engine playing the role lwIP
// played in IX (§4.2): RFC-style connection management (three-way
// handshake, sliding windows, retransmission with Jacobson RTT estimation
// and exponential backoff, fast retransmit, slow start and congestion
// avoidance, reassembly, FIN/RST teardown), restructured — as the paper
// describes — for per-core shared-nothing operation and fine-grained
// timer management.
//
// One Stack instance exists per elastic thread (or per kernel core for the
// baselines); instances share nothing. The engine is policy-free about
// execution: the embedding OS model supplies the clock, a timer wheel, an
// output function, and receives events through callbacks. Crucially for
// IX semantics:
//
//   - Sendv accepts only the bytes permitted by the congestion and peer
//     windows and transmits them immediately (the paper's "returns the
//     number of bytes that were accepted and sent by the TCP stack");
//     the application owns all send buffering policy.
//   - Received payload is delivered as zero-copy references into mbufs;
//     the receive window advances only when the application returns
//     buffers via RecvDone (the recv_done batched system call).
//   - Pure ACKs are emitted at Flush, called by the OS model at the end
//     of a processing batch — "the networking stack sends acknowledgments
//     to peers only as fast as the application can process them" (§3).
package tcp

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"ix/internal/mem"
	"ix/internal/timerwheel"
	"ix/internal/wire"
)

// State is a TCP connection state. The underlying type is a single
// byte so it packs into the Conn header's padding.
type State uint8

// TCP states.
const (
	StateClosed State = iota
	StateListen
	StateSynSent
	StateSynRcvd
	StateEstablished
	StateFinWait1
	StateFinWait2
	StateCloseWait
	StateClosing
	StateLastAck
	StateTimeWait
)

var stateNames = [...]string{
	"Closed", "Listen", "SynSent", "SynRcvd", "Established",
	"FinWait1", "FinWait2", "CloseWait", "Closing", "LastAck", "TimeWait",
}

func (s State) String() string { return stateNames[s] }

// Reason explains a dead event condition.
type Reason int

// Dead reasons (the `reason` parameter of the dead event in Table 1).
const (
	ReasonClosed  Reason = iota // orderly close completed
	ReasonReset                 // RST from peer
	ReasonTimeout               // retransmission limit exceeded
	ReasonRefused               // connect failed (RST to SYN)
)

func (r Reason) String() string {
	switch r {
	case ReasonClosed:
		return "closed"
	case ReasonReset:
		return "reset"
	case ReasonTimeout:
		return "timeout"
	case ReasonRefused:
		return "refused"
	}
	return "unknown"
}

// Events receives protocol events. The OS architecture model implements
// this to surface event conditions (Table 1) to applications.
type Events interface {
	// Knock reports a remotely initiated connection; returning false
	// rejects it with RST. (IX surfaces this as the knock event and the
	// app replies with an accept or close syscall.)
	Knock(l *Listener, key wire.FlowKey) bool
	// Accepted fires when a knocked connection completes the handshake.
	Accepted(c *Conn)
	// Connected fires when a locally initiated connection finishes
	// opening (outcome true) or fails (false).
	Connected(c *Conn, ok bool)
	// Recv delivers in-order payload as a zero-copy view into buf. The
	// receiver must Ref the buf if it holds it past the callback, and
	// the receive window stays closed until RecvDone returns the bytes.
	Recv(c *Conn, buf *mem.Mbuf, data []byte)
	// Sent fires when previously accepted bytes are acknowledged and/or
	// the usable send window grows (the sent event condition). released
	// is the payload-byte count of transmit segments this cumulative ACK
	// fully covered: the stack has dropped every reference to those
	// bytes, so the zero-copy sender may reclaim them (the ACK-driven
	// release hook of the tx arena). released never exceeds acked and
	// lags it while a segment is only partially acknowledged.
	Sent(c *Conn, acked, released int)
	// RemoteClosed fires when the peer sends FIN (half-close); the
	// usual response is to Close. libix maps it to an EOF-style event.
	RemoteClosed(c *Conn)
	// Dead fires when the connection terminates.
	Dead(c *Conn, reason Reason)
}

// Output is how the stack emits segments: the embedding layer prepends
// IP/Ethernet framing and hands the frame to its NIC queue. payload
// slices are owned by the application (zero-copy transmit) and must be
// treated as immutable. The payload slice-of-slices itself is a scratch
// the stack reuses across segments: Output must consume it before
// returning (all embeddings copy into a frame synchronously).
type Output func(c *Conn, hdr *wire.TCPHeader, payload [][]byte)

// Config parameterizes a Stack.
type Config struct {
	LocalIP wire.IPv4
	// Now returns virtual time in nanoseconds.
	Now func() int64
	// Wheel is the per-thread hierarchical timer wheel.
	Wheel *timerwheel.Wheel
	// Output emits an assembled segment.
	Output Output
	// Events receives protocol callbacks.
	Events Events
	// RcvWnd is the maximum receive window in bytes (default 256 KB).
	RcvWnd int
	// PortOK, if set, filters ephemeral port choices; IX client threads
	// use it to probe ports whose RSS hash (for the return direction of
	// the flow to dst:dport) lands on this thread's queue (§4.4: "we
	// simply probe the ephemeral port range").
	PortOK func(port uint16, dst wire.IPv4, dport uint16) bool
	// Seed initializes the ISS generator (deterministic).
	Seed uint64
	// MinRTO bounds the retransmission timeout from below. The paper
	// supports timeouts as low as 16 µs for incast; default 200 µs.
	MinRTO time.Duration
	// MaxRexmits is the retransmission limit before the connection dies
	// with ReasonTimeout (default 8).
	MaxRexmits int
	// TimeWait is the 2MSL quiet period (scaled down for simulation;
	// default 1 ms). The echo benchmarks avoid it with RST closes, as
	// in the paper.
	TimeWait time.Duration
	// SynBacklog bounds embryonic connections per listener (default 1024).
	SynBacklog int
	// ExpectedConns presizes the connection table for the anticipated
	// steady-state flow population (0 = grow on demand). Presizing
	// avoids the rehash/doubling churn of ramping to a large population
	// and keeps growth deterministic across shard counts.
	ExpectedConns int
	// DelAck, when positive, enables delayed acknowledgments: a pure
	// ACK for in-order data is deferred up to this long (or until a
	// second segment arrives, per RFC 1122), giving responses a chance
	// to piggyback it. The Linux baseline uses this; IX does not need
	// it — its ACKs are already paced by application progress (§3).
	DelAck time.Duration
}

// Default window/limits.
const (
	defaultRcvWnd  = 256 << 10
	defaultMinRTO  = 200 * time.Microsecond
	defaultRexmits = 8
	defaultTW      = time.Millisecond
	defaultBacklog = 1024
	initialRTO     = time.Millisecond
	// initialCwnd is IW10 in segments.
	initialCwnd = 10
	// wscale used on both directions (fixed shift covering 256 KB).
	wndShift = 3
)

// Stack is a shared-nothing TCP instance: one per elastic thread.
type Stack struct {
	cfg   Config
	conns map[wire.FlowKey]*Conn
	// listeners is keyed by local port.
	listeners map[uint16]*Listener
	needsAck  []*Conn
	isn       uint64
	nextPort  uint16
	// sg is the scratch scatter-gather array segments are assembled in
	// before their fragment references move into the txSeg; reused so
	// steady-state transmit does not allocate.
	sg [][]byte
	// hdr is the scratch header the hot emit paths fill: passing a
	// stack-local header into the dynamic Output func forces it to the
	// heap, one hidden allocation per segment. Emissions never nest
	// (Output copies into a frame and returns), so one scratch is safe.
	hdr wire.TCPHeader
	// txFree recycles txState objects between connections with data in
	// flight (LIFO, so the hot states stay cache-warm).
	txFree []*txState

	// Stats.
	SegsIn, SegsOut uint64
	// OutOfOrderSegs counts data segments that arrived ahead of rcvNxt
	// and entered reassembly. On a lossless fabric this stays zero unless
	// something — e.g. a buggy flow migration — reorders a flow's frames,
	// so migration tests assert on it directly.
	OutOfOrderSegs    uint64
	Retransmits       uint64
	FastRetransmits   uint64
	BadChecksums      uint64
	DroppedNoListener uint64
	AcceptedConns     uint64
	ActiveOpens       uint64
	// SynsAdmitted counts passive opens admitted through the batched
	// SYN path (their SYN-ACKs coalesce into the batch-boundary Flush).
	SynsAdmitted uint64
}

// NewStack builds a stack from cfg, applying defaults.
func NewStack(cfg Config) *Stack {
	if cfg.Now == nil || cfg.Wheel == nil || cfg.Output == nil || cfg.Events == nil {
		panic("tcp: Config requires Now, Wheel, Output and Events")
	}
	if cfg.RcvWnd <= 0 {
		cfg.RcvWnd = defaultRcvWnd
	}
	if cfg.MinRTO <= 0 {
		cfg.MinRTO = defaultMinRTO
	}
	if cfg.MaxRexmits <= 0 {
		cfg.MaxRexmits = defaultRexmits
	}
	if cfg.TimeWait <= 0 {
		cfg.TimeWait = defaultTW
	}
	if cfg.SynBacklog <= 0 {
		cfg.SynBacklog = defaultBacklog
	}
	return &Stack{
		cfg:       cfg,
		conns:     make(map[wire.FlowKey]*Conn, cfg.ExpectedConns),
		listeners: make(map[uint16]*Listener),
		isn:       cfg.Seed | 1,
		nextPort:  32768,
	}
}

// A Listener accepts connections on a local port.
type Listener struct {
	stack     *Stack
	Port      uint16
	embryonic int
}

// Listen starts accepting connections on port.
func (s *Stack) Listen(port uint16) (*Listener, error) {
	if _, dup := s.listeners[port]; dup {
		return nil, fmt.Errorf("tcp: port %d already listening", port)
	}
	l := &Listener{stack: s, Port: port}
	s.listeners[port] = l
	return l, nil
}

// ConnCount returns the number of live (non-TimeWait) connections, which
// the cost model uses for the DDIO working-set term.
func (s *Stack) ConnCount() int { return len(s.conns) }

// nextISS returns a deterministic initial send sequence.
func (s *Stack) nextISS() uint32 {
	s.isn = s.isn*6364136223846793005 + 1442695040888963407
	return uint32(s.isn >> 32)
}

// txSeg is one unacknowledged transmitted segment. It references the
// sender's bytes in place — (chunk, offset, len) references into the
// libix tx arena, or views into a kernel sndbuf for the baselines —
// rather than owning a copy: the zero-copy contract is that those bytes
// stay immutable until the segment is fully acknowledged and the
// reference dropped. The common segment is at most two fragments (one
// contiguous arena run, or one run spanning a chunk boundary), stored
// inline so tracking a segment does not allocate; pathological
// scatter-gather shapes spill to extra.
type txSeg struct {
	seq    uint32
	length int // payload bytes (SYN/FIN consume sequence space separately)
	fin    bool
	frag0  []byte
	frag1  []byte
	extra  [][]byte
	sentAt int64
	rexmit bool
}

// setPayload captures the fragment references of one assembled segment.
func (ts *txSeg) setPayload(sg [][]byte) {
	switch len(sg) {
	case 0:
	case 1:
		ts.frag0 = sg[0]
	case 2:
		ts.frag0, ts.frag1 = sg[0], sg[1]
	default:
		ts.frag0, ts.frag1 = sg[0], sg[1]
		ts.extra = append([][]byte(nil), sg[2:]...)
	}
}

// appendPayload appends the segment's fragment references to sg.
func (ts *txSeg) appendPayload(sg [][]byte) [][]byte {
	if ts.frag0 != nil {
		sg = append(sg, ts.frag0)
	}
	if ts.frag1 != nil {
		sg = append(sg, ts.frag1)
	}
	return append(sg, ts.extra...)
}

// retransInline is the txState inline segment capacity: steady
// request-response traffic keeps at most a couple of segments in
// flight, so the queue almost never needs heap backing. Loss bursts
// and deep pipelining spill to an ordinary slice, whose backing is
// dropped again the moment the queue drains.
const retransInline = 2

// txState is the retransmission queue of one connection with data in
// flight: a head-indexed ring over one backing array. The cumulative-ACK
// trim advances head (zeroing dropped segments so their payload
// references die); q aliases the inline array until a burst spills it.
// States are pooled per stack — a connection acquires one on first
// transmit and releases it whenever the queue drains, so the 250k idle
// connections of a Fig. 4 point carry no send-queue storage at all.
type txState struct {
	q    []txSeg
	head int
	inl  [retransInline]txSeg
}

// getTxState pops a pooled state (or builds the first).
func (s *Stack) getTxState() *txState {
	if n := len(s.txFree); n > 0 {
		t := s.txFree[n-1]
		s.txFree[n-1] = nil
		s.txFree = s.txFree[:n-1]
		return t
	}
	t := &txState{}
	t.q = t.inl[:0:retransInline]
	return t
}

// putTxState returns a drained (or dead) state to the pool. Re-aliasing
// q to the inline array drops any spilled backing — and with it every
// payload reference the backing still held — fixing the leak where a
// loss burst's spill capacity stayed pinned for the connection's
// lifetime. The inline array is zeroed for the same reason: a spill
// copies its contents aside but leaves stale fragment references behind.
func (s *Stack) putTxState(t *txState) {
	t.inl = [retransInline]txSeg{}
	t.q = t.inl[:0:retransInline]
	t.head = 0
	s.txFree = append(s.txFree, t)
}

// rxSeg is an out-of-order segment held for reassembly.
type rxSeg struct {
	seq  uint32
	data []byte
	buf  *mem.Mbuf
}

// Conn is a TCP connection. Fields are owned by the stack's thread.
type Conn struct {
	stack *Stack
	// key is the local view: SrcIP/SrcPort local, DstIP/DstPort remote.
	key   wire.FlowKey
	state State

	// Cookie is the user's opaque connection tag (Table 1). A compact
	// integer handle into the owner's connection table rather than an
	// interface box: 8 bytes inline, nothing to scan, nothing pinned.
	Cookie uint64
	// Handle is assigned by the OS layer (kernel-level flow identifier).
	Handle uint64

	// Send state. The retransmission queue lives in a pooled txState
	// side-object: idle connections (nothing in flight) hold none at
	// all, which is what keeps the Fig. 4 bytes/conn budget flat at
	// 250k+ connections — see DESIGN.md "Per-connection memory budget".
	iss        uint32
	sndUna     uint32
	sndNxt     uint32
	sndWnd     uint32 // peer-advertised, scaled
	peerWShift uint8
	finQueued  bool
	tx         *txState

	// Congestion control. dupAcks is uint16: one increment per received
	// duplicate ACK, reset on any advance, so it is bounded by the
	// segments a single flight can produce (window/MSS ≪ 64k).
	cwnd     uint32
	ssthresh uint32
	dupAcks  uint16
	// Loss recovery (NewReno, RFC 6582): while inRecovery, a partial ACK
	// (one below recoverSeq, the sndNxt at loss detection) means the
	// next hole is already known lost, so it is retransmitted
	// immediately instead of waiting out another full RTO — without this
	// a k-segment burst loss costs k serial timeouts, which at a 200 µs
	// MinRTO floor is exactly the incast collapse of §5.
	inRecovery bool
	recoverSeq uint32

	// RTT estimation.
	srtt, rttvar time.Duration
	rto          time.Duration
	rttSeq       uint32
	rttStart     int64
	rttPending   bool
	rexmitCount  uint16

	// Receive state. unconsumed and reasmBytes are bounded by the
	// receive window, so 32 bits hold them.
	rcvNxt     uint32
	unconsumed int32 // delivered to app, not yet RecvDone'd
	reasm      []rxSeg
	reasmBytes int32
	finRcvd    bool

	// Timers. Callbacks are package-level trampolines passed through
	// timerwheel.AddArg with the connection as the argument: a bound
	// method value like c.onRTO would allocate a closure per arming (the
	// RTO re-arms once per transmitted segment) or pin three per-conn
	// closures for the connection's lifetime if bound once at setup.
	rtoTimer *timerwheel.Timer
	twTimer  *timerwheel.Timer
	daTimer  *timerwheel.Timer
	daSegs   uint8 // in-order segments since last ACK sent (reset at 2)

	needAck bool
	// synAckOwed marks an admitted embryonic connection whose SYN-ACK
	// is owed to the next Flush (batched SYN admission).
	synAckOwed bool
	inAckLst   bool
	listener   *Listener
}

// Key returns the connection 4-tuple from the local perspective.
func (c *Conn) Key() wire.FlowKey { return c.key }

// State returns the connection state.
func (c *Conn) State() State { return c.state }

// LocalPort returns the local port.
func (c *Conn) LocalPort() uint16 { return c.key.SrcPort }

// RemoteIP returns the peer address.
func (c *Conn) RemoteIP() wire.IPv4 { return c.key.DstIP }

// mss returns the effective segment size.
func (c *Conn) mss() int { return wire.MSS }

// flight returns bytes in flight.
func (c *Conn) flight() uint32 { return c.sndNxt - c.sndUna }

// retransLen returns the number of tracked unacknowledged segments.
func (c *Conn) retransLen() int {
	if c.tx == nil {
		return 0
	}
	return len(c.tx.q) - c.tx.head
}

// usableWindow returns how many more payload bytes the windows permit.
func (c *Conn) usableWindow() int {
	wnd := c.sndWnd
	if c.cwnd < wnd {
		wnd = c.cwnd
	}
	fl := c.flight()
	if fl >= wnd {
		return 0
	}
	return int(wnd - fl)
}

// UsableWindow exposes the current usable send window (for the sent event
// condition's window_size parameter).
func (c *Conn) UsableWindow() int { return c.usableWindow() }

// rcvWndAvail computes the receive window to advertise: total minus bytes
// the application still holds (zero-copy flow control, §4.3).
func (c *Conn) rcvWndAvail() int {
	w := c.stack.cfg.RcvWnd - int(c.unconsumed) - int(c.reasmBytes)
	if w < 0 {
		w = 0
	}
	return w
}

// Connect initiates an active open to dst:port, returning the new
// connection in SynSent state. The Connected event reports the outcome.
// It is on the establishment fast path — the large Fig. 4 ramps open
// millions of connections through it — so beyond the connection object
// itself (newConn) it must not allocate: the table insert lands in
// presized buckets and the SYN is assembled in the stack's shared
// header scratch (TestZeroAllocConnEstablish pins this).
//
//ix:hotpath
func (s *Stack) Connect(dst wire.IPv4, port uint16, cookie uint64) (*Conn, error) {
	lp, err := s.allocPort(dst, port)
	if err != nil {
		return nil, err
	}
	c := s.newConn(wire.FlowKey{
		SrcIP: s.cfg.LocalIP, DstIP: dst,
		SrcPort: lp, DstPort: port,
		Proto: wire.ProtoTCP,
	})
	c.Cookie = cookie
	c.state = StateSynSent
	c.sndNxt = c.iss + 1
	s.conns[c.key] = c
	s.ActiveOpens++
	c.sendFlags(wire.TCPSyn, c.iss, 0, true)
	c.armRTO()
	return c, nil
}

var errPortSpaceExhausted = errors.New("tcp: ephemeral port space exhausted")

// allocPort picks an ephemeral port not in use for the destination,
// honoring the PortOK probe. The uniqueness probe is an establishment-path
// table lookup; the exhaustion error is hoisted so the probe loop itself
// never allocates.
//
//ix:hotpath
func (s *Stack) allocPort(dst wire.IPv4, dport uint16) (uint16, error) {
	for tries := 0; tries < 8192; tries++ {
		p := s.nextPort
		s.nextPort++
		if s.nextPort == 0 {
			// Recycle through the full user range (the p < 1024 guard
			// skips the reserved ports), not just 32768+: a shared-kernel
			// client host opening >32k connections to one destination
			// needs the widened ip_local_port_range, exactly as a real
			// load-generator host sets it. Allocation starts at 32768, so
			// runs that never exhaust the upper half are unaffected.
			s.nextPort = 1024
		}
		if p < 1024 {
			continue
		}
		k := wire.FlowKey{SrcIP: s.cfg.LocalIP, DstIP: dst, SrcPort: p, DstPort: dport, Proto: wire.ProtoTCP}
		if _, used := s.conns[k]; used {
			continue
		}
		if s.cfg.PortOK != nil && !s.cfg.PortOK(p, dst, dport) {
			continue
		}
		return p, nil
	}
	return 0, errPortSpaceExhausted
}

func (s *Stack) newConn(key wire.FlowKey) *Conn {
	c := &Conn{
		stack:    s,
		key:      key,
		iss:      s.nextISS(),
		cwnd:     uint32(initialCwnd * wire.MSS),
		ssthresh: 1 << 30,
		rto:      initialRTO,
	}
	c.sndUna = c.iss
	c.sndNxt = c.iss
	return c
}

// Timer trampolines: package-level functions, so arming a timer stores
// only the connection pointer (pointer-shaped any does not box).
func connRTO(v any)      { v.(*Conn).onRTO() }
func connTimeWait(v any) { v.(*Conn).onTimeWait() }
func connDelAck(v any)   { v.(*Conn).onDelAck() }

// Input processes one incoming TCP segment. seg is the TCP header+payload
// bytes; buf is the backing mbuf (retained by reassembly/delivery via
// refcounts); src/dst are the IP addresses. Invalid segments are counted
// and dropped. The connection-table demux here is both the per-message
// path and the establishment fast path (every handshake segment of a
// Fig. 4 ramp passes through it), so it must not allocate.
//
//ix:hotpath
func (s *Stack) Input(src, dst wire.IPv4, seg []byte, buf *mem.Mbuf) {
	if !wire.VerifyTCPChecksum(src, dst, seg) {
		s.BadChecksums++
		return
	}
	var hdr wire.TCPHeader
	off, err := hdr.Unmarshal(seg)
	if err != nil {
		s.BadChecksums++
		return
	}
	s.SegsIn++
	payload := seg[off:]
	key := wire.FlowKey{ // local view
		SrcIP: dst, DstIP: src,
		SrcPort: hdr.DstPort, DstPort: hdr.SrcPort,
		Proto: wire.ProtoTCP,
	}
	if c, ok := s.conns[key]; ok {
		c.input(&hdr, payload, buf)
		return
	}
	// No connection: a SYN may create one via a listener.
	if hdr.Flags&wire.TCPSyn != 0 && hdr.Flags&wire.TCPAck == 0 {
		if l, ok := s.listeners[hdr.DstPort]; ok {
			s.passiveOpen(l, key, &hdr)
			return
		}
	}
	s.DroppedNoListener++
	if hdr.Flags&wire.TCPRst == 0 {
		s.sendRST(key, &hdr, len(payload))
	}
}

// passiveOpen handles SYN to a listener. The SYN-ACK is not emitted here
// but owed to the next Flush — batched SYN admission: a burst of SYNs
// arriving in one processing batch is admitted as a group, with every
// handshake reply assembled back-to-back through the stack's shared
// header scratch at the batch boundary (where pure ACKs already leave).
// The retransmission timer armed here covers the reply either way.
// Beyond the connection object itself (newConn) the SYN-accept path must
// not allocate: the table insert lands in presized buckets
// (TestZeroAllocConnEstablish pins the whole passive handshake).
//
//ix:hotpath
func (s *Stack) passiveOpen(l *Listener, key wire.FlowKey, hdr *wire.TCPHeader) {
	if l.embryonic >= s.cfg.SynBacklog {
		return // silently drop: SYN backlog full
	}
	if !s.cfg.Events.Knock(l, key) {
		s.sendRST(key, hdr, 0)
		return
	}
	c := s.newConn(key)
	c.listener = l
	c.state = StateSynRcvd
	c.rcvNxt = hdr.Seq + 1
	c.applyPeerOptions(hdr)
	c.sndNxt = c.iss + 1
	s.conns[key] = c
	l.embryonic++
	s.SynsAdmitted++
	c.scheduleSynAck()
	c.armRTO()
}

func (c *Conn) applyPeerOptions(hdr *wire.TCPHeader) {
	if hdr.WScale >= 0 {
		c.peerWShift = uint8(hdr.WScale)
	}
	w := uint32(hdr.Window)
	if hdr.Flags&wire.TCPSyn != 0 {
		// Window in SYN is unscaled.
		c.sndWnd = w
	} else {
		c.sndWnd = w << c.peerWShift
	}
}

// input runs the per-connection state machine on one segment.
func (c *Conn) input(hdr *wire.TCPHeader, payload []byte, buf *mem.Mbuf) {
	s := c.stack
	// RST processing first.
	if hdr.Flags&wire.TCPRst != 0 {
		if c.state == StateSynSent {
			c.destroy(ReasonRefused)
		} else {
			c.destroy(ReasonReset)
		}
		return
	}
	switch c.state {
	case StateSynSent:
		if hdr.Flags&(wire.TCPSyn|wire.TCPAck) == wire.TCPSyn|wire.TCPAck {
			if hdr.Ack != c.iss+1 {
				s.sendRST(c.key, hdr, len(payload))
				c.destroy(ReasonRefused)
				return
			}
			c.rcvNxt = hdr.Seq + 1
			c.sndUna = hdr.Ack
			c.applyPeerOptions(hdr)
			c.state = StateEstablished
			c.cancelRTO()
			c.scheduleAck() // the handshake ACK
			s.cfg.Events.Connected(c, true)
		}
		return
	case StateSynRcvd:
		if hdr.Flags&wire.TCPAck != 0 && hdr.Ack == c.iss+1 {
			c.sndUna = hdr.Ack
			c.applyPeerOptions(hdr)
			c.state = StateEstablished
			c.cancelRTO()
			if c.listener != nil {
				c.listener.embryonic--
			}
			s.AcceptedConns++
			s.cfg.Events.Accepted(c)
			// Fall through: the ACK may carry data.
		} else {
			return
		}
	}

	// A retransmitted SYN or SYN-ACK arriving on a synchronized
	// connection means the peer missed our handshake ACK: answer with an
	// immediate ACK (RFC 793 §3.9) so its handshake can complete. Without
	// this the peer re-sends SYN-ACKs into silence until its
	// retransmission limit kills the embryonic connection.
	if hdr.Flags&wire.TCPSyn != 0 {
		c.sendAckNow()
		return
	}

	// ACK processing for synchronized states.
	if hdr.Flags&wire.TCPAck != 0 {
		c.processAck(hdr)
		if c.state == StateClosed {
			return
		}
	}
	// Data processing.
	if len(payload) > 0 {
		c.processData(hdr.Seq, payload, buf)
	}
	// FIN processing.
	if hdr.Flags&wire.TCPFin != 0 {
		c.processFin(hdr.Seq + uint32(len(payload)))
	}
}

// processAck handles acknowledgement and window updates.
func (c *Conn) processAck(hdr *wire.TCPHeader) {
	s := c.stack
	ack := hdr.Ack
	prevUsable := c.usableWindow()
	c.applyPeerOptions(hdr)
	switch {
	case seqGT(ack, c.sndNxt):
		// Acks data never sent: protocol violation; answer with ACK.
		c.scheduleAck()
		return
	case seqLE(ack, c.sndUna):
		// Duplicate ACK.
		if c.flight() > 0 && seqDiff(c.sndNxt, c.sndUna) > 0 {
			c.dupAcks++
			if c.dupAcks == 3 {
				c.fastRetransmit()
			}
		}
		// A pure window update acks nothing new but may reopen a
		// closed window: fire the sent event so data held above the
		// engine (socket sndbuf, libix txq) flushes instead of stalling.
		if ack == c.sndUna && c.usableWindow() > prevUsable {
			s.cfg.Events.Sent(c, 0, 0)
		}
	default:
		acked := int(seqDiff(ack, c.sndUna))
		c.sndUna = ack
		c.dupAcks = 0
		c.rexmitCount = 0
		released := c.ackRetransQ(ack)
		c.updateRTT(ack)
		c.growCwnd(uint32(acked))
		if c.inRecovery {
			if seqLT(ack, c.recoverSeq) && c.retransLen() > 0 {
				// Partial ACK: retransmit the next hole now.
				c.stack.Retransmits++
				c.resend(&c.tx.q[c.tx.head])
			} else {
				c.inRecovery = false
			}
		}
		if c.retransLen() == 0 {
			c.cancelRTO()
		} else {
			c.armRTO()
		}
		// sent event condition: bytes acked and/or window growth.
		if acked > 0 || c.usableWindow() > prevUsable {
			s.cfg.Events.Sent(c, acked, released)
		}
		c.maybeFinish(ack)
	}
}

// ackRetransQ drops fully acknowledged segments, zeroing their entries
// so the zero-copy payload references die with them, and returns the
// payload bytes released — the count the sent event condition carries
// so the sender's arena can reclaim (tx_sent). The trim advances the
// ring head; a fully drained queue releases its whole txState back to
// the stack pool, so an idle connection holds no send-queue storage
// (and a loss burst's spilled backing cannot outlive the burst).
func (c *Conn) ackRetransQ(ack uint32) int {
	t := c.tx
	if t == nil {
		return 0
	}
	released := 0
	for t.head < len(t.q) {
		ts := &t.q[t.head]
		end := ts.seq + uint32(ts.length)
		if ts.fin {
			end++
		}
		if seqGT(end, ack) {
			break
		}
		released += ts.length
		*ts = txSeg{}
		t.head++
	}
	if t.head == len(t.q) {
		c.stack.putTxState(t)
		c.tx = nil
	} else if t.head >= 32 && t.head*2 >= len(t.q) {
		// A connection that always keeps a segment in flight never hits
		// the empty reset; compact the live suffix to the front so the
		// dead prefix cannot grow with connection lifetime.
		n := copy(t.q, t.q[t.head:])
		for i := n; i < len(t.q); i++ {
			t.q[i] = txSeg{} // drop duplicated payload references
		}
		t.q = t.q[:n]
		t.head = 0
	}
	return released
}

// updateRTT takes an RTT sample if the timed segment was acked and was
// never retransmitted (Karn's rule), then recomputes the RTO.
func (c *Conn) updateRTT(ack uint32) {
	if !c.rttPending || seqLT(ack, c.rttSeq) {
		return
	}
	c.rttPending = false
	sample := time.Duration(c.stack.cfg.Now() - c.rttStart)
	if sample <= 0 {
		return
	}
	if c.srtt == 0 {
		c.srtt = sample
		c.rttvar = sample / 2
	} else {
		delta := c.srtt - sample
		if delta < 0 {
			delta = -delta
		}
		c.rttvar = (3*c.rttvar + delta) / 4
		c.srtt = (7*c.srtt + sample) / 8
	}
	c.rto = c.srtt + 4*c.rttvar
	if c.rto < c.stack.cfg.MinRTO {
		c.rto = c.stack.cfg.MinRTO
	}
}

// growCwnd applies slow start or congestion avoidance.
func (c *Conn) growCwnd(acked uint32) {
	mss := uint32(c.mss())
	if c.cwnd < c.ssthresh {
		// Slow start: grow by bytes acked (ABC).
		if acked > mss {
			acked = mss
		}
		c.cwnd += acked
	} else {
		// Congestion avoidance: ~1 MSS per RTT.
		inc := mss * mss / c.cwnd
		if inc == 0 {
			inc = 1
		}
		c.cwnd += inc
	}
}

// fastRetransmit reacts to triple duplicate ACKs.
func (c *Conn) fastRetransmit() {
	if c.retransLen() == 0 {
		return
	}
	if c.inRecovery {
		// NewReno re-entry guard (RFC 6582): dup ACKs arriving during
		// recovery belong to the same loss window — the partial-ACK
		// path already retransmits the holes; halving cwnd again would
		// collapse it once per hole.
		return
	}
	c.stack.FastRetransmits++
	mss := uint32(c.mss())
	fl := c.flight()
	half := fl / 2
	if half < 2*mss {
		half = 2 * mss
	}
	c.ssthresh = half
	c.cwnd = c.ssthresh
	c.inRecovery = true
	c.recoverSeq = c.sndNxt
	c.resend(&c.tx.q[c.tx.head])
	c.armRTO()
}

// processData handles payload: in-order delivery plus bounded reassembly.
func (c *Conn) processData(seq uint32, payload []byte, buf *mem.Mbuf) {
	if c.state != StateEstablished && c.state != StateFinWait1 && c.state != StateFinWait2 {
		return
	}
	end := seq + uint32(len(payload))
	if seqLE(end, c.rcvNxt) {
		// Entirely old: re-ACK.
		c.scheduleAck()
		return
	}
	if seqLT(seq, c.rcvNxt) {
		// Partial overlap: trim the old prefix.
		drop := seqDiff(c.rcvNxt, seq)
		payload = payload[drop:]
		seq = c.rcvNxt
	}
	wnd := uint32(c.rcvWndAvail())
	if !seqInWindow(seq, c.rcvNxt, wnd+1) {
		// Beyond our window: drop, re-ACK (window probe handling).
		c.scheduleAck()
		return
	}
	if avail := seqDiff(c.rcvNxt+wnd, seq+uint32(len(payload))); avail < 0 {
		payload = payload[:len(payload)+int(avail)]
	}
	if len(payload) == 0 {
		c.scheduleAck()
		return
	}
	if seq == c.rcvNxt {
		c.deliver(payload, buf)
		c.drainReasm()
		c.scheduleDataAck()
	} else {
		c.stack.OutOfOrderSegs++
		c.insertReasm(seq, payload, buf)
		// RFC 5681: an out-of-order segment generates an immediate
		// duplicate ACK so the sender's fast retransmit can count it —
		// it must not be coalesced with other ACKs at Flush.
		c.sendAckNow()
	}
}

// sendAckNow emits a pure ACK immediately (duplicate ACKs for loss
// recovery must not be batched).
func (c *Conn) sendAckNow() {
	c.cancelDelAck()
	c.needAck = false
	hdr := &c.stack.hdr
	*hdr = c.makeHeader(c.sndNxt, wire.TCPAck)
	c.stack.emit(c, hdr, nil)
}

// deliver hands in-order bytes to the application (zero-copy) and
// advances rcvNxt; the window shrinks until RecvDone.
func (c *Conn) deliver(payload []byte, buf *mem.Mbuf) {
	c.rcvNxt += uint32(len(payload))
	c.unconsumed += int32(len(payload))
	c.stack.cfg.Events.Recv(c, buf, payload)
}

// insertReasm stores an out-of-order segment (bounded queue, sorted).
func (c *Conn) insertReasm(seq uint32, payload []byte, buf *mem.Mbuf) {
	const maxReasm = 64
	if len(c.reasm) >= maxReasm {
		return
	}
	for _, rs := range c.reasm {
		if rs.seq == seq {
			return // duplicate
		}
	}
	if buf != nil {
		buf.Ref()
	}
	ins := rxSeg{seq: seq, data: payload, buf: buf}
	pos := len(c.reasm)
	for i, rs := range c.reasm {
		if seqLT(seq, rs.seq) {
			pos = i
			break
		}
	}
	c.reasm = append(c.reasm, rxSeg{})
	copy(c.reasm[pos+1:], c.reasm[pos:])
	c.reasm[pos] = ins
	c.reasmBytes += int32(len(payload))
}

// drainReasm delivers now-in-order segments from the reassembly queue.
func (c *Conn) drainReasm() {
	for len(c.reasm) > 0 {
		rs := c.reasm[0]
		if seqGT(rs.seq, c.rcvNxt) {
			return
		}
		c.reasm = c.reasm[1:]
		c.reasmBytes -= int32(len(rs.data))
		data := rs.data
		if seqLT(rs.seq, c.rcvNxt) {
			drop := seqDiff(c.rcvNxt, rs.seq)
			if int(drop) >= len(data) {
				if rs.buf != nil {
					rs.buf.Unref()
				}
				continue
			}
			data = data[drop:]
		}
		c.deliver(data, rs.buf)
		if rs.buf != nil {
			rs.buf.Unref() // deliver took its own semantics; see Recv contract
		}
	}
	// Fully drained: drop the backing. Reordering is the exception on
	// this fabric, so holding a burst's worth of rxSeg capacity on every
	// connection that ever saw one would bleed the bytes/conn budget.
	c.reasm = nil
}

// processFin handles a peer FIN at sequence finSeq.
func (c *Conn) processFin(finSeq uint32) {
	if seqGT(finSeq, c.rcvNxt) {
		// FIN beyond in-order point (data missing): ignore; peer will
		// retransmit.
		return
	}
	if c.finRcvd {
		c.scheduleAck()
		return
	}
	c.finRcvd = true
	c.rcvNxt = finSeq + 1
	c.scheduleAck()
	switch c.state {
	case StateEstablished:
		c.state = StateCloseWait
		c.stack.cfg.Events.RemoteClosed(c)
	case StateFinWait1:
		c.state = StateClosing
	case StateFinWait2:
		c.enterTimeWait()
	}
}

// maybeFinish advances closing states once our FIN is acked.
func (c *Conn) maybeFinish(ack uint32) {
	finAcked := c.finQueued && c.retransLen() == 0 && ack == c.sndNxt
	switch c.state {
	case StateFinWait1:
		if finAcked {
			if c.finRcvd {
				c.enterTimeWait()
			} else {
				c.state = StateFinWait2
			}
		}
	case StateClosing:
		if finAcked {
			c.enterTimeWait()
		}
	case StateLastAck:
		if finAcked {
			c.destroy(ReasonClosed)
		}
	}
}

func (c *Conn) enterTimeWait() {
	c.state = StateTimeWait
	c.cancelRTO()
	w := c.stack.cfg.Wheel
	c.twTimer = w.AddArg(c.stack.cfg.Now()+int64(c.stack.cfg.TimeWait), connTimeWait, c)
}

// onTimeWait ends the 2MSL quiet period.
func (c *Conn) onTimeWait() {
	c.twTimer = nil
	c.destroy(ReasonClosed)
}

// Sendv transmits a scatter-gather array. It accepts and immediately
// segments as many bytes as the usable window allows, returning that
// count (possibly zero): the IX sendv contract, which leaves send
// buffering policy to the application. The payload slices must remain
// immutable until acknowledged (the zero-copy contract of §4.5).
//
//ix:hotpath
func (c *Conn) Sendv(bufs [][]byte) int {
	if c.state != StateEstablished && c.state != StateCloseWait {
		return 0
	}
	budget := c.usableWindow()
	if budget <= 0 {
		return 0
	}
	total := 0
	mss := c.mss()
	// Assemble MSS-sized segments from the scatter-gather array in the
	// stack's reusable scratch; sendData moves the fragment references
	// into the tracked segment, so the scratch recycles per segment.
	seg := c.stack.sg[:0]
	segLen := 0
	//ixvet:ignore(hotpath) closure never escapes: called only below, so it stays on the stack (TestZeroAllocSteadySend pins it)
	flush := func() {
		if segLen == 0 {
			return
		}
		c.sendData(seg, segLen)
		seg = seg[:0]
		segLen = 0
	}
	for _, b := range bufs {
		for len(b) > 0 && budget > 0 {
			take := len(b)
			if take > mss-segLen {
				take = mss - segLen
			}
			if take > budget {
				take = budget
			}
			seg = append(seg, b[:take])
			segLen += take
			total += take
			budget -= take
			b = b[take:]
			if segLen == mss {
				flush()
			}
		}
		if budget <= 0 {
			break
		}
	}
	flush()
	c.stack.sg = seg[:0]
	return total
}

// Send is a convenience wrapper over Sendv for a single buffer.
func (c *Conn) Send(b []byte) int { return c.Sendv([][]byte{b}) }

// sendData emits one data segment and tracks it for retransmission.
// payload is caller scratch: the fragment references are captured into
// the tracked segment, which owns them until the cumulative ACK passes.
//
//ix:hotpath
func (c *Conn) sendData(payload [][]byte, length int) {
	seq := c.sndNxt
	c.sndNxt += uint32(length)
	ts := txSeg{seq: seq, length: length, sentAt: c.stack.cfg.Now()}
	ts.setPayload(payload)
	if c.tx == nil {
		c.tx = c.stack.getTxState()
	}
	c.tx.q = append(c.tx.q, ts)
	if !c.rttPending {
		c.rttPending = true
		c.rttSeq = c.sndNxt
		c.rttStart = ts.sentAt
	}
	hdr := &c.stack.hdr
	*hdr = c.makeHeader(seq, wire.TCPAck|wire.TCPPsh)
	c.needAck = false // piggybacked
	c.cancelDelAck()
	c.stack.emit(c, hdr, payload)
	c.armRTO()
}

// Close initiates an orderly close (FIN). Further sends are rejected.
func (c *Conn) Close() {
	switch c.state {
	case StateEstablished:
		c.state = StateFinWait1
	case StateCloseWait:
		c.state = StateLastAck
	case StateSynSent, StateSynRcvd:
		c.Abort()
		return
	default:
		return
	}
	c.sendFIN()
}

// Abort closes with RST (used by the benchmarks to avoid exhausting
// ephemeral ports, as in §5.3) and destroys the connection immediately.
func (c *Conn) Abort() {
	if c.state == StateClosed {
		return
	}
	hdr := c.makeHeader(c.sndNxt, wire.TCPRst|wire.TCPAck)
	c.stack.emit(c, &hdr, nil)
	c.destroy(ReasonClosed)
}

func (c *Conn) sendFIN() {
	c.finQueued = true
	seq := c.sndNxt
	c.sndNxt++
	if c.tx == nil {
		c.tx = c.stack.getTxState()
	}
	c.tx.q = append(c.tx.q, txSeg{seq: seq, fin: true, sentAt: c.stack.cfg.Now()})
	hdr := c.makeHeader(seq, wire.TCPFin|wire.TCPAck)
	c.needAck = false
	c.cancelDelAck()
	c.stack.emit(c, &hdr, nil)
	c.armRTO()
}

// RecvDone returns n received bytes to the stack, reopening the receive
// window (the recv_done batched system call: "advances the receive window
// and frees memory buffers"). A window-update ACK is scheduled only when
// the window had shrunk enough for the peer to have throttled (growth of
// at least one MSS from below a quarter of the full window), avoiding a
// gratuitous pure ACK per application read.
func (c *Conn) RecvDone(n int) {
	prev := c.rcvWndAvail()
	c.unconsumed -= int32(n)
	if c.unconsumed < 0 {
		c.unconsumed = 0
	}
	now := c.rcvWndAvail()
	if prev < c.stack.cfg.RcvWnd/4 && now-prev >= c.mss() {
		c.scheduleAck()
	}
}

// makeHeader builds a header for the current state.
func (c *Conn) makeHeader(seq uint32, flags uint8) wire.TCPHeader {
	wnd := c.rcvWndAvail() >> wndShift
	if wnd > 0xffff {
		wnd = 0xffff
	}
	return wire.TCPHeader{
		SrcPort: c.key.SrcPort,
		DstPort: c.key.DstPort,
		Seq:     seq,
		Ack:     c.rcvNxt,
		Flags:   flags,
		Window:  uint16(wnd),
		WScale:  -1,
	}
}

// sendFlags emits a control segment (SYN, SYN|ACK) with options, through
// the stack's header scratch (emissions never nest, and a burst of
// admitted SYNs reuses the one header across its coalesced SYN-ACKs).
func (c *Conn) sendFlags(flags uint8, seq, ack uint32, withOpts bool) {
	wnd := c.rcvWndAvail()
	hdr := &c.stack.hdr
	*hdr = wire.TCPHeader{
		SrcPort: c.key.SrcPort,
		DstPort: c.key.DstPort,
		Seq:     seq,
		Ack:     ack,
		Flags:   flags,
		WScale:  -1,
	}
	if withOpts {
		hdr.MSS = uint16(c.mss())
		hdr.WScale = wndShift
		// SYN windows are unscaled.
		if wnd > 0xffff {
			wnd = 0xffff
		}
		hdr.Window = uint16(wnd)
	} else {
		w := wnd >> wndShift
		if w > 0xffff {
			w = 0xffff
		}
		hdr.Window = uint16(w)
	}
	c.stack.emit(c, hdr, nil)
	// SYN and SYN|ACK retransmission is driven by connection state in
	// onRTO rather than the retransmission queue.
}

// scheduleSynAck marks an admitted embryonic connection as owing its
// SYN-ACK at the next Flush, on the same pending list pure ACKs use.
func (c *Conn) scheduleSynAck() {
	c.synAckOwed = true
	if !c.inAckLst {
		c.inAckLst = true
		c.stack.needsAck = append(c.stack.needsAck, c)
	}
}

// scheduleAck marks the connection as owing a pure ACK at the next Flush
// (immediately — used for handshakes, duplicates, out-of-order data and
// probes).
func (c *Conn) scheduleAck() {
	c.cancelDelAck()
	c.needAck = true
	if !c.inAckLst {
		c.inAckLst = true
		c.stack.needsAck = append(c.stack.needsAck, c)
	}
}

// scheduleDataAck acknowledges in-order data: immediately when delayed
// ACKs are off or every second segment, otherwise after the delack
// timeout — unless a data segment piggybacks it first.
func (c *Conn) scheduleDataAck() {
	da := c.stack.cfg.DelAck
	if da <= 0 {
		c.scheduleAck()
		return
	}
	c.daSegs++
	if c.daSegs >= 2 {
		c.scheduleAck()
		return
	}
	if c.daTimer == nil {
		c.daTimer = c.stack.cfg.Wheel.AddArg(c.stack.cfg.Now()+int64(da), connDelAck, c)
	}
}

// onDelAck fires the delayed-acknowledgment timeout.
func (c *Conn) onDelAck() {
	c.daTimer = nil
	if c.state != StateClosed {
		c.scheduleAck()
	}
}

func (c *Conn) cancelDelAck() {
	c.daSegs = 0
	if c.daTimer != nil {
		c.stack.cfg.Wheel.Cancel(c.daTimer)
		c.daTimer = nil
	}
}

// Flush emits pending pure ACKs — and the SYN-ACKs of the batch's
// admitted SYNs — at the end of each input batch, so acknowledgment
// pacing follows application progress (§3) and handshake replies leave
// as one coalesced group.
func (s *Stack) Flush() {
	for _, c := range s.needsAck {
		c.inAckLst = false
		if c.synAckOwed {
			c.synAckOwed = false
			if c.state == StateSynRcvd {
				c.sendFlags(wire.TCPSyn|wire.TCPAck, c.iss, c.rcvNxt, true)
			}
			continue
		}
		if c.needAck && c.state != StateClosed {
			c.needAck = false
			c.daSegs = 0
			hdr := &s.hdr
			*hdr = c.makeHeader(c.sndNxt, wire.TCPAck)
			s.emit(c, hdr, nil)
		}
	}
	s.needsAck = s.needsAck[:0]
}

// emit sends a segment through the configured output.
func (s *Stack) emit(c *Conn, hdr *wire.TCPHeader, payload [][]byte) {
	s.SegsOut++
	s.cfg.Output(c, hdr, payload)
}

// sendRST answers an unexpected segment with RST. key is the *local*
// view of the flow the RST responds to.
func (s *Stack) sendRST(key wire.FlowKey, in *wire.TCPHeader, payloadLen int) {
	hdr := wire.TCPHeader{
		SrcPort: key.SrcPort,
		DstPort: key.DstPort,
		Flags:   wire.TCPRst | wire.TCPAck,
		Ack:     in.Seq + uint32(payloadLen),
		WScale:  -1,
	}
	if in.Flags&wire.TCPSyn != 0 {
		hdr.Ack++
	}
	if in.Flags&wire.TCPAck != 0 {
		hdr.Seq = in.Ack
	}
	s.SegsOut++
	s.cfg.Output(&Conn{stack: s, key: key, state: StateClosed}, &hdr, nil)
}

// Migrate moves connection c from its current stack to dst (same host,
// different elastic thread), re-homing its retransmission timer. It is
// the mechanism behind control-plane flow re-balancing when elastic
// threads are added or removed (§4.4: "when a core is revoked ... the
// corresponding network flows must be assigned to another elastic
// thread"). The caller is responsible for quiescence (no in-flight
// processing of this flow), which the run-to-completion model provides
// between cycles.
func (s *Stack) Migrate(c *Conn, dst *Stack) {
	if c.stack != s || dst == s {
		return
	}
	// Re-home pending timers, preserving their original deadlines (timer
	// continuity): a retransmission, TIME_WAIT or delayed-ACK deadline
	// set before the migration fires at the same virtual time on the
	// destination wheel. Fired/cancelled timers are dropped.
	for _, t := range []**timerwheel.Timer{&c.rtoTimer, &c.twTimer, &c.daTimer} {
		if *t != nil && !s.cfg.Wheel.Transfer(*t, dst.cfg.Wheel) {
			*t = nil
		}
	}
	if c.inAckLst {
		// Drop from our pending-ACK list; re-add on destination.
		for i, pc := range s.needsAck {
			if pc == c {
				s.needsAck = append(s.needsAck[:i], s.needsAck[i+1:]...)
				break
			}
		}
		c.inAckLst = false
	}
	// An owed SYN-ACK migrates with the connection (embryonic
	// connections are not normally migrated, but the owed reply must
	// not be lost if one is).
	reownSynAck := c.synAckOwed
	delete(s.conns, c.key)
	c.stack = dst
	dst.conns[c.key] = c
	if c.rtoTimer == nil && c.state != StateTimeWait && c.retransLen() > 0 {
		// Unacked data without a live timer (should not happen, but a
		// lost RTO would hang the flow forever): re-arm defensively.
		c.armRTO()
	}
	if c.needAck || reownSynAck {
		c.inAckLst = true
		dst.needsAck = append(dst.needsAck, c)
	}
}

// Conns returns the live connections (any state), for control-plane
// rebalancing sweeps. The slice is freshly allocated and sorted by flow
// key: migration walks it, and a map-iteration order here would leak
// into handle numbering and event order, breaking run-to-run
// determinism.
func (s *Stack) Conns() []*Conn {
	out := make([]*Conn, 0, len(s.conns))
	for _, c := range s.conns {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].key, out[j].key
		if a.SrcIP != b.SrcIP {
			return a.SrcIP < b.SrcIP
		}
		if a.DstIP != b.DstIP {
			return a.DstIP < b.DstIP
		}
		if a.SrcPort != b.SrcPort {
			return a.SrcPort < b.SrcPort
		}
		if a.DstPort != b.DstPort {
			return a.DstPort < b.DstPort
		}
		return a.Proto < b.Proto
	})
	return out
}

// armRTO (re)arms the retransmission timer.
func (c *Conn) armRTO() {
	c.cancelRTO()
	deadline := c.stack.cfg.Now() + int64(c.rto)
	c.rtoTimer = c.stack.cfg.Wheel.AddArg(deadline, connRTO, c)
}

func (c *Conn) cancelRTO() {
	if c.rtoTimer != nil {
		c.stack.cfg.Wheel.Cancel(c.rtoTimer)
		c.rtoTimer = nil
	}
}

// onRTO fires the retransmission timeout.
func (c *Conn) onRTO() {
	c.rtoTimer = nil
	if c.state == StateClosed || c.state == StateTimeWait {
		return
	}
	c.rexmitCount++
	if int(c.rexmitCount) > c.stack.cfg.MaxRexmits {
		c.destroy(ReasonTimeout)
		return
	}
	c.stack.Retransmits++
	// Exponential backoff; collapse cwnd (Tahoe-style on timeout).
	c.rto *= 2
	if c.rto > 4*time.Second {
		c.rto = 4 * time.Second
	}
	mss := uint32(c.mss())
	half := c.flight() / 2
	if half < 2*mss {
		half = 2 * mss
	}
	c.ssthresh = half
	c.cwnd = mss
	c.rttPending = false // Karn
	switch c.state {
	case StateSynSent:
		c.sendFlags(wire.TCPSyn, c.iss, 0, true)
	case StateSynRcvd:
		c.sendFlags(wire.TCPSyn|wire.TCPAck, c.iss, c.rcvNxt, true)
	default:
		if c.retransLen() > 0 {
			c.inRecovery = true
			c.recoverSeq = c.sndNxt
			c.resend(&c.tx.q[c.tx.head])
		}
	}
	c.armRTO()
}

// resend retransmits one tracked segment, assembling its fragment
// references in the stack scratch (the bytes themselves are still the
// original, immutable sender bytes — retransmission is zero-copy too).
func (c *Conn) resend(ts *txSeg) {
	ts.rexmit = true
	c.rttPending = false // Karn's rule: no sample from retransmitted data
	var flags uint8 = wire.TCPAck
	if ts.fin {
		flags |= wire.TCPFin
	} else if ts.length > 0 {
		flags |= wire.TCPPsh
	}
	hdr := &c.stack.hdr
	*hdr = c.makeHeader(ts.seq, flags)
	sg := ts.appendPayload(c.stack.sg[:0])
	c.stack.emit(c, hdr, sg)
	c.stack.sg = sg[:0]
}

// destroy tears the connection down and reports the terminal event:
// Connected(false) for failed active opens, Dead otherwise (exactly once).
func (c *Conn) destroy(reason Reason) {
	if c.state == StateClosed {
		return
	}
	prev := c.state
	c.state = StateClosed
	c.cancelRTO()
	c.cancelDelAck()
	if c.twTimer != nil {
		c.stack.cfg.Wheel.Cancel(c.twTimer)
		c.twTimer = nil
	}
	if c.listener != nil && prev == StateSynRcvd {
		c.listener.embryonic--
	}
	// Release reassembly references.
	for _, rs := range c.reasm {
		if rs.buf != nil {
			rs.buf.Unref()
		}
	}
	c.reasm = nil
	// Drop the retransmission queue's payload references: after Dead the
	// sender reclaims its arena wholesale. putTxState zeroes the inline
	// array and drops any spilled backing, so the references die with it.
	if c.tx != nil {
		c.stack.putTxState(c.tx)
		c.tx = nil
	}
	delete(c.stack.conns, c.key)
	if prev == StateSynSent {
		c.stack.cfg.Events.Connected(c, false)
		return
	}
	c.stack.cfg.Events.Dead(c, reason)
}
