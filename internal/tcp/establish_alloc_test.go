package tcp

import (
	"testing"

	"ix/internal/timerwheel"
	"ix/internal/wire"
)

// TestZeroAllocConnEstablish: the passive-establishment cycle — SYN
// demux miss, listener knock, connection insert into the presized
// table, batched SYN-ACK at Flush, final-ACK demux, RST teardown —
// performs exactly one allocation per connection: the Conn object
// itself. Everything else on the establishment fast path (the
// //ix:hotpath-annotated Input demux, passiveOpen insert, handshake
// replies through the stack's shared header scratch, pooled RTO
// timers) must be allocation-free, or the large Fig. 4 ramps pay it a
// million times over.
func TestZeroAllocConnEstablish(t *testing.T) {
	ev := &quietEvents{}
	var now int64
	wheel := timerwheel.New(timerwheel.DefaultTick, 0)
	s := NewStack(Config{
		LocalIP:       wire.Addr4(10, 0, 0, 1),
		Now:           func() int64 { return now },
		Wheel:         wheel,
		Output:        func(c *Conn, hdr *wire.TCPHeader, payload [][]byte) {},
		Events:        ev,
		Seed:          7,
		ExpectedConns: 16,
	})
	if _, err := s.Listen(80); err != nil {
		t.Fatal(err)
	}

	srcIP, dstIP := wire.Addr4(10, 0, 0, 2), wire.Addr4(10, 0, 0, 1)
	key := wire.FlowKey{
		SrcIP: dstIP, DstIP: srcIP,
		SrcPort: 80, DstPort: 5000,
		Proto: wire.ProtoTCP,
	}
	const peerISS = 1000
	segBuf := make([]byte, 64)
	var hdr wire.TCPHeader
	inject := func() {
		seg := segBuf[:hdr.Len()]
		hdr.Marshal(seg)
		wire.SetTCPChecksum(srcIP, dstIP, seg)
		s.Input(srcIP, dstIP, seg, nil)
	}
	cycle := func() {
		// SYN: admitted, SYN-ACK owed to the next Flush.
		hdr = wire.TCPHeader{
			SrcPort: 5000, DstPort: 80,
			Seq: peerISS, Flags: wire.TCPSyn,
			Window: 0xffff, MSS: wire.MSS, WScale: 0,
		}
		inject()
		c := s.conns[key]
		if c == nil || c.state != StateSynRcvd {
			t.Fatalf("SYN not admitted: %+v", c)
		}
		s.Flush() // batched SYN-ACK
		// Final ACK completes the handshake.
		hdr = wire.TCPHeader{
			SrcPort: 5000, DstPort: 80,
			Seq: peerISS + 1, Ack: c.iss + 1, Flags: wire.TCPAck,
			Window: 0xffff, WScale: -1,
		}
		inject()
		if c.state != StateEstablished {
			t.Fatalf("handshake did not complete: state=%v", c.state)
		}
		// RST teardown, as the echo benchmarks close (avoids TIME_WAIT).
		hdr = wire.TCPHeader{
			SrcPort: 5000, DstPort: 80,
			Seq: peerISS + 1, Flags: wire.TCPRst,
			Window: 0xffff, WScale: -1,
		}
		inject()
		if len(s.conns) != 0 {
			t.Fatalf("RST did not tear down: %d conns live", len(s.conns))
		}
		// Skim the timer heap's dead entries, as cycleEnd does.
		wheel.NextDeadline()
	}
	cycle() // warm pools, scratch, the needsAck backing
	allocs := testing.AllocsPerRun(1000, cycle)
	if allocs != 1 {
		t.Fatalf("establishment cycle allocates %.2f per conn, want exactly 1 (the Conn object)", allocs)
	}
}

// TestEphemeralPortFullRange: one stack can carry >32k concurrent
// active opens to a single destination — the ephemeral allocator must
// recycle through the full 1024–65535 user range, not just the 32768+
// upper half. A shared-kernel client host (linuxstack) opening a 1M-
// scale Fig. 4 population hits exactly this: at 18 client hosts the old
// wrap-to-32768 allocator exhausted at 18×32768 = 589,824 connections
// fleet-wide, and every Connect past that burned the full 8192-probe
// budget before failing.
func TestEphemeralPortFullRange(t *testing.T) {
	ev := &quietEvents{}
	var now int64
	wheel := timerwheel.New(timerwheel.DefaultTick, 0)
	s := NewStack(Config{
		LocalIP:       wire.Addr4(10, 0, 0, 1),
		Now:           func() int64 { return now },
		Wheel:         wheel,
		Output:        func(c *Conn, hdr *wire.TCPHeader, payload [][]byte) {},
		Events:        ev,
		Seed:          7,
		ExpectedConns: 60_000,
	})
	dst := wire.Addr4(10, 0, 0, 2)
	const want = 60_000 // past the 32768-port upper half
	seen := make(map[uint16]bool, want)
	for i := 0; i < want; i++ {
		c, err := s.Connect(dst, 80, 0)
		if err != nil {
			t.Fatalf("connect %d failed: %v (port space must cover the full user range)", i, err)
		}
		p := c.key.SrcPort
		if p < 1024 {
			t.Fatalf("connect %d allocated reserved port %d", i, p)
		}
		if seen[p] {
			t.Fatalf("connect %d reused live port %d", i, p)
		}
		seen[p] = true
	}
	if len(s.conns) != want {
		t.Fatalf("%d conns live, want %d", len(s.conns), want)
	}
}
