package tcp

import (
	"unsafe"

	"ix/internal/memprobe"
	"ix/internal/timerwheel"
)

// Footprint implements the memprobe accounting contract for the TCP
// engine: per live connection, the PCB struct itself plus the
// capacities of its growable storage — retransmit-queue backing,
// scatter-gather spill slices, reassembly segments — and the timer
// nodes the connection currently pins on the wheel (armed timers only;
// the wheel's free list is amortized across the population and not
// charged to anyone). The walk is read-only arithmetic over Go-visible
// state: sampling it never perturbs the simulation.
func (s *Stack) Footprint() memprobe.Footprint {
	const (
		connBytes  = int64(unsafe.Sizeof(Conn{}))
		segBytes   = int64(unsafe.Sizeof(txSeg{}))
		rxBytes    = int64(unsafe.Sizeof(rxSeg{}))
		timerBytes = int64(unsafe.Sizeof(timerwheel.Timer{}))
		sliceBytes = int64(unsafe.Sizeof([]byte(nil)))
	)
	const txStateBytes = int64(unsafe.Sizeof(txState{}))
	var f memprobe.Footprint
	//ixvet:ignore(determinism) commutative integer sums; the tally is order-independent
	for _, c := range s.conns {
		f.Conns++
		b := connBytes
		if t := c.tx; t != nil {
			b += txStateBytes
			if cap(t.q) > retransInline {
				b += int64(cap(t.q)) * segBytes // spilled backing
			}
			for i := t.head; i < len(t.q); i++ {
				b += int64(cap(t.q[i].extra)) * sliceBytes
			}
		}
		b += int64(cap(c.reasm)) * rxBytes
		if c.rtoTimer != nil {
			b += timerBytes
		}
		if c.twTimer != nil {
			b += timerBytes
		}
		if c.daTimer != nil {
			b += timerBytes
		}
		f.Bytes += b
	}
	return f
}

// SumConns adds up bytes(c) over every live connection, for a layer
// above the engine that accounts per-connection state of its own. The
// sum is order-independent, so unlike Conns it walks the table in
// place, with no sorted copy.
func (s *Stack) SumConns(bytes func(*Conn) int64) int64 {
	var n int64
	//ixvet:ignore(determinism) commutative integer sums; the tally is order-independent
	for _, c := range s.conns {
		n += bytes(c)
	}
	return n
}
