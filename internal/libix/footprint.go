package libix

import (
	"unsafe"

	"ix/internal/mem"
	"ix/internal/memprobe"
)

// Footprint implements the memprobe accounting contract for the
// user-level library: per flow, the connection descriptor plus the
// capacities of its transmit vector and receive-recycling batches and
// the TX arena's pinned chunks. Reported as a layer on top of the TCP
// engine's own tally (core.Dataplane.Footprint adds the two), so Conns
// here counts libix descriptors — on an idle host it matches the TCP
// population minus embryonic connections that have not knocked yet.
func (p *program) Footprint() memprobe.Footprint {
	const (
		connBytes  = int64(unsafe.Sizeof(conn{}))
		sliceBytes = int64(unsafe.Sizeof([]byte(nil)))
		ptrBytes   = int64(unsafe.Sizeof((*mem.Mbuf)(nil)))
	)
	var f memprobe.Footprint
	if p.first {
		// The cookie table is shared by every thread's program; thread 0
		// accounts its backing so the bytes are charged exactly once.
		f.Bytes += p.tab.FootprintBytes()
	}
	//ixvet:ignore(determinism) commutative integer sums; the tally is order-independent
	for _, c := range p.conns {
		f.Conns++
		b := connBytes
		b += int64(cap(c.txq)) * sliceBytes
		b += int64(cap(c.rdBufs)) * ptrBytes
		b += c.arena.FootprintBytes()
		f.Bytes += b
	}
	return f
}
