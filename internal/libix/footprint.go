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
// engine's own tally (core.Dataplane.Footprint adds the two), so only
// Bytes is set. The cookie table is shared by every thread's program
// and holds every flow of the host, so thread 0 walks it once — its
// backing and each live conn — and the other threads report nothing.
func (p *program) Footprint() memprobe.Footprint {
	const (
		connBytes  = int64(unsafe.Sizeof(conn{}))
		sliceBytes = int64(unsafe.Sizeof([]byte(nil)))
		ptrBytes   = int64(unsafe.Sizeof((*mem.Mbuf)(nil)))
	)
	if !p.first {
		return memprobe.Footprint{}
	}
	return memprobe.Footprint{Bytes: p.tab.FootprintBytes() + p.tab.Sum(func(c *conn) int64 {
		return connBytes +
			int64(cap(c.txq))*sliceBytes +
			int64(cap(c.rdBufs))*ptrBytes +
			c.arena.FootprintBytes()
	})}
}
