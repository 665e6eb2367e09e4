package tcp

import "unsafe"

// CookieTable resolves Conn.Cookie ids back to the owning layer's
// per-connection state. The engine carries only the 8-byte id in its
// PCB — no interface box, nothing for the GC to chase — and the owner
// (libix, or a kernel-socket adapter) looks it up on each event. Ids are
// slot index + 1, so 0 keeps its "no cookie" meaning; freed slots
// recycle LIFO for cache locality and bounded growth.
type CookieTable[T any] struct {
	slots []*T
	free  []uint32
}

// Reserve presizes an empty table for n connections.
func (t *CookieTable[T]) Reserve(n int) {
	if n > 0 && cap(t.slots) == 0 {
		t.slots = make([]*T, 0, n)
	}
}

// Grant registers v and returns its cookie id.
//
//ix:hotpath
func (t *CookieTable[T]) Grant(v *T) uint64 {
	if n := len(t.free); n > 0 {
		idx := t.free[n-1]
		t.free = t.free[:n-1]
		t.slots[idx] = v
		return uint64(idx) + 1
	}
	t.slots = append(t.slots, v)
	return uint64(len(t.slots))
}

// Lookup resolves a cookie id; 0 and stale ids return nil.
//
//ix:hotpath
func (t *CookieTable[T]) Lookup(id uint64) *T {
	if id == 0 || id > uint64(len(t.slots)) {
		return nil
	}
	return t.slots[id-1]
}

// Revoke clears the slot and frees the id for reuse.
func (t *CookieTable[T]) Revoke(id uint64) {
	if id == 0 || id > uint64(len(t.slots)) {
		return
	}
	t.slots[id-1] = nil
	t.free = append(t.free, uint32(id-1))
}

// Sum adds up bytes(v) over every live slot, in slot order, for an
// owner that accounts its per-connection state under the memprobe
// contract.
func (t *CookieTable[T]) Sum(bytes func(*T) int64) int64 {
	var n int64
	for _, v := range t.slots {
		if v != nil {
			n += bytes(v)
		}
	}
	return n
}

// FootprintBytes is the table's own backing under the memprobe
// contract: one pointer per slot and one uint32 per free-list entry,
// by capacity.
func (t *CookieTable[T]) FootprintBytes() int64 {
	return int64(cap(t.slots))*int64(unsafe.Sizeof((*T)(nil))) + int64(cap(t.free))*4
}
