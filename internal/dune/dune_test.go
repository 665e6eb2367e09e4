package dune

import (
	"testing"
	"unsafe"
)

// flow is a stand-in for the dataplane's flow type.
type flow struct{ name string }

// TestCapEntrySize pins a capability slot at one pointer plus the
// narrow scalars: the gate holds one slot per live flow, so slot size
// is a direct term of the bytes/conn budget.
func TestCapEntrySize(t *testing.T) {
	if n := unsafe.Sizeof(capEntry[flow]{}); n != 16 {
		t.Fatalf("unsafe.Sizeof(capEntry{}) = %d B, want 16 B", n)
	}
}

func TestHandleLifecycle(t *testing.T) {
	g := NewGate[flow](3, 0)
	obj := &flow{"flow"}
	h := g.Grant(obj)
	got, err := g.Lookup(h)
	if err != nil || got != obj {
		t.Fatalf("lookup: %v, %v", got, err)
	}
	g.Revoke(h)
	if _, err := g.Lookup(h); err == nil {
		t.Fatal("revoked handle still valid")
	}
	if g.Live() != 0 {
		t.Fatalf("live = %d", g.Live())
	}
}

func TestStaleGeneration(t *testing.T) {
	g := NewGate[flow](0, 0)
	h1 := g.Grant(&flow{"first"})
	g.Revoke(h1)
	second := &flow{"second"}
	h2 := g.Grant(second) // reuses the slot with a new generation
	if h1 == h2 {
		t.Fatal("generations not distinguishing reused slots")
	}
	if _, err := g.Lookup(h1); err == nil {
		t.Fatal("stale handle accepted")
	}
	if got, err := g.Lookup(h2); err != nil || got != second {
		t.Fatalf("fresh handle rejected: %v %v", got, err)
	}
	if g.Violations(VioStaleHandle) == 0 && g.Violations(VioBadHandle) == 0 {
		t.Fatal("stale use not counted")
	}
}

func TestForeignHandleRejected(t *testing.T) {
	g0 := NewGate[flow](0, 0)
	g1 := NewGate[flow](1, 0)
	h := g0.Grant(&flow{"thread0 flow"})
	if _, err := g1.Lookup(h); err != ErrForeignHandle {
		t.Fatalf("foreign handle error = %v", err)
	}
	if g1.Violations(VioForeignHandle) != 1 {
		t.Fatal("violation not counted")
	}
}

func TestForgedHandleRejected(t *testing.T) {
	g := NewGate[flow](0, 0)
	if _, err := g.Lookup(0xdead); err == nil {
		t.Fatal("forged handle accepted")
	}
}

func TestRecvDoneAccounting(t *testing.T) {
	g := NewGate[flow](0, 0)
	f := &flow{"flow"}
	h := g.Grant(f)
	g.Delivered(h, 100)
	if got, err := g.RecvDone(h, 60); err != nil || got != f {
		t.Fatalf("recv_done: %v, %v", got, err)
	}
	if _, err := g.RecvDone(h, 60); err != ErrRecvDone {
		t.Fatalf("overrun error = %v", err)
	}
	if g.Violations(VioRecvDoneOverrun) != 1 {
		t.Fatal("overrun not counted")
	}
	if _, err := g.RecvDone(h, 40); err != nil {
		t.Fatalf("remaining bytes rejected: %v", err)
	}
}

func TestReadOnlyEnforcement(t *testing.T) {
	g := NewGate[flow](0, 0)
	if err := g.CheckWritable(true); err != ErrReadOnly {
		t.Fatalf("got %v", err)
	}
	if err := g.CheckWritable(false); err != nil {
		t.Fatalf("writable buffer rejected: %v", err)
	}
}

func TestPassthroughSandbox(t *testing.T) {
	p := NewPassthrough("/data/")
	app := &Domain{Name: "memcached", Ring: Ring3}
	cp := &Domain{Name: "linux", Ring: RingVMXRoot0}
	if _, err := p.Call(app, "write", "/data/log", []byte("x")); err != nil {
		t.Fatal(err)
	}
	b, err := p.Call(app, "read", "/data/log", nil)
	if err != nil || string(b) != "x" {
		t.Fatalf("read: %q, %v", b, err)
	}
	if _, err := p.Call(app, "write", "/etc/passwd", nil); err != ErrDenied {
		t.Fatal("escape from sandbox allowed")
	}
	if _, err := p.Call(app, "exec", "/data/x", nil); err != ErrDenied {
		t.Fatal("disallowed op permitted")
	}
	if _, err := p.Call(cp, "read", "/data/log", nil); err != ErrDenied {
		t.Fatal("control plane re-entry allowed")
	}
	if p.Denied != 3 || p.Forwarded != 2 {
		t.Fatalf("denied=%d forwarded=%d", p.Denied, p.Forwarded)
	}
	if len(p.Audit()) != 5 {
		t.Fatalf("audit entries = %d", len(p.Audit()))
	}
	if _, err := p.Call(app, "unlink", "/data/log", nil); err != nil {
		t.Fatal(err)
	}
	if len(p.Files()) != 0 {
		t.Fatal("unlink failed")
	}
}

func TestRingStrings(t *testing.T) {
	if RingVMXRoot0.String() == "" || Ring0NonRoot.String() == "" || Ring3.String() == "" {
		t.Fatal("ring names empty")
	}
}
