// Package linuxstack models the paper's carefully tuned Linux 3.16
// baseline (§5.1): an interrupt-driven kernel TCP stack with NAPI
// softirq processing, socket buffers with copies at the syscall boundary,
// epoll-based event delivery with scheduler wakeups, and application
// threads pinned one per core sharing those cores with kernel work.
//
// Unlike IX's shared-nothing elastic threads, the kernel's connection
// table is global: any core's softirq context can process any flow (the
// shared Stack below), with RSS steering packets to per-core queues and
// affinity-accept-style handoff of accepted sockets to the core that
// received them. The same TCP protocol engine as IX runs underneath;
// what differs — and what this package models — is *where and when*
// protocol work executes: hardirq → softirq → socket buffer → wakeup →
// epoll_wait → read/write syscalls with per-byte copies, instead of IX's
// run-to-completion cycle.
package linuxstack

import (
	"time"

	"ix/internal/app"
	"ix/internal/cost"
	"ix/internal/fabric"
	"ix/internal/mem"
	"ix/internal/memprobe"
	"ix/internal/netstack"
	"ix/internal/nicsim"
	"ix/internal/sim"
	"ix/internal/timerwheel"
	"ix/internal/wire"
)

// napiBudget is the Linux NAPI poll budget (packets per softirq poll).
const napiBudget = 64

// itr is the NIC interrupt moderation; the paper tunes thresholds, so
// it is a low 4 µs.
const itr = 4 * time.Microsecond

// Config describes a Linux host. ExpectedConns presizes the kernel's
// global connection and socket tables.
type Config struct {
	netstack.HostConfig
	// Cores is the number of cores; one NIC queue pair, one pinned
	// application thread and one softirq context per core, with
	// interrupts affinitized (§5.1's tuning).
	Cores int
	// Cost is the Linux cost model.
	Cost cost.Linux
	// Factory builds the per-thread application.
	Factory app.Factory
}

// Host is one Linux machine: a single kernel stack, per-core NIC queues
// and softirq contexts, and one pinned application thread per core.
type Host struct {
	netstack.Machine
	eng    *sim.Engine
	cfg    Config
	region *mem.Region
	cores  []*kcore

	// ns is the *shared* kernel network stack (global PCB table).
	ns *netstack.Stack
	// wheel is the kernel timer wheel (global, as in Linux).
	wheel *timerwheel.Wheel
	// cur is the core whose context is currently executing kernel or
	// app work; stack callbacks attribute costs and output to it.
	cur *kcore

	// socks is the host-global fd-style socket table and the engine's
	// event adapter (the kernel's connection table is global).
	socks *netstack.Sockets

	listening map[uint16]bool
	timer     netstack.TimerWake
	// timerTask is bound once (method values allocate).
	timerTask func(*sim.Meter)
}

// New builds a Linux host. Attach NIC ports before Start.
func New(eng *sim.Engine, cfg Config) *Host {
	if cfg.Cores <= 0 {
		cfg.Cores = 1
	}
	if cfg.Cost == (cost.Linux{}) {
		cfg.Cost = cost.DefaultLinux()
	}
	h := &Host{
		eng:       eng,
		cfg:       cfg,
		region:    mem.NewRegion(mem.DefaultPages),
		listening: make(map[uint16]bool),
	}
	h.Machine = netstack.NewMachine(eng, cfg.HostConfig, nicsim.Config{Queues: cfg.Cores, ITR: itr})
	h.socks = netstack.NewSockets(cfg.ExpectedConns, h.acceptor)
	h.timerTask = h.runTimerTask
	h.wheel = timerwheel.New(timerwheel.DefaultTick, int64(eng.Now()))
	// Kernel timer ticks run in softirq context on core 0.
	h.timer.Init(eng, h.wheel, func() { h.cores[0].core.Submit(sim.ClassKernel, h.timerTask) })
	// One kernel stack serves every queue. Linux delays pure ACKs so
	// responses piggyback them (scaled to the simulation's RTO floor).
	h.ns = h.NewStack(0, 0, h.wheel, h.socks, func(f *fabric.Frame) {
		c := h.cur
		if c == nil {
			c = h.cores[0]
		}
		c.outFrames = append(c.outFrames, f)
	}, 100*time.Microsecond)
	return h
}

// SetShard places the kernel stack's frame pool on shard sh of a
// parallel engine; the stack exists from New on, so it is tagged here
// rather than by NewStack.
func (h *Host) SetShard(sh int, r fabric.RemoteReleaser) { h.ns.FramePool().SetShard(sh, r) }

// Stack exposes the shared kernel stack (tests).
func (h *Host) Stack() *netstack.Stack { return h.ns }

// Start spawns per-core kernel contexts and application threads.
func (h *Host) Start() {
	for i := 0; i < h.cfg.Cores; i++ {
		h.cores = append(h.cores, newKcore(h, i))
	}
	for _, k := range h.cores {
		k.so.SetHandler(h.cfg.Factory(k.env(), k.id, h.cfg.Cores))
		k.Wake()
	}
}

// acceptor returns the socket owner for a new passive open: the core
// whose context is executing, i.e. whose queue received the handshake —
// the affinity-accept behaviour of §2.3. The socket's events then wake
// that core's thread.
func (h *Host) acceptor() *netstack.SockOwner {
	if h.cur != nil {
		return &h.cur.so
	}
	return &h.cores[0].so
}

// Footprint implements the memprobe accounting contract for the Linux
// host model: the shared kernel stack's TCP tally plus the socket
// layer (see netstack.Sockets.Footprint).
func (h *Host) Footprint() memprobe.Footprint { return h.socks.Footprint(h.ns.TCP()) }

// Cores returns the core count.
func (h *Host) Cores() int { return len(h.cores) }

// ConnCount returns live connections.
func (h *Host) ConnCount() int { return h.ns.TCP().ConnCount() }

// FramesInUse reports frames outstanding from the kernel stack's pool.
func (h *Host) FramesInUse() int { return h.ns.FramePool().InUse() }

// CPUBreakdown reports kernel vs user busy time since ResetStats.
func (h *Host) CPUBreakdown() (kernel, user time.Duration) {
	for _, k := range h.cores {
		kernel += time.Duration(k.kernelNs)
		user += time.Duration(k.userNs)
	}
	return kernel, user
}

// ResetStats zeroes measurement counters.
func (h *Host) ResetStats() {
	for _, k := range h.cores {
		k.kernelNs, k.userNs = 0, 0
		k.core.ResetStats()
	}
}

// runTimerTask advances the kernel wheel in softirq context on core 0.
func (h *Host) runTimerTask(m *sim.Meter) {
	k := h.cores[0]
	h.cur = k
	k.curMeter = m
	h.wheel.Advance(int64(h.eng.Now()))
	h.ns.Flush()
	k.curMeter = nil
	h.cur = nil
	k.drainAtEnd(m)
}

// kcore is one core: a NAPI softirq context plus the pinned app thread.
type kcore struct {
	h    *Host
	id   int
	core *sim.Core

	pool *mem.MbufPool
	rxq  *nicsim.RxQueue
	txq  *nicsim.TxQueue

	// so is the app thread's socket side: handler and epoll ready list.
	// Established sockets wake the epoll of their *owning* core — the
	// thread that issued the connect (or accepted the socket) —
	// regardless of which core's softirq context processed the packet:
	// a locally initiated socket's return traffic carries no affinity to
	// the issuing core (the shared kernel stack has no RSS-aligned port
	// probing), so routing its readiness to the RSS core would hand the
	// socket to a different application thread than the one that owns
	// the fd.
	so         netstack.SockOwner
	appRunning bool
	napiQueued bool

	// outFrames accumulates frames for the running task; txPending/
	// txSpare ping-pong the backing array through the AtEnd post step.
	outFrames []*fabric.Frame
	txPending []*fabric.Frame
	txSpare   []*fabric.Frame
	napiMore  bool

	// Bound methods, created once (method values allocate).
	napiFn   func(*sim.Meter)
	appRunFn func(*sim.Meter)

	curMeter  *sim.Meter
	sysKernel time.Duration

	kernelNs int64
	userNs   int64
}

func newKcore(h *Host, id int) *kcore {
	k := &kcore{
		h:    h,
		id:   id,
		core: sim.NewCore(h.eng, id),
		pool: mem.NewMbufPool(h.region, id),
	}
	k.so.Init(k, h.cfg.Cost.Sock())
	k.napiFn = k.napiPoll
	k.appRunFn = k.appRun
	k.core.CtxSwitch = h.cfg.Cost.CtxSwitch
	k.rxq = h.NIC().RxQueue(id)
	k.txq = h.NIC().TxQueue(id)
	k.rxq.Mode = nicsim.ModeInterrupt
	k.rxq.OnInterrupt = k.hardIRQ
	k.rxq.EnableInterrupt()
	return k
}

// Charge charges kernel work inside whatever task is running.
func (k *kcore) Charge(d time.Duration) {
	if k.curMeter != nil {
		k.curMeter.Charge(d)
	}
	k.kernelNs += int64(d)
	k.sysKernel += d
}

// Run performs socket protocol work inline: a write, close or abort
// runs TCP output in the syscall itself.
func (k *kcore) Run(s *netstack.Sock, op netstack.SockOp) { s.Do(op) }

// stageTx moves the task's accumulated frames into the pending-post slot
// (the backing arrays ping-pong, so steady state does not allocate).
func (k *kcore) stageTx() {
	k.txPending = k.outFrames
	k.outFrames = k.txSpare[:0]
	k.txSpare = nil
}

// postTx posts the staged frames at task end and recycles the backing.
func (k *kcore) postTx() {
	out := k.txPending
	k.txPending = nil
	for i, f := range out {
		k.txq.Post(f)
		out[i] = nil
	}
	k.txSpare = out[:0]
}

// AtEnd trampolines (pooled events, no closures).
func kEndTimer(a any) {
	k := a.(*kcore)
	k.postTx()
	k.h.timer.Ensure()
}

func kEndNapi(a any) {
	k := a.(*kcore)
	k.postTx()
	if k.napiMore {
		k.scheduleNAPI()
	} else {
		k.rxq.EnableInterrupt()
	}
	k.h.timer.Ensure()
}

func kEndApp(a any) {
	k := a.(*kcore)
	k.postTx()
	k.appRunning = false
	k.Wake() // events may have landed while we ran
	k.h.timer.Ensure()
}

func kEndTask(a any) {
	k := a.(*kcore)
	k.postTx()
	k.Wake()
	k.h.timer.Ensure()
}

// drainAtEnd posts accumulated frames at task end.
func (k *kcore) drainAtEnd(m *sim.Meter) {
	k.stageTx()
	m.AtEndCall(kEndTimer, k)
}

// hardIRQ is the NIC interrupt: schedule softirq (NAPI) on this core.
func (k *kcore) hardIRQ() {
	k.rxq.DisableInterrupt()
	k.scheduleNAPI()
}

func (k *kcore) scheduleNAPI() {
	if k.napiQueued {
		return
	}
	k.napiQueued = true
	k.core.Submit(sim.ClassKernel, k.napiFn)
}

// napiPoll is one softirq poll round: up to the budget of packets through
// the shared kernel stack, then re-poll or re-enable interrupts.
func (k *kcore) napiPoll(m *sim.Meter) {
	h := k.h
	k.napiQueued = false
	h.cur = k
	k.curMeter = m
	c := &h.cfg.Cost
	m.Charge(c.HardIRQ)
	k.kernelNs += int64(c.HardIRQ)
	frames := k.rxq.Take(napiBudget)
	k.rxq.PostDescriptors(len(frames))
	miss := cost.MissStall(h.ConnCount(), c.L3Miss)
	for _, f := range frames {
		buf := k.pool.Alloc()
		if buf == nil {
			f.Release()
			continue
		}
		buf.SetData(f.Data)
		// Handshake frames charge the miss floor, not the population-
		// scaled DDIO curve: the accept path's lines (listener, SYN
		// backlog, fresh PCB) stay LLC-resident across an establishment
		// burst, so batched SYN admission amortizes the per-frame
		// penalty.
		d := c.SoftIRQPerPkt + miss
		if nicsim.IsTCPSYN(f.Data) {
			d = c.SoftIRQPerPkt + cost.MissStall(0, c.L3Miss)
		}
		f.Release()
		m.Charge(d)
		k.kernelNs += int64(d)
		h.ns.Input(buf)
		buf.Unref()
	}
	// Kernel timers piggyback on softirq.
	h.wheel.Advance(int64(h.eng.Now()))
	// The kernel acks as it processes, sliding its receive window
	// independent of the application (§3).
	h.ns.Flush()
	k.curMeter = nil
	h.cur = nil
	k.napiMore = k.rxq.Len() > 0
	k.stageTx()
	m.AtEndCall(kEndNapi, k)
}

// Wake wakes the app thread if it is blocked in epoll_wait with
// sockets ready.
func (k *kcore) Wake() {
	if k.appRunning || !k.so.Pending() {
		return
	}
	k.appRunning = true
	// Scheduler wakeup latency for the blocked, pinned thread.
	k.core.SubmitAfter(k.h.cfg.Cost.WakeupLatency, sim.ClassUser, k.appRunFn)
}

// appRun is the application thread resuming from epoll_wait.
func (k *kcore) appRun(m *sim.Meter) {
	h := k.h
	h.cur = k
	k.curMeter = m
	k.sysKernel = 0
	k.Charge(h.cfg.Cost.SyscallEntry) // epoll_wait return
	userStart := m.Elapsed()
	preKernel := k.sysKernel
	k.so.Drain()
	userSpent := m.Elapsed() - userStart - (k.sysKernel - preKernel)
	if userSpent > 0 {
		k.userNs += int64(userSpent)
	}
	k.curMeter = nil
	h.cur = nil
	k.stageTx()
	m.AtEndCall(kEndApp, k)
}

// env returns the app.Env for this core's application thread.
func (k *kcore) env() app.Env { return (*kenv)(k) }

// kenv implements app.Env on a kcore.
type kenv kcore

func (e *kenv) k() *kcore { return (*kcore)(e) }

func (e *kenv) Now() int64 { return int64(e.h.eng.Now()) }

func (e *kenv) Thread() int { return e.id }

func (e *kenv) Charge(d time.Duration) {
	k := e.k()
	if k.curMeter != nil {
		k.curMeter.Charge(d)
	} else {
		k.userNs += int64(d)
	}
}

// Elapsed returns CPU time charged in the current task.
func (e *kenv) Elapsed() time.Duration {
	if k := e.k(); k.curMeter != nil {
		return k.curMeter.Elapsed()
	}
	return 0
}

// Listen binds the shared kernel stack to port once; further listens are
// SO_REUSEPORT no-ops (accepted sockets are distributed by RSS core).
func (e *kenv) Listen(port uint16) error {
	k := e.k()
	if k.h.listening[port] {
		return nil
	}
	k.h.listening[port] = true
	_, err := k.h.ns.TCP().Listen(port)
	return err
}

// runAppTask runs fn in an app-thread task with kernel context wiring.
func (k *kcore) runAppTask(fn func()) {
	k.core.Submit(sim.ClassUser, func(m *sim.Meter) {
		k.h.cur = k
		k.curMeter = m
		fn()
		k.curMeter = nil
		k.h.cur = nil
		k.stageTx()
		m.AtEndCall(kEndTask, k)
	})
}

func (e *kenv) After(d time.Duration, fn func()) {
	k := e.k()
	k.h.eng.After(d, func() { k.runAppTask(fn) })
}

func (e *kenv) Connect(dst wire.IPv4, port uint16, cookie any) error {
	k := e.k()
	doConnect := func() { k.h.socks.Connect(&k.so, k.h.ns.TCP(), dst, port, cookie) }
	if k.curMeter != nil {
		prev := k.h.cur
		k.h.cur = k
		doConnect()
		k.h.cur = prev
		return nil
	}
	// Issued outside any task (program start): run as an app task.
	k.runAppTask(doConnect)
	return nil
}
