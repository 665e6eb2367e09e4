// Package mtcpstack models mTCP (Jeong et al., NSDI '14), the
// state-of-the-art user-level TCP stack the paper compares against: each
// core runs a dedicated TCP thread that polls the NIC DPDK-style and
// exchanges *batched* event and job queues with the application thread at
// relatively coarse granularity. The aggressive batching amortizes
// switching overheads and delivers high packet rates, but events and
// writes sit in the handoff queues for tens of microseconds — the
// latency-for-throughput trade §2.3 and §5.2 describe ("mTCP uses
// aggressive batching to offset the cost of context switching, which
// comes at the expense of higher latency").
//
// The same TCP protocol engine as IX and the Linux model runs underneath.
package mtcpstack

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

// pollBatch is the TCP thread's per-round packet budget (mTCP uses large
// I/O batches).
const pollBatch = 2048

// Config describes an mTCP host. Each core presizes its connection
// tables for its RSS share of ExpectedConns.
type Config struct {
	netstack.HostConfig
	// Cores is the number of core pairs (TCP thread + app thread per
	// core, as mTCP deploys).
	Cores int
	// Cost is the mTCP cost model.
	Cost cost.MTCP
	// Factory builds the per-thread application.
	Factory app.Factory
}

// Host is one mTCP machine.
type Host struct {
	netstack.Machine
	eng    *sim.Engine
	cfg    Config
	region *mem.Region
	cores  []*mcore
}

// New builds an mTCP host. Attach NIC ports before Start.
func New(eng *sim.Engine, cfg Config) *Host {
	if cfg.Cores <= 0 {
		cfg.Cores = 1
	}
	if cfg.Cost == (cost.MTCP{}) {
		cfg.Cost = cost.DefaultMTCP()
	}
	h := &Host{eng: eng, cfg: cfg, region: mem.NewRegion(mem.DefaultPages)}
	h.Machine = netstack.NewMachine(eng, cfg.HostConfig, nicsim.Config{Queues: cfg.Cores})
	return h
}

// Start spawns the per-core thread pairs.
func (h *Host) Start() {
	for i := 0; i < h.cfg.Cores; i++ {
		h.cores = append(h.cores, newMcore(h, i))
	}
	for _, m := range h.cores {
		m.so.SetHandler(h.cfg.Factory(m.env(), m.id, h.cfg.Cores))
		m.Wake()
	}
}

// Cores returns the core count.
func (h *Host) Cores() int { return len(h.cores) }

// Stack returns core i's network stack (started hosts only).
func (h *Host) Stack(i int) *netstack.Stack { return h.cores[i].ns }

// ConnCount sums live connections.
func (h *Host) ConnCount() int {
	n := 0
	for _, m := range h.cores {
		n += m.ns.TCP().ConnCount()
	}
	return n
}

// FramesInUse sums outstanding frames across the cores' pools.
func (h *Host) FramesInUse() int {
	n := 0
	for _, m := range h.cores {
		n += m.ns.FramePool().InUse()
	}
	return n
}

// Footprint implements the memprobe accounting contract for the mTCP
// host model: per core, the TCP engine's tally plus the socket layer
// (see netstack.Sockets.Footprint).
func (h *Host) Footprint() memprobe.Footprint {
	var f memprobe.Footprint
	for _, m := range h.cores {
		f.Add(m.socks.Footprint(m.ns.TCP()))
	}
	return f
}

// mcore is one core pair: the mTCP TCP thread and its application thread.
type mcore struct {
	h    *Host
	id   int
	core *sim.Core

	ns    *netstack.Stack
	wheel *timerwheel.Wheel
	pool  *mem.MbufPool
	rxq   *nicsim.RxQueue
	txq   *nicsim.TxQueue

	// socks is the core's socket table and event adapter: per core
	// because each mcore owns a private TCP stack (mTCP's
	// shared-nothing design).
	socks *netstack.Sockets
	// so is the app thread's socket side; its ready list is the event
	// queue, TCP thread → app thread (batched).
	so         netstack.SockOwner
	appPending bool

	// Job queue: app thread → TCP thread (batched writes/connects).
	jobQ       []job
	tcpPending bool
	tcpQueued  bool // a TCP round is scheduled right now

	outFrames []*fabric.Frame
	txPending []*fabric.Frame
	txSpare   []*fabric.Frame
	tcpMore   bool
	curMeter  *sim.Meter

	// jobSpare recycles the drained job queue's backing array.
	jobSpare []job

	// tcpFn/appFn are bound once (method values allocate).
	tcpFn func(*sim.Meter)
	appFn func(*sim.Meter)
	timer netstack.TimerWake
}

// job is one unit of app → TCP thread work: a socket operation, or an
// active open.
type job struct {
	s       *netstack.Sock
	op      netstack.SockOp
	connect func()
}

func newMcore(h *Host, id int) *mcore {
	m := &mcore{
		h:     h,
		id:    id,
		core:  sim.NewCore(h.eng, id),
		pool:  mem.NewMbufPool(h.region, id),
		wheel: timerwheel.New(timerwheel.DefaultTick, int64(h.eng.Now())),
	}
	m.socks = netstack.NewSockets(h.ConnShare(h.cfg.Cores), func() *netstack.SockOwner { return &m.so })
	m.so.Init(m, h.cfg.Cost.Sock())
	m.tcpFn = m.tcpRound
	m.appFn = m.appRound
	m.timer.Init(h.eng, m.wheel, m.wakeTCP)
	m.rxq = h.NIC().RxQueue(id)
	m.txq = h.NIC().TxQueue(id)
	m.rxq.Mode = nicsim.ModePoll
	m.rxq.OnFrame = m.wakeTCP
	// mTCP also partitions flows per core (it splits the ephemeral port
	// space by RSS, like IX).
	m.ns = h.NewStack(id, h.cfg.Cores, m.wheel, m.socks,
		func(f *fabric.Frame) { m.outFrames = append(m.outFrames, f) }, 0)
	return m
}

// wakeTCP schedules a TCP thread poll round (the TCP thread polls, so the
// reaction to NIC arrivals is immediate).
func (m *mcore) wakeTCP() {
	if m.tcpQueued {
		return
	}
	m.tcpQueued = true
	m.core.Submit(sim.ClassTCPThread, m.tcpFn)
}

// tcpRound is one TCP-thread iteration: drain the job queue from the app,
// process a packet batch, run timers, emit frames.
func (m *mcore) tcpRound(meter *sim.Meter) {
	m.tcpQueued = false
	m.tcpPending = false
	m.curMeter = meter
	c := &m.h.cfg.Cost
	meter.Charge(c.PollRound)

	// Application jobs first (writes queued since last round).
	jobs := m.jobQ
	m.jobQ = m.jobSpare[:0]
	m.jobSpare = nil
	for i, j := range jobs {
		meter.Charge(c.QueueOp)
		if j.connect != nil {
			j.connect()
		} else {
			j.s.Do(j.op)
		}
		jobs[i] = job{}
	}
	m.jobSpare = jobs[:0]

	frames := m.rxq.Take(pollBatch)
	m.rxq.PostDescriptors(len(frames))
	miss := cost.MissStall(m.h.ConnCount(), c.L3Miss)
	for _, f := range frames {
		buf := m.pool.Alloc()
		if buf == nil {
			f.Release()
			continue
		}
		buf.SetData(f.Data)
		// Handshake frames charge the miss floor (batched SYN
		// admission); see the linuxstack napiPoll note.
		if nicsim.IsTCPSYN(f.Data) {
			meter.Charge(c.ProtoRx + cost.MissStall(0, c.L3Miss))
		} else {
			meter.Charge(c.ProtoRx + miss)
		}
		f.Release()
		m.ns.Input(buf)
		buf.Unref()
	}
	m.wheel.Advance(int64(m.h.eng.Now()))
	// mTCP acks from the TCP thread, independent of the app.
	m.ns.Flush()
	m.curMeter = nil
	m.tcpMore = m.rxq.Len() > 0
	m.txPending = m.outFrames
	m.outFrames = m.txSpare[:0]
	m.txSpare = nil
	meter.AtEndCall(mEndTCPRound, m)
}

// mEndTCPRound posts the round's frames and re-arms polling (pooled
// one-shot end action, no closure).
func mEndTCPRound(a any) {
	m := a.(*mcore)
	out := m.txPending
	m.txPending = nil
	for i, f := range out {
		m.txq.Post(f)
		out[i] = nil
	}
	m.txSpare = out[:0]
	if m.tcpMore || m.tcpPending {
		m.wakeTCP()
	}
	m.timer.Ensure()
	m.Wake()
}

// queueJob hands work to the TCP thread; it runs after the batched
// handoff interval (half the round trip of mTCP's added latency).
func (m *mcore) queueJob(j job) {
	m.jobQ = append(m.jobQ, j)
	m.handoffTCP()
}

// handoffTCP wakes the TCP thread one handoff interval from now, unless
// a round is already due.
func (m *mcore) handoffTCP() {
	if m.tcpQueued || m.tcpPending {
		return
	}
	m.tcpPending = true
	m.h.eng.CallAfter(m.h.cfg.Cost.HandoffInterval, mWakeTCP, m)
}

// Engine and end-of-task trampolines (pooled events, no closures).
func mWakeTCP(a any) { a.(*mcore).wakeTCP() }

func mSubmitApp(a any) {
	m := a.(*mcore)
	m.core.Submit(sim.ClassUser, m.appFn)
}

// mEndApp ends an app-thread task: events may have landed while it ran,
// and the jobs it queued go to the TCP thread.
func mEndApp(a any) {
	m := a.(*mcore)
	m.Wake()
	if len(m.jobQ) > 0 {
		m.handoffTCP()
	}
}

// Charge bills socket work to whichever thread of the pair is running.
func (m *mcore) Charge(d time.Duration) {
	if m.curMeter != nil {
		m.curMeter.Charge(d)
	}
}

// Run hands socket protocol work to the TCP thread as a job.
func (m *mcore) Run(s *netstack.Sock, op netstack.SockOp) { m.queueJob(job{s: s, op: op}) }

// Wake schedules an app round if events are waiting, after the
// batched handoff interval (the other half of the added latency).
func (m *mcore) Wake() {
	if m.appPending || !m.so.Pending() {
		return
	}
	m.appPending = true
	m.h.eng.CallAfter(m.h.cfg.Cost.HandoffInterval, mSubmitApp, m)
}

// appRound drains the event queue through the application handler.
func (m *mcore) appRound(meter *sim.Meter) {
	m.appPending = false
	m.curMeter = meter
	m.so.Drain()
	m.curMeter = nil
	meter.AtEndCall(mEndApp, m)
}

// env returns the app.Env for this core.
func (m *mcore) env() app.Env { return (*menv)(m) }

// menv implements app.Env.
type menv mcore

func (e *menv) m() *mcore { return (*mcore)(e) }

func (e *menv) Now() int64  { return int64(e.h.eng.Now()) }
func (e *menv) Thread() int { return e.id }

func (e *menv) Charge(d time.Duration) { e.m().Charge(d) }

// Elapsed returns CPU time charged in the current task.
func (e *menv) Elapsed() time.Duration {
	if e.curMeter != nil {
		return e.curMeter.Elapsed()
	}
	return 0
}

func (e *menv) Listen(port uint16) error {
	_, err := e.m().ns.TCP().Listen(port)
	return err
}

func (e *menv) After(d time.Duration, fn func()) {
	m := e.m()
	m.h.eng.After(d, func() {
		m.core.Submit(sim.ClassUser, func(meter *sim.Meter) {
			m.curMeter = meter
			fn()
			m.curMeter = nil
			meter.AtEndCall(mEndApp, m)
		})
	})
}

func (e *menv) Connect(dst wire.IPv4, port uint16, cookie any) error {
	m := e.m()
	m.queueJob(job{connect: func() { m.socks.Connect(&m.so, m.ns.TCP(), dst, port, cookie) }})
	return nil
}
