package core

import (
	"fmt"
	"sort"
	"time"

	"ix/internal/cost"
	"ix/internal/dune"
	"ix/internal/fabric"
	"ix/internal/mem"
	"ix/internal/memprobe"
	"ix/internal/netstack"
	"ix/internal/nicsim"
	"ix/internal/sim"
	"ix/internal/tcp"
)

// Config describes one IX dataplane instance (one application).
type Config struct {
	netstack.HostConfig

	// Threads is the number of elastic threads at start.
	Threads int
	// MaxThreads provisions NIC queue pairs (hardware bound); defaults
	// to Threads. The control plane may grow up to this many.
	MaxThreads int
	// BatchBound is the adaptive batching upper bound B (§5.1 uses 64).
	BatchBound int
	// Cost is the dataplane cost model.
	Cost cost.IX
	// MemPages is the large-page grant from the control plane
	// (default mem.DefaultPages).
	MemPages int
	// Tenant is the isolation-accounting tag stamped on every frame
	// pool this dataplane creates (including threads grown later), so
	// shared fabric egress can charge this tenant's traffic separately
	// (0 = untagged single-tenant operation).
	Tenant int
	// User constructs the ring-3 program for each elastic thread
	// (libix.Program does this for applications).
	User func(api *UserAPI, thread, threads int) UserProgram
	// OnNonResponsive is notified when the §4.5 user-mode timeout
	// interrupt marks a thread non-responsive.
	OnNonResponsive func(thread int)
}

// DefaultBatchBound is the paper's B=64 (§5.1).
const DefaultBatchBound = 64

// Dataplane is one IX instance: an application-specific OS running on
// dedicated hardware threads with pass-through NIC access.
type Dataplane struct {
	netstack.Machine
	eng     *sim.Engine
	cfg     Config
	region  *mem.Region
	threads []*ElasticThread

	// Domain is the dataplane's protection domain (VMX non-root ring 0).
	Domain dune.Domain

	// missCache avoids recomputing the DDIO penalty every cycle.
	missConns    int
	missPenalty_ time.Duration

	// Migration accounting (control-plane observability).
	//
	// Migrations counts flow-group (RETA bucket) migrations completed;
	// FlowsMigrated counts connections re-homed; FramesRehomed counts
	// in-flight frames drained from a source RX ring into a destination
	// ring during migration.
	Migrations    uint64
	FlowsMigrated uint64
	FramesRehomed uint64

	// Loss/reorder indicators carried over from revoked threads, so the
	// totals below survive consolidation.
	retiredOOO         uint64
	retiredRetrans     uint64
	retiredFastRetrans uint64
	retiredPoolDrops   uint64
	// Busy time carried over from revoked threads, so per-tenant cycle
	// charges survive core revocation mid-window.
	retiredKernelNs int64
	retiredUserNs   int64

	// timerSeq numbers user-timer registrations dataplane-wide so
	// re-homing can replay them in registration order (wheel slots fire
	// in insertion order, so transfer order is sim-visible).
	timerSeq uint64
}

// LossTotals aggregates the loss and reordering indicators across all
// elastic threads, including ones already revoked — migration tests
// assert on these, and a violation on a thread that is later revoked
// must stay visible.
func (d *Dataplane) LossTotals() (ooo, retrans, fastRetrans, poolDrops uint64) {
	ooo, retrans, fastRetrans, poolDrops =
		d.retiredOOO, d.retiredRetrans, d.retiredFastRetrans, d.retiredPoolDrops
	for _, et := range d.threads {
		t := et.ns.TCP()
		ooo += t.OutOfOrderSegs
		retrans += t.Retransmits
		fastRetrans += t.FastRetransmits
		poolDrops += et.PoolDrops
	}
	return
}

// New creates a dataplane. Attach NIC ports (links) before Start.
func New(eng *sim.Engine, cfg Config) *Dataplane {
	if cfg.Threads <= 0 {
		cfg.Threads = 1
	}
	if cfg.MaxThreads < cfg.Threads {
		cfg.MaxThreads = cfg.Threads
	}
	if cfg.BatchBound <= 0 {
		cfg.BatchBound = DefaultBatchBound
	}
	if cfg.MemPages <= 0 {
		cfg.MemPages = mem.DefaultPages
	}
	if cfg.Cost == (cost.IX{}) {
		cfg.Cost = cost.DefaultIX()
	}
	if cfg.User == nil {
		panic("core: Config.User is required")
	}
	d := &Dataplane{
		eng:    eng,
		cfg:    cfg,
		region: mem.NewRegion(cfg.MemPages),
		Domain: dune.Domain{Name: cfg.Name, Ring: dune.Ring0NonRoot},
	}
	d.Machine = netstack.NewMachine(eng, cfg.HostConfig, nicsim.Config{Queues: cfg.MaxThreads})
	return d
}

// Engine returns the simulation engine.
func (d *Dataplane) Engine() *sim.Engine { return d.eng }

// BatchBound returns the configured adaptive batch bound B.
func (d *Dataplane) BatchBound() int { return d.cfg.BatchBound }

// Start spawns the elastic threads and their user programs.
func (d *Dataplane) Start() {
	for i := 0; i < d.cfg.Threads; i++ {
		d.spawnThread(i)
	}
	d.NIC().SpreadRETA(len(d.threads))
}

func (d *Dataplane) spawnThread(id int) {
	et := newElasticThread(d, id)
	// Tag at spawn, not just at Start: threads granted later by the
	// control plane charge the same tenant.
	et.ns.FramePool().SetTenant(d.cfg.Tenant)
	d.threads = append(d.threads, et)
	et.user = d.cfg.User(et.api, id, d.cfg.Threads)
	// Kick once so programs that queued work at construction run.
	et.wake()
}

// Threads returns the active elastic thread count.
func (d *Dataplane) Threads() int { return len(d.threads) }

// Thread returns elastic thread i.
func (d *Dataplane) Thread(i int) *ElasticThread { return d.threads[i] }

// ConnCount sums live connections across elastic threads.
func (d *Dataplane) ConnCount() int {
	n := 0
	for _, et := range d.threads {
		n += et.ns.TCP().ConnCount()
	}
	return n
}

// FramesInUse sums outstanding frames across the elastic threads' pools.
func (d *Dataplane) FramesInUse() int {
	n := 0
	for _, et := range d.threads {
		n += et.ns.FramePool().InUse()
	}
	return n
}

// TxChunksInUse sums TX arena chunks held across the elastic threads.
func (d *Dataplane) TxChunksInUse() int {
	n := 0
	for _, et := range d.threads {
		n += et.txpool.InUse()
	}
	return n
}

// Footprinter is implemented by user programs (libix) that account
// their per-flow state under the memprobe contract.
type Footprinter interface {
	Footprint() memprobe.Footprint
}

// Footprint sums the dataplane's per-connection memory: each elastic
// thread's TCP engine (PCBs, retransmission backing, timer nodes), its
// capability table in the protection gate, and — when the user program
// implements Footprinter — the ring-3 per-flow state (libix
// descriptors and TX arenas), added as a layer over the same
// connection population.
func (d *Dataplane) Footprint() memprobe.Footprint {
	var f memprobe.Footprint
	for _, et := range d.threads {
		f.Add(et.ns.TCP().Footprint())
		f.Bytes += et.gate.FootprintBytes()
		if fp, ok := et.user.(Footprinter); ok {
			f.AddLayer(fp.Footprint())
		}
	}
	return f
}

// missPenalty returns the per-packet LLC-miss stall given the current
// connection working set (Fig. 4's DDIO model), cached until the
// connection count moves by >1%.
func (d *Dataplane) missPenalty() time.Duration {
	conns := d.ConnCount()
	if d.missPenalty_ != 0 && conns > 0 {
		lo := d.missConns - d.missConns/64
		hi := d.missConns + d.missConns/64
		if conns >= lo && conns <= hi {
			return d.missPenalty_
		}
	}
	d.missConns = conns
	d.missPenalty_ = cost.MissStall(conns, d.cfg.Cost.L3Miss)
	return d.missPenalty_
}

func (d *Dataplane) notifyNonResponsive(et *ElasticThread) {
	if d.cfg.OnNonResponsive != nil {
		d.cfg.OnNonResponsive(et.id)
	}
}

// AddElasticThread grows the dataplane by one elastic thread (control
// plane grant). The RSS indirection table is repartitioned with minimal
// movement: only the flow groups whose RETA bucket is reassigned to the
// new queue migrate; every other flow stays on its thread untouched.
// Returns an error at the hardware queue limit.
func (d *Dataplane) AddElasticThread() error {
	if len(d.threads) >= d.cfg.MaxThreads {
		return fmt.Errorf("core: no NIC queues left (%d)", d.cfg.MaxThreads)
	}
	id := len(d.threads)
	d.spawnThread(id)
	d.applyRepartition(d.NIC().PlanRepartition(len(d.threads)))
	return nil
}

// RemoveElasticThread revokes the highest elastic thread (control plane
// revocation): each of its flow groups migrates — with its in-flight
// frames and timers — to a surviving thread chosen by the repartition
// plan, its user timers re-home to thread 0, and the thread halts.
func (d *Dataplane) RemoveElasticThread() error {
	if len(d.threads) <= 1 {
		return fmt.Errorf("core: cannot remove the last elastic thread")
	}
	n := len(d.threads) - 1
	victim := d.threads[n]
	d.applyRepartition(d.NIC().PlanRepartition(n))
	// Safety net: any connection still homed on the victim (e.g. one
	// whose reply flow was never RSS-classified) moves to the thread its
	// bucket now selects.
	d.migrateResidual(victim)
	// User timers survive core revocation: they re-home to thread 0 with
	// deadlines intact.
	d.rehomeUserTimers(victim, d.threads[0])
	d.threads = d.threads[:n]
	t := victim.ns.TCP()
	d.retiredOOO += t.OutOfOrderSegs
	d.retiredRetrans += t.Retransmits
	d.retiredFastRetrans += t.FastRetransmits
	d.retiredPoolDrops += victim.PoolDrops
	d.retiredKernelNs += victim.KernelNs
	d.retiredUserNs += victim.UserNs
	victim.stopped = true
	if victim.idleWake != nil {
		d.eng.Cancel(victim.idleWake)
		victim.idleWake = nil
	}
	return nil
}

// MigrateFlowGroup moves one RSS flow group (RETA bucket) to the elastic
// thread serving queue dstID. This is the §4.4 migration mechanism, in
// four steps at one run-to-completion boundary:
//
//  1. quiesce the source thread — pending event conditions are delivered
//     and batched system calls complete against their original handles;
//  2. repoint the RETA entry, so new arrivals land on the destination;
//  3. drain the flow group's in-flight frames from the source RX ring
//     into the destination ring in arrival order (no reordering, no
//     loss);
//  4. re-home the group's connections: TCP state, pending retransmission
//     and TIME_WAIT timers (original deadlines), protection-domain
//     handles, and an EvMigrated event telling the destination's user
//     program to adopt each flow.
func (d *Dataplane) MigrateFlowGroup(bucket, dstID int) {
	srcID := int(d.NIC().RETA()[bucket])
	if srcID == dstID {
		return
	}
	if srcID >= len(d.threads) || dstID >= len(d.threads) {
		panic("core: MigrateFlowGroup references a stopped thread")
	}
	d.applyRepartition([]nicsim.RetaChange{
		{Bucket: bucket, From: uint8(srcID), To: uint8(dstID)},
	})
}

// applyRepartition executes a repartition plan, amortizing the per-bucket
// work: each distinct source thread is quiesced once, its RETA entries
// flip together, its in-flight frames drain in one ring pass, and its
// connection table is scanned once — O(sources × (ring + conns)) rather
// than O(buckets × conns). The four-step migration contract of
// MigrateFlowGroup holds for every bucket in the plan.
func (d *Dataplane) applyRepartition(plan []nicsim.RetaChange) {
	if len(plan) == 0 {
		return
	}
	bySrc := make(map[int][]nicsim.RetaChange)
	for _, ch := range plan {
		bySrc[int(ch.From)] = append(bySrc[int(ch.From)], ch)
	}
	// Iterate sources in thread order, not map order (determinism).
	for srcID := 0; srcID < len(d.threads); srcID++ {
		changes := bySrc[srcID]
		if len(changes) == 0 {
			continue
		}
		src := d.threads[srcID]
		// bucket → destination thread, for this source's moving buckets.
		dstOf := make(map[int]*ElasticThread, len(changes))
		// (1) Quiesce the source once for all its outgoing buckets: the
		// run-to-completion model guarantees no flow state is
		// mid-operation between cycles; finishing the user batch extends
		// that guarantee to the syscall/event arrays.
		src.quiesce()
		// (2) Flip this source's RETA entries together; new arrivals for
		// the moving buckets now land on their destinations.
		for _, ch := range changes {
			dstOf[ch.Bucket] = d.threads[ch.To]
			d.NIC().SetRETAEntry(ch.Bucket, int(ch.To))
		}
		// (3) One ordered pass over the source ring. Frames here belong
		// only to buckets this source owned, and the destination rings
		// cannot yet hold frames of the moving groups (flip and drain
		// share a virtual instant), so tail insertion preserves
		// intra-flow order.
		for _, f := range src.rxq.Extract(func(f *fabric.Frame) bool {
			b, ok := d.NIC().FrameBucket(f.Data)
			return ok && dstOf[b] != nil
		}) {
			b, _ := d.NIC().FrameBucket(f.Data)
			if dstOf[b].rxq.Inject(f) {
				d.FramesRehomed++
			}
		}
		// (4) One pass over the source's connections.
		for _, c := range src.ns.TCP().Conns() {
			dst := dstOf[d.NIC().RSSBucket(c.Key().Reverse())]
			if dst == nil {
				continue
			}
			d.moveConn(src, dst, c)
		}
		d.Migrations += uint64(len(changes))
		for _, ch := range changes {
			d.threads[ch.To].wake()
		}
	}
}

// migrateResidual sweeps src for connections whose bucket no longer maps
// to it and re-homes them (removal safety net).
func (d *Dataplane) migrateResidual(src *ElasticThread) {
	src.quiesce()
	for _, c := range src.ns.TCP().Conns() {
		want := d.NIC().RSSQueue(c.Key().Reverse())
		if want == src.id {
			want = 0
		}
		if want >= len(d.threads) || d.threads[want] == src {
			want = 0
		}
		dst := d.threads[want]
		if dst == src {
			continue
		}
		d.moveConn(src, dst, c)
		dst.wake()
	}
}

// rehomeUserTimers transfers every pending user timer from src's wheel to
// dst's, preserving deadlines. The timer records carry their owning
// thread, so the EvTimer condition fires in dst's user phase.
func (d *Dataplane) rehomeUserTimers(src, dst *ElasticThread) {
	// Timers sharing a wheel slot fire in insertion order, so the
	// transfer sequence is sim-visible: walk the set in registration
	// order, never map-iteration order (found by ixvet/determinism).
	uts := make([]*userTimer, 0, len(src.userTimers))
	for ut := range src.userTimers {
		uts = append(uts, ut)
	}
	sort.Slice(uts, func(i, j int) bool { return uts[i].seq < uts[j].seq })
	moved := false
	for _, ut := range uts {
		delete(src.userTimers, ut)
		if !src.wheel.Transfer(ut.t, dst.wheel) {
			continue
		}
		ut.et = dst
		dst.userTimers[ut] = struct{}{}
		moved = true
	}
	if moved {
		// Re-evaluate dst's idle wakeup against the new earliest deadline.
		dst.wake()
	}
}

// moveConn re-homes one connection from src to dst: TCP state and timers,
// the protection-domain handle, and the user program's adoption event.
func (d *Dataplane) moveConn(src, dst *ElasticThread, c *tcp.Conn) {
	src.ns.TCP().Migrate(c, dst.ns.TCP())
	// Re-grant the handle in the destination namespace; the old handle
	// dies with the source thread's namespace.
	src.gate.Revoke(c.Handle)
	c.Handle = dst.gate.Grant(c)
	// Tell the destination's user program to adopt the flow.
	dst.events = append(dst.events, Event{Type: EvMigrated, Handle: c.Handle, Cookie: c.Cookie})
	d.FlowsMigrated++
}

// Tenant returns the dataplane's isolation-accounting tag.
func (d *Dataplane) Tenant() int { return d.cfg.Tenant }

// ResetStats zeroes measurement counters on all threads (start of a
// measurement window).
func (d *Dataplane) ResetStats() {
	d.retiredKernelNs = 0
	d.retiredUserNs = 0
	for _, et := range d.threads {
		et.Cycles = 0
		et.RxPackets = 0
		et.TxPackets = 0
		et.PoolDrops = 0
		et.KernelNs = 0
		et.UserNs = 0
		et.BatchHist.Reset()
		et.core.ResetStats()
	}
}

// CPUBreakdown reports aggregate kernel and user busy time across
// elastic threads since ResetStats (the §5.5 kernel-time measurement),
// including time retired with threads revoked mid-window — the charge
// stays with the tenant that spent it, not with whoever holds the core
// next.
func (d *Dataplane) CPUBreakdown() (kernel, user time.Duration) {
	kernel = time.Duration(d.retiredKernelNs)
	user = time.Duration(d.retiredUserNs)
	for _, et := range d.threads {
		kernel += time.Duration(et.KernelNs)
		user += time.Duration(et.UserNs)
	}
	return kernel, user
}

// BusyTotal is kernel plus user busy time since ResetStats (revoked
// threads included): the cycle charge of the isolation-accounting
// contract.
func (d *Dataplane) BusyTotal() time.Duration {
	k, u := d.CPUBreakdown()
	return k + u
}

// MeanBatch returns the average adaptive batch size over the window,
// from the histograms' exact sums (a per-thread Mean rounds to whole
// frames).
func (d *Dataplane) MeanBatch() float64 {
	var sum float64
	var n uint64
	for _, et := range d.threads {
		sum += float64(et.BatchHist.Sum())
		n += et.BatchHist.Count()
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// RxDrops reports NIC-edge drops (ring overflow) — where all queueing
// happens in IX (§3).
func (d *Dataplane) RxDrops() uint64 { return d.NIC().RxDrops }

// MaxThreads returns the hardware queue-pair budget.
func (d *Dataplane) MaxThreads() int { return d.cfg.MaxThreads }
