package main

import (
	"fmt"
	"time"

	"ix/internal/app"
	"ix/internal/apps/memcached"
	"ix/internal/harness"
	"ix/internal/mutilate"
)

// memcParams sizes the memcached-usr workload (Fig. 5 / Table 2): IX
// memcached with 6 cores and B=64 under mutilate USR from hosts×cores
// Linux load threads with conns connections each, plus the unloaded
// latency agent. The offered load steps through rates (requests/s, all
// load threads together) in an open loop in virtual time; each rate
// settles for settle and is then measured for window.
type memcParams struct {
	hosts, cores, conns int
	rates               []float64
	// ref indexes the rate whose agent latency is sim_p50/p99_us; its
	// window is refWindow long, so the one agent connection collects
	// enough samples for a steady 99th percentile.
	ref               int
	warmup, settle    time.Duration
	window, refWindow time.Duration
}

var (
	memcFull = memcParams{hosts: 8, cores: 2, conns: 32,
		rates:  []float64{300e3, 600e3, 900e3, 1200e3, 1500e3},
		ref:    2,
		warmup: 20 * time.Millisecond, settle: 5 * time.Millisecond,
		window: 40 * time.Millisecond, refWindow: 320 * time.Millisecond}
	memcTiny = memcParams{hosts: 2, cores: 1, conns: 4,
		rates:  []float64{20e3, 40e3},
		ref:    0,
		warmup: 2 * time.Millisecond, settle: time.Millisecond,
		window: 3 * time.Millisecond, refWindow: 3 * time.Millisecond}
)

// windowOf returns the measurement window of rate k.
func (p memcParams) windowOf(k int) time.Duration {
	if k == p.ref {
		return p.refWindow
	}
	return p.window
}

const memcPort = 11211

func runMemcached(it *iteration, seed int64, p memcParams) {
	threads := p.hosts * p.cores
	m := mutilate.NewMetrics()
	var sent uint64
	var tb *testbed
	var store *memcached.Store
	var server harness.Host
	// rateAt is the offered-load schedule: rates[0] through warm-up,
	// then each rate for its settle+window.
	rateAt := func(now int64) float64 {
		k, end := 0, p.warmup
		for k < len(p.rates)-1 {
			end += p.settle + p.windowOf(k)
			if time.Duration(now) < end {
				break
			}
			k++
		}
		return p.rates[k] / float64(threads)
	}
	it.setupStep("build", func() {
		tb = newTestbed(seed, 1)
		store = memcached.NewStore(256 << 20)
		mutilate.Preload(store, mutilate.USR)
		server = tb.add("memcached", harness.HostSpec{
			Arch:       harness.ArchIX,
			Cores:      6,
			Ports:      1,
			BatchBound: 64,
			Factory:    memcached.ServerFactory(store, memcPort),
		})
		for i := 0; i < p.hosts; i++ {
			tb.add("mutilate", harness.HostSpec{
				Arch:  harness.ArchLinux,
				Cores: p.cores,
				Factory: countSends(mutilate.LoadFactory(mutilate.LoadConfig{
					ServerIP: server.IP(),
					Port:     memcPort,
					Workload: mutilate.USR,
					Conns:    p.conns,
					Schedule: rateAt,
					Pipeline: 4,
					Metrics:  m,
					Seed:     uint64(seed) + uint64(i)*977,
				}), &sent),
			})
		}
		tb.add("agent", harness.HostSpec{
			Arch:  harness.ArchLinux,
			Cores: 1,
			Factory: mutilate.AgentFactory(mutilate.AgentConfig{
				ServerIP: server.IP(),
				Port:     memcPort,
				Workload: mutilate.USR,
				Metrics:  m,
				Seed:     uint64(seed) * 31,
			}),
		})
	})
	it.setupStep("start", tb.cl.Start)
	it.setupStep("warmup", func() { tb.cl.Run(p.warmup) })
	dp := tb.cl.IXServer(0)

	sent0, dropped0 := sent, m.Dropped.Total()
	hits0, misses0 := store.Hits, store.Misses
	slaRPS := 0.0
	for k, rate := range p.rates {
		it.measure(tb, "settle", func() { tb.cl.Run(p.settle) })
		m.ResetWindow()
		dp.ResetStats()
		window := p.windowOf(k)
		it.measure(tb, "window", func() { tb.cl.Run(window) })
		it.tr.do("collect", func() {
			achieved := float64(m.Responses.Since()) / window.Seconds()
			dropped := m.Dropped.Since()
			p99 := m.AgentLatency.Quantile(0.99)
			it.sim[fmt.Sprintf("mutilate.achieved_frac_%s", rateName(rate))] = achieved / rate
			it.sim[fmt.Sprintf("memcached.agent_p99_ns_%s", rateName(rate))] = float64(p99)
			if p99 <= harness.SLA && achieved >= 0.99*rate && dropped == 0 {
				slaRPS = rate
			}
			if k == p.ref {
				recordLatency(it, m.AgentLatency)
				recordCore(it, dp, m.Responses.Since())
			}
			if k == len(p.rates)-1 {
				it.sim["sim_ops_per_s"] = achieved
			}
		})
	}
	it.sim["sim_sla_rps"] = slaRPS
	if hits, misses := store.Hits-hits0, store.Misses-misses0; hits+misses > 0 {
		it.sim["memcached.hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	it.takeLiveHeap(tb)

	// Accounting: requests issued in the measured phases plus those the
	// generator dropped; a request still unanswered after the drain, or
	// dropped, failed.
	dropped := m.Dropped.Total() - dropped0
	it.sim["mutilate.dropped"] = float64(dropped)
	it.tr.do("drain", func() {
		m.Running = false
		tb.cl.Run(10 * time.Millisecond)
	})
	// The footprint is taken on the drained, idle connections: under
	// load it would follow the depth of the request backlog.
	it.host["memprobe.walk_s"] += it.tr.do("footprint", func() {
		it.sim["sim_bytes_per_conn"] = tb.cl.HostFootprint(server).PerConn()
	}).Seconds()
	unanswered := sent - m.Responses.Total()
	it.attempted = sent - sent0 + dropped
	it.failed = dropped + unanswered
	checkPools(it, tb)
}

// rateName names an offered rate in thousands of requests per second.
func rateName(rate float64) string { return fmt.Sprintf("%04.0fk", rate/1000) }

// countSends wraps a mutilate load-generator factory so that every
// request it issues is counted in *n. The generator issues requests
// only on the connections handed to it in OnConnected, one request per
// Send, so wrapping those connections counts every request.
func countSends(f app.Factory, n *uint64) app.Factory {
	return func(env app.Env, thread, threads int) app.Handler {
		return sendCounter{Handler: f(env, thread, threads), n: n}
	}
}

type sendCounter struct {
	app.Handler
	n *uint64
}

func (h sendCounter) OnConnected(c app.Conn, ok bool) {
	if ok {
		c = countedConn{Conn: c, n: h.n}
	}
	h.Handler.OnConnected(c, ok)
}

type countedConn struct {
	app.Conn
	n *uint64
}

func (c countedConn) Send(b []byte) int {
	*c.n++
	return c.Conn.Send(b)
}
