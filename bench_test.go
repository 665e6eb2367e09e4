package ix

import (
	"testing"
	"time"

	"ix/internal/cost"
	"ix/internal/harness"
)

// Benchmarks regenerating the paper's evaluation (§5), one per figure or
// table. They run at Quick scale so `go test -bench=.` completes in
// minutes; `cmd/ixbench -scale full` runs the paper-scale versions. Each
// benchmark reports its headline quantity via b.ReportMetric so the
// shapes are visible in benchmark output.

// benchScale shrinks windows further under -bench to keep runs snappy,
// but runs the Fig. 4 sweep to the paper's full 250k connections: the
// quiet-ramp establishment fast path plus the persistent warmed cluster
// (one ramp per configuration, delta establishment between points) make
// the full axis cheaper than PR 4's 100k cold sweep.
var benchScale = func() Scale {
	s := Quick
	s.Warmup = 2 * time.Millisecond
	s.Window = 6 * time.Millisecond
	s.RPSSteps = 3
	s.MaxConns = 250_000
	return s
}()

// BenchmarkFig2NetPIPE regenerates Figure 2 (NetPIPE goodput vs message
// size; §5.2 latency numbers).
func BenchmarkFig2NetPIPE(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := harness.Fig2(benchScale)
		reportPeak(b, r, "IX-IX", "IX_peak_Gbps")
		reportPeak(b, r, "Linux-Linux", "Linux_peak_Gbps")
	}
}

// BenchmarkFig3aCoreScaling regenerates Figure 3a (multi-core scaling).
func BenchmarkFig3aCoreScaling(b *testing.B) {
	sc := benchScale
	for i := 0; i < b.N; i++ {
		r := harness.Fig3a(sc)
		reportPeak(b, r, "IX-10", "IX10_peak_msgs")
		reportPeak(b, r, "Linux-10", "Linux10_peak_msgs")
	}
}

// BenchmarkFig3bMsgsPerConn regenerates Figure 3b (n round trips per
// connection).
func BenchmarkFig3bMsgsPerConn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := harness.Fig3b(benchScale)
		reportPeak(b, r, "IX-10", "IX10_peak_msgs")
		reportPeak(b, r, "mTCP-10", "mTCP10_peak_msgs")
	}
}

// BenchmarkFig3cMsgSize regenerates Figure 3c (message size sweep).
func BenchmarkFig3cMsgSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := harness.Fig3c(benchScale)
		reportPeak(b, r, "IX-40", "IX40_peak_Gbps")
	}
}

// BenchmarkFig4ConnScaling regenerates Figure 4 (connection scalability).
// Besides the peak message rate it reports the per-connection memory at
// the largest population (the DESIGN.md bytes/conn budget); the metric
// name carries "bytes" so benchjson gates it lower-is-better.
func BenchmarkFig4ConnScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := harness.Fig4(benchScale)
		reportPeak(b, r, "IX-40", "IX40_peak_msgs")
		if v, ok := r.Scalar("IX-40 bytes/conn"); ok {
			b.ReportMetric(v, "IX40_bytes_per_conn")
		}
		if v, ok := r.Scalar("Linux-40 bytes/conn"); ok {
			b.ReportMetric(v, "Linux40_bytes_per_conn")
		}
	}
}

// BenchmarkFig5Memcached regenerates Figure 5 (memcached
// latency-throughput for ETC and USR on Linux and IX).
func BenchmarkFig5Memcached(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := harness.Fig5(benchScale)
		reportPeak(b, r, "USR-IX(kernel%)", "IX_kernel_pct")
	}
}

// BenchmarkHTTPKV runs the httpkv composite application (HTTP/1.1 echo
// tier + redis-like KV tier over the ixnet blocking facade) on IX and
// Linux and reports the IX stack's combined op rate — the headline for
// how much throughput the fiber bridge preserves over raw event code.
func BenchmarkHTTPKV(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := harness.HTTPKV(benchScale)
		if v, ok := r.Get("HTTP+KV ops/s", 0); ok {
			b.ReportMetric(v, "IX_ops_per_sec")
		}
		if v, ok := r.Get("HTTP+KV ops/s", 1); ok {
			b.ReportMetric(v, "Linux_ops_per_sec")
		}
	}
}

// BenchmarkFig6BatchBound regenerates Figure 6 (batch bound sweep).
func BenchmarkFig6BatchBound(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := harness.Fig6(benchScale)
		_ = r
	}
}

// BenchmarkTable2SLA regenerates Table 2 (unloaded latency and SLA
// throughput).
func BenchmarkTable2SLA(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := harness.Table2(benchScale)
		if v, ok := r.Get("USR-IX", 0); ok {
			b.ReportMetric(v, "USR_IX_SLA_RPS")
		}
		if v, ok := r.Get("USR-Linux", 0); ok {
			b.ReportMetric(v, "USR_Linux_SLA_RPS")
		}
	}
}

// BenchmarkAblations runs the §6/DESIGN.md ablation points: batching off
// vs on, and polling vs interrupt-like behaviour, as single echo runs.
// The client fleet must over-drive the 2-core server: with the earlier
// 4×2-core fleet the offered load sat exactly at the B=1 service rate, so
// both batch bounds reported the same (client-bound) throughput and the
// Fig. 6 batching effect was invisible.
func BenchmarkAblations(b *testing.B) {
	run := func(b *testing.B, bound int) {
		for i := 0; i < b.N; i++ {
			res := RunEcho(EchoSetup{
				ServerArch: ArchIX, ServerCores: 2, BatchBound: bound,
				ClientArch: ArchLinux, ClientHosts: 8, ClientCores: 4,
				ConnsPerThread: 8, Rounds: 256, MsgSize: 64,
				Warmup: 2 * time.Millisecond, Window: 6 * time.Millisecond,
			})
			b.ReportMetric(res.MsgsPerSec, "msgs/s")
		}
	}
	b.Run("batch=1", func(b *testing.B) { run(b, 1) })
	b.Run("batch=64", func(b *testing.B) { run(b, 64) })
}

// BenchmarkIncastRTOSweep regenerates the incast goodput-collapse
// figure (N-to-1 synchronized bursts, MinRTO swept 200µs → 16µs).
func BenchmarkIncastRTOSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := harness.Incast(benchScale)
		if v, ok := r.Get("MinRTO=200µs", 16); ok {
			b.ReportMetric(v, "RTO200us_16senders_Gbps")
		}
		if v, ok := r.Get("MinRTO=16µs", 16); ok {
			b.ReportMetric(v, "RTO16us_16senders_Gbps")
		}
	}
}

// BenchmarkChaosFleet regenerates the randomized-fault-schedule echo
// experiment with its end-to-end invariant checks.
func BenchmarkChaosFleet(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := harness.Chaos(benchScale)
		reportPeak(b, r, "msgs/s", "peak_phase_msgs")
	}
}

// BenchmarkTenantArbiter runs the multi-tenant arbitration experiment:
// three tenants on one shared machine, a flash crowd on the frontend,
// and the SLO-driven arbiter reallocating cores through it.
func BenchmarkTenantArbiter(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := harness.Tenants(benchScale)
		reportPeak(b, r, "frontend cores", "frontend_peak_cores")
	}
}

func reportPeak(b *testing.B, r *Result, label, metric string) {
	b.Helper()
	if v := r.Max(label); v > 0 {
		b.ReportMetric(v, metric)
	}
}

// BenchmarkAblationZeroCopy isolates the zero-copy API: the same IX
// dataplane with a per-byte copy charged on RX and TX (a conventional
// socket layer) versus the real zero-copy path (§3, §6).
func BenchmarkAblationZeroCopy(b *testing.B) {
	run := func(b *testing.B, withCopy bool) {
		c := cost.DefaultIX()
		if withCopy {
			c.CopyPerByte = 0.25
		}
		for i := 0; i < b.N; i++ {
			res := RunEcho(EchoSetup{
				ServerArch: ArchIX, ServerCores: 1, IXCost: &c,
				ClientArch: ArchLinux, ClientHosts: 8, ClientCores: 4,
				ConnsPerThread: 8, Rounds: 256, MsgSize: 1024,
				Warmup: 2 * time.Millisecond, Window: 6 * time.Millisecond,
			})
			b.ReportMetric(res.MsgsPerSec, "msgs/s")
		}
	}
	b.Run("zero-copy", func(b *testing.B) { run(b, false) })
	b.Run("copying", func(b *testing.B) { run(b, true) })
}

// BenchmarkAblationDoorbell isolates the §6 PCIe doorbell coalescing:
// one descriptor-ring write per packet versus batched replenishment.
func BenchmarkAblationDoorbell(b *testing.B) {
	run := func(b *testing.B, perPacket bool) {
		c := cost.DefaultIX()
		c.NoDoorbellCoalesce = perPacket
		for i := 0; i < b.N; i++ {
			res := RunEcho(EchoSetup{
				ServerArch: ArchIX, ServerCores: 1, IXCost: &c,
				ClientArch: ArchLinux, ClientHosts: 8, ClientCores: 4,
				ConnsPerThread: 8, Rounds: 256, MsgSize: 64,
				Warmup: 2 * time.Millisecond, Window: 6 * time.Millisecond,
			})
			b.ReportMetric(res.MsgsPerSec, "msgs/s")
		}
	}
	b.Run("coalesced", func(b *testing.B) { run(b, false) })
	b.Run("per-packet", func(b *testing.B) { run(b, true) })
}
