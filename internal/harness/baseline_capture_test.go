package harness

// Fixed-seed golden capture: exact output lines of small echo, chaos,
// memcached and drained-footprint runs across all three stacks, compared byte for byte
// against testdata/baseline.golden. A refactor that claims unchanged
// behaviour keeps this file untouched; one that changes a number on
// purpose regenerates it with
//
//	BASELINE_CAPTURE=1 go test -run TestBaselineCapture ./internal/harness/
//
// and says why in its commit.

import (
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"ix/internal/mutilate"
)

const baselineGolden = "testdata/baseline.golden"

func TestBaselineCapture(t *testing.T) {
	got := strings.Join(baselineLines(), "\n") + "\n"
	if os.Getenv("BASELINE_CAPTURE") != "" {
		if err := os.WriteFile(baselineGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", baselineGolden)
		return
	}
	raw, err := os.ReadFile(baselineGolden)
	if err != nil {
		t.Fatal(err)
	}
	want := string(raw)
	if got == want {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Errorf("line %d:\n got: %s\nwant: %s", i+1, g, w)
		}
	}
}

// baselineLines runs every captured configuration and formats one line
// per result.
func baselineLines() []string {
	var lines []string
	type cfg struct {
		name string
		s    EchoSetup
	}
	cases := []cfg{
		{"ix-echo", EchoSetup{
			ServerArch: ArchIX, ServerCores: 2,
			ClientArch: ArchLinux, ClientHosts: 2, ClientCores: 2,
			ConnsPerThread: 4, Rounds: 8, MsgSize: 64,
			Warmup: 2 * time.Millisecond, Window: 4 * time.Millisecond,
		}},
		{"ix-netpipe-4k", EchoSetup{
			ServerArch: ArchIX, ServerCores: 1,
			ClientArch: ArchIX, ClientHosts: 1, ClientCores: 1,
			ConnsPerThread: 1, Rounds: 0, MsgSize: 4096,
			Warmup: 2 * time.Millisecond, Window: 4 * time.Millisecond,
		}},
		{"mtcp-echo", EchoSetup{
			ServerArch: ArchMTCP, ServerCores: 2,
			ClientArch: ArchLinux, ClientHosts: 2, ClientCores: 2,
			ConnsPerThread: 4, Rounds: 8, MsgSize: 64,
			Warmup: 2 * time.Millisecond, Window: 4 * time.Millisecond,
		}},
		{"linux-echo", EchoSetup{
			ServerArch: ArchLinux, ServerCores: 2,
			ClientArch: ArchLinux, ClientHosts: 2, ClientCores: 2,
			ConnsPerThread: 4, Rounds: 8, MsgSize: 64,
			Warmup: 2 * time.Millisecond, Window: 4 * time.Millisecond,
		}},
		{"ix-rotation", EchoSetup{
			ServerArch: ArchIX, ServerCores: 2,
			ClientArch: ArchLinux, ClientHosts: 2, ClientCores: 2,
			ConnsPerThread: 50, Outstanding: 3, MsgSize: 64,
			Warmup: 3 * time.Millisecond, Window: 4 * time.Millisecond,
		}},
		{"ix-bigmsg", EchoSetup{
			ServerArch: ArchIX, ServerCores: 1,
			ClientArch: ArchIX, ClientHosts: 1, ClientCores: 1,
			ConnsPerThread: 1, Rounds: 0, MsgSize: 262144,
			Warmup: 2 * time.Millisecond, Window: 4 * time.Millisecond,
		}},
		// Messages past the kernel read chunk and the TCP window: the
		// socket adapters' chunked reads, sndbuf staging and ACK-clocked
		// flushes.
		{"linux-bigmsg", EchoSetup{
			ServerArch: ArchLinux, ServerCores: 1,
			ClientArch: ArchLinux, ClientHosts: 1, ClientCores: 1,
			ConnsPerThread: 1, Rounds: 0, MsgSize: 262144,
			Warmup: 2 * time.Millisecond, Window: 4 * time.Millisecond,
		}},
		{"mtcp-bigmsg", EchoSetup{
			ServerArch: ArchMTCP, ServerCores: 1,
			ClientArch: ArchMTCP, ClientHosts: 1, ClientCores: 1,
			ConnsPerThread: 1, Rounds: 0, MsgSize: 262144,
			Warmup: 2 * time.Millisecond, Window: 4 * time.Millisecond,
		}},
	}
	for _, c := range cases {
		res := RunEcho(c.s)
		lines = append(lines, fmt.Sprintf("%s: msgs=%.6f conns=%.6f p50=%v p99=%v mean=%v srvconns=%d kshare=%.9f batch=%.9f drops=%d kpm=%v",
			c.name, res.MsgsPerSec, res.ConnsPerSec, res.RTTp50, res.RTTp99, res.RTTMean,
			res.ServerConns, res.ServerKernelShare, res.MeanBatch, res.Drops, res.KernelPerMsg))
	}

	// Chaos legs: the kernel-socket adapters under loss, duplication,
	// corruption, jitter and flaps, serving and as the client fleet.
	for _, arch := range []Arch{ArchLinux, ArchMTCP} {
		res := RunChaos(ChaosSetup{ServerArch: arch, Phases: 4, Seed: 23})
		rates := make([]string, len(res.PhaseRates))
		for i, r := range res.PhaseRates {
			rates[i] = fmt.Sprintf("%.6f", r)
		}
		inj := res.Injected
		lines = append(lines, fmt.Sprintf("chaos-%v: msgs=%d injected=%d/%d/%d/%d/%d rexmit=%d ooo=%d connfail=%d rates=[%s]",
			arch, res.Msgs, inj.Delivered, inj.Dropped, inj.Duplicated, inj.Corrupted, inj.Delayed,
			res.Retransmits, res.OutOfOrder, res.ConnFailures, strings.Join(rates, " ")))
	}

	// Linux memcached: the kernel/user CPU split the socket adapter's
	// syscall charges feed (§5.5).
	mres := RunMemcached(MemcSetup{
		ServerArch: ArchLinux, ServerCores: 2, Workload: mutilate.USR, TargetRPS: 200_000,
		ClientHosts: 2, ClientCores: 2,
		Warmup: 2 * time.Millisecond, Window: 4 * time.Millisecond,
	})
	lines = append(lines, fmt.Sprintf("memc-Linux: rps=%.6f p99=%v mean=%v loadp99=%v kshare=%.9f hits=%d misses=%d",
		mres.AchievedRPS, mres.AgentP99, mres.AgentMean, mres.LoadP99, mres.ServerKernelShare, mres.Hits, mres.Misses))

	// Drained server footprints: per-socket adapter bytes (Linux, mTCP)
	// or capability slots and libix descriptors (IX), plus cookie table
	// capacity, on top of the TCP engine's tally.
	for _, arch := range []Arch{ArchLinux, ArchMTCP, ArchIX} {
		const conns = 64
		b := NewEchoBench(EchoSetup{
			ServerArch: arch, ServerCores: 2,
			ClientArch: ArchLinux, ClientHosts: 2, ClientCores: 2,
			MsgSize: 64, ExpectedConns: conns,
		})
		b.MeasurePoint(conns, 3, 2*time.Millisecond)
		bytes, n := drainedFootprint(b)
		b.Stop()
		lines = append(lines, fmt.Sprintf("footprint-%v: conns=%d bytes=%d", arch, n, bytes))
	}
	return lines
}
