// Command simbench is the benchmark of the IX reproduction. It measures
// both clocks of the simulator on one named workload: the host cost of
// regenerating a figure (set-up and measured wall time, CPU, memory)
// and the simulated results the figure reports (virtual-time
// throughput, latency, bytes per connection), and it checks the
// workload's correctness invariants.
//
// Usage, from the repository root (simbench/run.sh builds and runs it):
//
//	simbench --workload conn-scale --seed 1 --seconds 35 --trace 0
//
// Each run repeats the workload on fresh clusters with the same seed for
// about --seconds (at least three times), reports host costs as medians
// and requires every simulated quantity to repeat exactly (the digest).
// With --trace 1 it instead reports per-layer metrics, including CPU
// shares by module from a profiled iteration, and writes the spans and
// profiles under --out. The last line of standard output is the result
// as one JSON object; the human-readable report goes to standard error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// workload is one named set of inputs the benchmark runs.
type workload struct {
	name string
	run  func(it *iteration, seed int64, tiny bool)
}

var workloads = []workload{
	{"conn-scale", func(it *iteration, seed int64, tiny bool) {
		runConnScale(it, seed, pick(tiny, connScaleFull, connScaleTiny))
	}},
	{"memcached-usr", func(it *iteration, seed int64, tiny bool) {
		runMemcached(it, seed, pick(tiny, memcFull, memcTiny))
	}},
	{"chaos", func(it *iteration, seed int64, tiny bool) {
		runChaos(it, seed, pick(tiny, chaosFull, chaosTiny))
	}},
}

func pick[T any](tiny bool, full, small T) T {
	if tiny {
		return small
	}
	return full
}

// minIterations is the fewest iterations an untraced run makes, so that
// every host-cost metric, setup_s included, is a median of several.
const minIterations = 3

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("simbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "workload seed; every simulated input derives from it")
	seconds := fs.Int("seconds", 35, "approximate wall-clock length of the run")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	out := fs.String("out", filepath.Join(".bench_build", "simbench-trace"), "directory for the spans and profiles of traced runs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *trace < 0 || *trace > 1 || *seconds < 1 {
		fmt.Fprintf(stderr, "simbench: need --workload (one of %s), --seconds ≥ 1 and --trace 0 or 1\n", workloadNames())
		return 2
	}
	rep := execute(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, false)
	rep.print(stderr)
	if rep.traced != nil {
		prefix := fmt.Sprintf("%s-seed%d", w.name, *seed)
		if err := writeTrace(*out, prefix, rep.spans(), rep.traced.prof.raw); err != nil {
			fmt.Fprintf(stderr, "simbench: writing trace: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "spans and profiles written to %s/%s.*\n", *out, prefix)
	}
	fmt.Fprintf(stdout, "digest %s %s seed=%d\n", w.name, rep.digest, *seed)
	b, err := json.Marshal(rep.result(*trace == 1))
	if err != nil {
		fmt.Fprintf(stderr, "simbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// report is the outcome of one invocation.
type report struct {
	untraced []*iteration
	traced   *iteration // nil on untraced runs
	digest   string
	problems []string
	// sharedPeak is set where the peak RSS could not be restarted
	// between iterations, so every iteration's reading is the peak of
	// the process so far.
	sharedPeak bool
}

// execute runs the workload. An untraced run repeats iterations for
// about budget (at least minIterations); a traced run makes an untraced
// iteration, the traced one, and another untraced one, so the tracing
// overhead compares neighbours.
func execute(w *workload, seed int64, budget time.Duration, traced, tiny bool) *report {
	rep := &report{}
	n := 0
	one := func(profile bool) *iteration {
		// Leave the previous iteration's garbage behind and return its
		// heap to the OS, so that every iteration's peak RSS is its own.
		if !resetPeakRSS() {
			rep.sharedPeak = true
		}
		it := newIteration(n, profile)
		n++
		w.run(it, seed, tiny)
		it.peakRSS = peakRSS()
		it.finish()
		return it
	}
	start := time.Now()
	if traced {
		rep.untraced = append(rep.untraced, one(false))
		rep.traced = one(true)
		rep.untraced = append(rep.untraced, one(false))
	} else {
		for {
			elapsed := time.Since(start)
			k := len(rep.untraced)
			if k >= minIterations && elapsed+elapsed/time.Duration(k) > budget {
				break
			}
			rep.untraced = append(rep.untraced, one(false))
		}
	}
	rep.checkDigests()
	return rep
}

// checkDigests requires every iteration to repeat the first one's
// simulated quantities exactly.
func (r *report) checkDigests() {
	for _, it := range r.all() {
		d := it.digest()
		if r.digest == "" {
			r.digest = d
		} else if d != r.digest {
			r.problems = append(r.problems, fmt.Sprintf("digest of iteration %d is %s, not %s: the simulation did not repeat", it.tr.run, d, r.digest))
		}
	}
}

func (r *report) all() []*iteration {
	if r.traced == nil {
		return r.untraced
	}
	return []*iteration{r.untraced[0], r.traced, r.untraced[1]}
}

func (r *report) spans() []span {
	var out []span
	for _, it := range r.all() {
		out = append(out, it.tr.spans...)
	}
	return out
}

// result assembles the JSON result: every end-to-end metric on untraced
// runs, every per-layer metric on traced ones. A digest mismatch fails
// every operation of the run.
func (r *report) result(traced bool) result {
	res := result{Metrics: map[string]metricValue{}}
	for _, it := range r.all() {
		res.Attempted += it.attempted
		res.Failed += it.failed
	}
	if len(r.problems) > 0 {
		res.Failed = res.Attempted
	}
	res.Correct = res.Failed == 0
	if traced {
		vals := layerValues(r.untraced, r.traced)
		for _, m := range perLayer {
			res.Metrics[m.Name] = metricValue{vals[m.Name], m.Unit}
		}
	} else {
		vals := endToEndValues(r.untraced)
		for _, m := range endToEnd {
			res.Metrics[m.Name] = metricValue{vals[m.Name], m.Unit}
		}
	}
	return res
}

// print writes the human-readable report.
func (r *report) print(w io.Writer) {
	for _, it := range r.all() {
		kind := "untraced"
		if it.prof != nil {
			kind = "traced"
		}
		fmt.Fprintf(w, "iteration %d (%s): setup %.3fs (raw %.3fs)  measured %.3fs (raw %.3fs, steal %.2fs)  cpu %.3fs  live heap %.1fMB  peak rss %.1fMB  virtual %v  ops %d  failed %d  digest %s\n",
			it.tr.run, kind, it.setup.net().Seconds(), it.setup.wall.Seconds(), it.measured.net().Seconds(),
			it.measured.wall.Seconds(), it.measured.steal.Seconds(), it.measured.cpu.Seconds(),
			float64(it.liveHeap)/(1<<20), float64(it.peakRSS)/(1<<20), it.virtual, it.attempted, it.failed, it.digest())
		for _, p := range it.problems {
			fmt.Fprintf(w, "  INVARIANT: %s\n", p)
		}
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "DETERMINISM: %s\n", p)
	}
	if r.sharedPeak {
		fmt.Fprintln(w, "note: /proc/self/clear_refs is not writable, so peak_rss_mb is the peak of the process up to the end of its first iteration")
	}
	first := r.untraced[0]
	fmt.Fprintln(w, "end-to-end:")
	e2e := endToEndValues(r.untraced)
	for _, m := range endToEnd {
		note := ""
		if m.Name == "sim_p50_us" || m.Name == "sim_p99_us" {
			note = fmt.Sprintf("  (%.0f samples)", first.sim["sim.latency_samples"])
		}
		fmt.Fprintf(w, "  %-22s %14s %s%s\n", m.Name, formatValue(e2e[m.Name]), m.Unit, note)
	}
	var keys []string
	for k := range first.sim {
		if !strings.HasPrefix(k, "sim_") {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	fmt.Fprintln(w, "simulated detail:")
	for _, k := range keys {
		fmt.Fprintf(w, "  %-34s %s\n", k, formatValue(first.sim[k]))
	}
	if r.traced == nil {
		return
	}
	layers := layerValues(r.untraced, r.traced)
	fmt.Fprintln(w, "per-layer:")
	for _, m := range perLayer {
		if strings.HasPrefix(m.Name, "cpu.") {
			continue
		}
		fmt.Fprintf(w, "  %-34s %14s %s\n", m.Name, formatValue(layers[m.Name]), m.Unit)
	}
	counts, total := bucketSamples(r.traced.prof.samples)
	fmt.Fprintf(w, "host CPU of the measured phases by module (%d samples; shares sum to 1):\n", total)
	for _, b := range cpuBuckets {
		if counts[b] > 0 {
			fmt.Fprintf(w, "  cpu.%-12s %6.3f  (%d samples)\n", b, layers["cpu."+b+"_frac"], counts[b])
		}
	}
	perSpan := map[string]int64{}
	for _, s := range r.traced.prof.samples {
		perSpan[s.span] += s.count
	}
	fmt.Fprintf(w, "samples by span label: %v\n", perSpan)
	fmt.Fprintf(w, "tracing overhead: the traced iteration's measured phases took %+.1f%% against the untraced median\n",
		100*layers["trace.overhead_frac"])
}
