// Package stats provides the measurement primitives used by the
// experiment harness: log-bucketed latency histograms with percentile
// queries (the paper reports averages and 99th percentiles) and simple
// counters/rates.
//
// Sinks are host Go memory shared by all client threads of an
// experiment, which under the sharded runtime means shared across OS
// workers. Recording therefore uses the commutative atomics exported by
// internal/sim/shard — the final values are independent of worker
// interleaving, so fixed-seed determinism is preserved. Reads
// (quantiles, rates, Reset/Merge) belong between runs, on the
// coordinating goroutine.
package stats

import (
	"fmt"
	"math"
	"time"

	"ix/internal/sim/shard"
)

// Histogram is a log-linear histogram of time.Duration samples, similar in
// spirit to HdrHistogram: buckets grow geometrically so that relative
// error is bounded (~2%) across nanoseconds-to-seconds ranges.
type Histogram struct {
	counts []uint64
	total  uint64
	sum    int64 // nanoseconds; exact (and float64-identical) below 2^53
	min    int64
	max    int64
}

// subBuckets is the number of linear sub-buckets per power of two;
// 32 gives ≈3% worst-case relative error.
const subBuckets = 32

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{counts: make([]uint64, 64*subBuckets), min: math.MaxInt64}
}

func bucketOf(v int64) int {
	if v < 1 {
		v = 1
	}
	exp := 63 - leadingZeros(uint64(v))
	if exp < 5 { // values < 32 map linearly
		return int(v)
	}
	sub := (v >> (uint(exp) - 5)) & (subBuckets - 1)
	return (exp-4)*subBuckets + int(sub)
}

func leadingZeros(x uint64) int {
	n := 0
	if x == 0 {
		return 64
	}
	for x&(1<<63) == 0 {
		x <<= 1
		n++
	}
	return n
}

// bucketLow returns a representative (lower-bound) value for bucket i.
func bucketLow(i int) int64 {
	if i < subBuckets {
		return int64(i)
	}
	exp := i/subBuckets + 4
	sub := i % subBuckets
	return (1 << uint(exp)) + int64(sub)<<(uint(exp)-5)
}

// Record adds one sample. Safe to call concurrently from shard workers.
func (h *Histogram) Record(d time.Duration) {
	if d < 0 {
		d = 0
	}
	b := bucketOf(int64(d))
	if b >= len(h.counts) {
		b = len(h.counts) - 1
	}
	shard.Add64(&h.counts[b], 1)
	shard.Add64(&h.total, 1)
	shard.AddI64(&h.sum, int64(d))
	shard.MinI64(&h.min, int64(d))
	shard.MaxI64(&h.max, int64(d))
}

// Count returns the number of samples.
func (h *Histogram) Count() uint64 { return shard.Load64(&h.total) }

// Sum returns the exact total of the samples.
func (h *Histogram) Sum() time.Duration { return time.Duration(shard.LoadI64(&h.sum)) }

// Mean returns the average sample, or 0 with no samples.
func (h *Histogram) Mean() time.Duration {
	if h.total == 0 {
		return 0
	}
	return time.Duration(float64(h.sum) / float64(h.total))
}

// Min returns the smallest sample, or 0 with no samples.
func (h *Histogram) Min() time.Duration {
	if h.total == 0 {
		return 0
	}
	return time.Duration(h.min)
}

// Max returns the largest sample.
func (h *Histogram) Max() time.Duration { return time.Duration(h.max) }

// Quantile returns the q-quantile (0 ≤ q ≤ 1), e.g. 0.99 for the 99th
// percentile. The result is a bucket lower bound, so it never overstates
// latency by more than one bucket width.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h.total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(h.total)))
	if rank == 0 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			v := bucketLow(i)
			if v > h.max {
				return time.Duration(h.max)
			}
			return time.Duration(v)
		}
	}
	return time.Duration(h.max)
}

// Reset clears all samples. Between runs only.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.total = 0
	h.sum = 0
	h.min = math.MaxInt64
	h.max = 0
}

// Merge adds all samples of o into h. Between runs only.
func (h *Histogram) Merge(o *Histogram) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.total += o.total
	h.sum += o.sum
	if o.total > 0 && o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
}

// String summarizes the histogram.
func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d avg=%v p50=%v p99=%v max=%v",
		h.total, h.Mean(), h.Quantile(0.5), h.Quantile(0.99), time.Duration(h.max))
}

// Counter is a monotonically increasing event counter with a measurement
// epoch, used for throughput (events per second of virtual time).
// Increments are safe from shard workers; Reset belongs between runs.
type Counter struct {
	n     uint64
	epoch uint64 // value at last Reset
}

// Inc adds one.
func (c *Counter) Inc() { shard.Add64(&c.n, 1) }

// Add adds n.
func (c *Counter) Add(n uint64) { shard.Add64(&c.n, n) }

// Total returns the all-time count.
func (c *Counter) Total() uint64 { return shard.Load64(&c.n) }

// Reset marks the start of a measurement window.
func (c *Counter) Reset() { c.epoch = shard.Load64(&c.n) }

// Since returns the count accumulated since the last Reset.
func (c *Counter) Since() uint64 { return shard.Load64(&c.n) - c.epoch }

// Rate returns events per second over a window of virtual duration d.
func Rate(events uint64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(events) / d.Seconds()
}
