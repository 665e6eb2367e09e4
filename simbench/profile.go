package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// sample is one decoded CPU-profile sample: its call stack (function
// names, innermost first, inlined frames expanded), the number of
// profiling ticks it stands for, and its span label.
type sample struct {
	stack []string
	count int64
	span  string
}

// cpuBuckets are the buckets every sample lands in: one per simulator
// module under ix/internal (sim/shard gets its own), the Go runtime's
// GC and map routines, and "other" for everything else (scheduler,
// syscalls, the benchmark's own code). The order is the report order.
var cpuBuckets = []string{
	"sim", "shard", "tcp", "nicsim", "fabric", "core", "libix",
	"linuxstack", "mtcpstack", "netstack", "timerwheel", "mem", "wire",
	"apps", "mutilate", "faults", "memprobe", "harness", "stats", "cost",
	"dune", "gc", "map", "other",
}

// mapPrefixes name the Go runtime's map routines (the classic runtime
// entry points and the Swiss-table implementation of Go 1.24).
var mapPrefixes = []string{
	"runtime.mapaccess", "runtime.mapassign", "runtime.mapdelete",
	"runtime.mapiter", "runtime.mapclear", "internal/runtime/maps.",
}

// gcPrefixes name the entry points of garbage-collector work: the
// background mark workers, mark assists charged to allocating code,
// sweeping (background and proportional) and write-barrier flushes.
var gcPrefixes = []string{
	"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge",
	"runtime.sweepone", "runtime.deductSweepCredit", "runtime.(*sweepLocked).sweep",
	"runtime.(*mspan).sweep", "runtime.markroot", "runtime.scanobject",
	"runtime.wbBufFlush", "runtime.(*mheap).reclaim",
}

// bucketOf applies the bucketing rule to one stack: walking from the
// innermost frame outwards, the first frame that is a runtime map
// routine puts the sample in "map", the first that is GC work puts it
// in "gc", and the first ix/internal/<module> frame puts it in that
// module's bucket. A stack with none of these lands in "other".
func bucketOf(stack []string) string {
	for _, fn := range stack {
		if hasAnyPrefix(fn, mapPrefixes) {
			return "map"
		}
		if hasAnyPrefix(fn, gcPrefixes) {
			return "gc"
		}
		if m, ok := ixModule(fn); ok {
			return m
		}
	}
	return "other"
}

// ixModule returns the bucket of a function under ix/internal: the
// first path element after internal/ ("apps/echo" → "apps"), except
// that sim/shard is reported as "shard". Modules without a bucket of
// their own report "other".
func ixModule(fn string) (string, bool) {
	rest, ok := strings.CutPrefix(fn, "ix/internal/")
	if !ok {
		return "", false
	}
	if strings.HasPrefix(rest, "sim/shard.") {
		return "shard", true
	}
	end := strings.IndexAny(rest, "/.")
	if end < 0 {
		end = len(rest)
	}
	m := rest[:end]
	for _, b := range cpuBuckets {
		if b == m {
			return m, true
		}
	}
	return "other", true
}

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// bucketSamples sums sample counts per bucket. Every sample lands in
// exactly one bucket, so the counts add up to the total.
func bucketSamples(samples []sample) (counts map[string]int64, total int64) {
	counts = make(map[string]int64, len(cpuBuckets))
	for _, b := range cpuBuckets {
		counts[b] = 0
	}
	for _, s := range samples {
		counts[bucketOf(s.stack)] += s.count
		total += s.count
	}
	return counts, total
}

// decodeProfile decodes a gzipped pprof CPU profile as written by
// runtime/pprof into samples. It reads only the fields the bucketing
// needs: samples (location ids, values, labels), locations (lines),
// functions (names) and the string table.
func decodeProfile(raw []byte) ([]sample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type rawSample struct {
		locs   []uint64
		values []int64
		labels [][2]int64 // key, str
	}
	var (
		samples []rawSample
		strs    []string
		funcs   = map[uint64]int64{}    // function id → name index
		locs    = map[uint64][]uint64{} // location id → function ids, innermost first
	)
	err = walkFields(data, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s rawSample
			err := walkFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendPacked(s.locs, v, b)
				case 2:
					for _, x := range appendPacked(nil, v, b) {
						s.values = append(s.values, int64(x))
					}
				case 3:
					var kv [2]int64
					err := walkFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 || f == 2 {
							kv[f-1] = int64(v)
						}
						return nil
					})
					if err != nil {
						return err
					}
					s.labels = append(s.labels, kv)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := walkFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return walkFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := walkFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	out := make([]sample, 0, len(samples))
	for _, rs := range samples {
		s := sample{count: 1}
		if len(rs.values) > 0 {
			s.count = rs.values[0]
		}
		for _, l := range rs.locs {
			for _, fid := range locs[l] {
				s.stack = append(s.stack, str(funcs[fid]))
			}
		}
		for _, kv := range rs.labels {
			if str(kv[0]) == "span" {
				s.span = str(kv[1])
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// appendPacked appends a repeated integer field that may arrive either
// as one varint (v) or as a packed run of varints (b).
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// walkFields calls fn for each field of a protobuf message: varint
// fields pass their value with b == nil, length-delimited fields pass
// their bytes. Fixed-width fields are skipped.
func walkFields(data []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("bad field key")
		}
		data = data[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(data)
			if n <= 0 {
				return errors.New("bad varint")
			}
			data = data[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(data) < 8 {
				return errors.New("short fixed64")
			}
			data = data[8:]
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errors.New("bad length")
			}
			b := data[n : n+int(l)]
			data = data[n+int(l):]
			if err := fn(field, 0, b); err != nil {
				return err
			}
		case 5:
			if len(data) < 4 {
				return errors.New("short fixed32")
			}
			data = data[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}
