package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"time"
)

// span is one timed call from the benchmark into a layer of the
// simulator: build, start, ramp, warm-up, window, heal/drain, collect or
// footprint walk. Spans of one iteration share a run id; Parent is the
// index of the enclosing span in the same iteration (-1 at top level).
type span struct {
	Name   string  `json:"name"`
	Run    int     `json:"run"`
	Parent int     `json:"parent"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// tracer records the spans of one iteration in memory. With profiling
// on, each span body also runs under the pprof labels span=<name> and
// run=<id>, so CPU samples taken inside it (including those of shard
// workers, which inherit the labels of the goroutine that starts them)
// carry the span they belong to.
type tracer struct {
	run     int
	profile bool
	epoch   time.Time
	spans   []span
	open    []int
}

func newTracer(run int, profile bool) *tracer {
	return &tracer{run: run, profile: profile, epoch: time.Now()}
}

// do runs fn as a span named name and returns its wall duration.
func (t *tracer) do(name string, fn func()) time.Duration {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	idx := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Run: t.run, Parent: parent})
	t.open = append(t.open, idx)
	start := time.Now()
	if t.profile {
		labels := pprof.Labels("span", name, "run", strconv.Itoa(t.run))
		pprof.Do(context.Background(), labels, func(context.Context) { fn() })
	} else {
		fn()
	}
	end := time.Now()
	t.open = t.open[:len(t.open)-1]
	t.spans[idx].Start = start.Sub(t.epoch).Seconds()
	t.spans[idx].End = end.Sub(t.epoch).Seconds()
	return end.Sub(start)
}

// profiler collects CPU profiles of the measured phases of one traced
// iteration. Each phase is profiled on its own and the decoded samples
// are concatenated, so a workload with several measured phases (the
// three chaos legs) yields one sample set.
type profiler struct {
	buf     bytes.Buffer
	samples []sample
	raw     [][]byte
}

func (p *profiler) start() error {
	p.buf.Reset()
	return pprof.StartCPUProfile(&p.buf)
}

func (p *profiler) stop() error {
	pprof.StopCPUProfile()
	raw := append([]byte(nil), p.buf.Bytes()...)
	s, err := decodeProfile(raw)
	if err != nil {
		return fmt.Errorf("decode cpu profile: %w", err)
	}
	p.raw = append(p.raw, raw)
	p.samples = append(p.samples, s...)
	return nil
}

// writeTrace writes the spans of every iteration and the raw CPU
// profiles of the traced one under dir, once the run has ended.
func writeTrace(dir, prefix string, spans []span, profiles [][]byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(spans, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, prefix+".spans.json"), b, 0o644); err != nil {
		return err
	}
	for i, raw := range profiles {
		name := filepath.Join(dir, fmt.Sprintf("%s.measure%d.pprof", prefix, i))
		if err := os.WriteFile(name, raw, 0o644); err != nil {
			return err
		}
	}
	return nil
}
