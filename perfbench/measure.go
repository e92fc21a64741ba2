package main

import (
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// op is one timed operation of the measured phase: a collective step
// (timed as its slowest rank) or one client request.
type op struct {
	write  bool          // grow-append step or serve PUT (else a read)
	traced bool          // ran with spans recorded (trace runs only)
	lat    time.Duration // the operation's own latency
	bytes  int64         // user payload bytes moved
	end    time.Duration // active clock at completion
	cpu    time.Duration // active process CPU at completion
	rss    float64       // resident set, MiB, when sampled at completion (else 0)
}

// clock is the measured-phase clock: wall and process CPU since start,
// minus the intervals spent paused (epoch resets and read-back checks
// that fall inside the phase). pause/resume and now are called from one
// goroutine, or only now, concurrently, when the clock never pauses.
type clock struct {
	t0                    time.Time
	cpu0                  time.Duration
	pausedWall, pausedCPU time.Duration
	pw                    time.Time
	pc                    time.Duration
}

func startClock() *clock { return &clock{t0: time.Now(), cpu0: processCPU()} }

func (c *clock) now() (wall, cpu time.Duration) {
	return time.Since(c.t0) - c.pausedWall, processCPU() - c.cpu0 - c.pausedCPU
}

func (c *clock) pause() { c.pw, c.pc = time.Now(), processCPU() }

func (c *clock) resume() {
	c.pausedWall += time.Since(c.pw)
	c.pausedCPU += processCPU() - c.pc
}

// processCPU is the process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssMB is the process's current resident set in MiB, from
// /proc/self/statm (0 where that is unavailable).
func rssMB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0
	}
	return float64(pages*int64(os.Getpagesize())) / (1 << 20)
}

// rssSampler rate-limits RSS samples to one per rssEvery, so reading
// /proc costs the loop nothing measurable. Not safe for concurrent use.
type rssSampler struct{ last time.Time }

const rssEvery = 20 * time.Millisecond

func (s *rssSampler) sample() float64 {
	if time.Since(s.last) < rssEvery {
		return 0
	}
	s.last = time.Now()
	return rssMB()
}

// window is the span of active time one throughput/CPU sample covers.
// Reporting the median over a run's windows keeps a transient stall of
// the shared host from moving the run's figure.
const window = 500 * time.Millisecond

// windowRates splits ops by completion time into whole windows and
// returns each window's throughput (MB/s), CPU cost (ms per MB) and
// peak sampled resident set (MiB). The trailing partial window is
// dropped unless it is the only one.
func windowRates(ops []op) (mbps, cpuPerMB, rss []float64) {
	if len(ops) == 0 {
		return nil, nil, nil
	}
	s := append([]op(nil), ops...)
	sort.Slice(s, func(a, b int) bool { return s[a].end < s[b].end })
	last := s[len(s)-1].end
	n := int(last / window)
	if n == 0 {
		var b int64
		var peak float64
		for _, o := range s {
			b += o.bytes
			peak = max(peak, o.rss)
		}
		mb := float64(b) / 1e6
		return []float64{mb / last.Seconds()}, []float64{ms(s[len(s)-1].cpu) / mb}, []float64{peak}
	}
	bytes := make([]int64, n)
	cpuEnd := make([]time.Duration, n)
	peak := make([]float64, n)
	for _, o := range s {
		k := int(o.end / window)
		if k >= n {
			break
		}
		bytes[k] += o.bytes
		cpuEnd[k] = max(cpuEnd[k], o.cpu)
		peak[k] = max(peak[k], o.rss)
	}
	var prev time.Duration
	for k := 0; k < n; k++ {
		if cpuEnd[k] == 0 { // no op completed in this window
			cpuEnd[k] = prev
		}
		mb := float64(bytes[k]) / 1e6
		mbps = append(mbps, mb/window.Seconds())
		if mb > 0 {
			cpuPerMB = append(cpuPerMB, ms(cpuEnd[k]-prev)/mb)
		}
		if peak[k] > 0 {
			rss = append(rss, peak[k])
		}
		prev = cpuEnd[k]
	}
	return mbps, cpuPerMB, rss
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// pct is the nearest-rank p-quantile (0 <= p <= 1) of v; 0 when empty.
func pct(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	k := int(math.Ceil(p*float64(len(s)))) - 1
	return s[min(max(k, 0), len(s)-1)]
}

func median(v []float64) float64 { return pct(v, 0.5) }

// quartiles returns Q1, median and Q3 exactly as Python's
// statistics.quantiles(v, n=4) (the exclusive method) gives them.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	m := ld + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), ld-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

func latencies(ops []op, keep func(op) bool) []float64 {
	var v []float64
	for _, o := range ops {
		if keep(o) {
			v = append(v, ms(o.lat))
		}
	}
	return v
}

// traceBlock is the length of the alternating untraced and traced
// blocks of a trace run: 2 s, or a quarter of a shorter run.
// Alternating keeps warm-up and host drift out of the overhead
// estimate.
func traceBlock(total time.Duration) time.Duration { return min(2*time.Second, total/4) }

// tracedAt reports whether active time wall falls in a traced block.
func tracedAt(wall, total time.Duration) bool { return int(wall/traceBlock(total))%2 == 1 }

// rt is a runtime/metrics snapshot of the figures the go.* layer
// metrics difference.
type rt struct {
	allocBytes, allocObjects float64
	gcCPU, totalCPU          float64
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRT() rt {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return rt{allocBytes: v(0), allocObjects: v(1), gcCPU: v(2), totalCPU: v(3)}
}

func (a rt) sub(b rt) rt {
	return rt{a.allocBytes - b.allocBytes, a.allocObjects - b.allocObjects, a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU}
}

func (a rt) add(b rt) rt {
	return rt{a.allocBytes + b.allocBytes, a.allocObjects + b.allocObjects, a.gcCPU + b.gcCPU, a.totalCPU + b.totalCPU}
}

// goroutines reads the live goroutine count from runtime/metrics.
func goroutines() int64 {
	s := []metrics.Sample{{Name: "/sched/goroutines:goroutines"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return int64(s[0].Value.Uint64())
}
