package main

import (
	"runtime"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"
)

// usage is a snapshot of the process's resource counters.
type usage struct {
	wall     time.Time
	cpu      time.Duration // user + system CPU, from getrusage
	mallocs  uint64
	bytes    uint64
	gcCycles uint32
	gcCPU    float64 // runtime/metrics estimate of GC CPU seconds
	allCPU   float64 // runtime/metrics estimate of all CPU seconds
}

var cpuMetrics = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

// snapshot reads the counters. runtime.ReadMemStats stops the world briefly,
// so it is taken only at phase boundaries.
func snapshot() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(cpuMetrics)
	return usage{
		wall:     time.Now(),
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs:  ms.Mallocs,
		bytes:    ms.TotalAlloc,
		gcCycles: ms.NumGC,
		gcCPU:    cpuMetrics[0].Value.Float64(),
		allCPU:   cpuMetrics[1].Value.Float64(),
	}
}

// spent is the difference between two snapshots.
type spent struct {
	wall, cpu      time.Duration
	mallocs, bytes uint64
	gcCycles       uint32
	gcCPU, allCPU  float64
}

func since(u0 usage) spent {
	u1 := snapshot()
	return spent{
		wall:     u1.wall.Sub(u0.wall),
		cpu:      u1.cpu - u0.cpu,
		mallocs:  u1.mallocs - u0.mallocs,
		bytes:    u1.bytes - u0.bytes,
		gcCycles: u1.gcCycles - u0.gcCycles,
		gcCPU:    u1.gcCPU - u0.gcCPU,
		allCPU:   u1.allCPU - u0.allCPU,
	}
}

func (s *spent) add(o spent) {
	s.wall += o.wall
	s.cpu += o.cpu
	s.mallocs += o.mallocs
	s.bytes += o.bytes
	s.gcCycles += o.gcCycles
	s.gcCPU += o.gcCPU
	s.allCPU += o.allCPU
}

// heapSampler tracks the peak live Go heap: the heap the last finished GC
// cycle marked live, sampled while the phase runs and once more after a
// forced collection at its end. Unlike the allocated heap, it does not
// depend on how much garbage happened to wait for the next cycle.
type heapSampler struct {
	stop chan struct{}
	done chan uint64
}

const heapSampleEvery = 2 * time.Millisecond

var liveHeap = []metrics.Sample{{Name: "/gc/heap/live:bytes"}}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan uint64, 1)}
	go func() {
		s := []metrics.Sample{{Name: liveHeap[0].Name}}
		var peak uint64
		t := time.NewTicker(heapSampleEvery)
		defer t.Stop()
		for {
			metrics.Read(s)
			peak = max(peak, s[0].Value.Uint64())
			select {
			case <-h.stop:
				h.done <- peak
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// peak stops the sampler, collects, and returns the highest live heap seen,
// in bytes. Call it after the phase's resource snapshot: the collection is
// not the workload's cost.
func (h *heapSampler) peak() uint64 {
	close(h.stop)
	peak := <-h.done
	runtime.GC()
	metrics.Read(liveHeap)
	return max(peak, liveHeap[0].Value.Uint64())
}

// pct is the nearest-rank percentile of xs (p in [0,100]); 0 when empty.
func pct(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	r := int(p/100*float64(len(s))+0.5) - 1
	return s[min(max(r, 0), len(s)-1)]
}

func median(xs []float64) float64 { return pct(xs, 50) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
