package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// cpuNow is the process CPU time (user+sys) consumed so far.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapSampler tracks the peak Go heap in use (bytes held by live and
// not-yet-swept objects) by sampling runtime/metrics on a fixed tick.
// The runtime keeps no high-water mark of its own, so a tick is the
// resolution: 1 ms is well below the GC cycle of every workload here.
type heapSampler struct {
	peak atomic.Uint64
	stop chan struct{}
	wg   sync.WaitGroup
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func readHeap(s []metrics.Sample) uint64 {
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: heapMetric}}
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			h.observe(readHeap(s))
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) observe(v uint64) {
	for {
		cur := h.peak.Load()
		if v <= cur || h.peak.CompareAndSwap(cur, v) {
			return
		}
	}
}

// reset starts a new peak window and returns the peak of the old one.
func (h *heapSampler) reset() uint64 {
	h.observe(readHeap([]metrics.Sample{{Name: heapMetric}}))
	return h.peak.Swap(0)
}

func (h *heapSampler) close() {
	close(h.stop)
	h.wg.Wait()
}

// median of xs, interpolated between the middle two for an even count
// (0 for none); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
}

// exactQuantile is the nearest-rank q-quantile of integer samples: an
// observed value, never an interpolation, so it repeats exactly for a
// repeated sample set.
func exactQuantile(xs []int64, q float64) int64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(math.Ceil(q*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

// meanNS is the mean of integer samples (0 for none).
func meanNS(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum int64
	for _, x := range xs {
		sum += x
	}
	return float64(sum) / float64(len(xs))
}
