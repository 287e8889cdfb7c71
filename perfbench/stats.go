package main

import (
	"hash/fnv"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// A workload builds its set-up at least minSetups times and until
// setupBudget has been spent on it (at most maxSetups): setup_s is the
// median, and the last set-up is the one measured. Cheap set-ups repeat
// more, so their median is not at the mercy of one slow moment.
const (
	minSetups   = 3
	maxSetups   = 15
	setupBudget = time.Second
)

// repeatSetup builds a workload's set-up repeatedly, discarding all but
// the last, and returns it with the median build time in seconds.
func repeatSetup[T any](build func() (T, error), discard func(T)) (T, float64, error) {
	var last T
	var secs []float64
	var spent time.Duration
	for i := 0; i < maxSetups && (i < minSetups || spent < setupBudget); i++ {
		if i > 0 {
			discard(last)
		}
		t0 := time.Now()
		v, err := build()
		if err != nil {
			return last, 0, err
		}
		d := time.Since(t0)
		spent += d
		secs = append(secs, d.Seconds())
		last = v
	}
	return last, median(secs), nil
}

// percentile is the nearest-rank p-th percentile (0 < p <= 100) of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p/100*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// geomean is the geometric mean of positive xs.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// opSample is one completed op of a measured window.
type opSample struct {
	end   time.Duration // completion time, from the window's start
	lat   float64       // latency in ms
	work  float64       // units ops_per_s counts (1 per op, or candidates)
	class string        // request class, for class-weighted percentiles
}

// sliceLen is the length of the slices a window is cut into.
const sliceLen = 2 * time.Second

// windowMetrics sets ops_per_s, p50_ms and tail_ms (the p-th percentile)
// from a window's ops. The window is cut into slices of about sliceLen,
// and with four or more slices the slowest and the fastest are dropped:
// a burst of interference from other tenants of the machine then moves
// little. ops_per_s is the mean rate of the kept slices, and the
// percentiles pool their samples. Ops completing after the window (a
// closed loop finishing its last requests) are left out. A tail with
// fewer than ten samples beyond it is flagged: the run was sized too small.
//
// With weights nil every sample counts once. Otherwise the percentiles are
// those of the mixture that gives each class its fixed weight, spread
// evenly over the class's kept samples: they then move only when some
// class's latencies move, not when the classes' shares of the samples do.
func windowMetrics(r *result, what string, p float64, window time.Duration, ops []opSample, weights map[string]float64) {
	n := max(1, int(window/sliceLen))
	slice := window / time.Duration(n)
	type bin struct {
		ops  []opSample
		work float64
	}
	bins := make([]bin, n)
	for _, op := range ops {
		if k := int(op.end / slice); k >= 0 && k < n {
			bins[k].ops = append(bins[k].ops, op)
			bins[k].work += op.work
		}
	}
	sort.SliceStable(bins, func(a, b int) bool { return bins[a].work < bins[b].work })
	if n >= 4 {
		bins = bins[1 : n-1]
	}
	var work float64
	var kept []opSample
	for _, b := range bins {
		work += b.work
		kept = append(kept, b.ops...)
	}
	r.metrics["ops_per_s"] = work / (slice.Seconds() * float64(len(bins)))
	if weights == nil {
		lats := make([]float64, len(kept))
		for i, op := range kept {
			lats[i] = op.lat
		}
		r.metrics["p50_ms"] = median(lats)
		r.metrics["tail_ms"] = percentile(lats, p)
	} else {
		r.metrics["p50_ms"] = weightedPercentile(kept, weights, 50)
		r.metrics["tail_ms"] = weightedPercentile(kept, weights, p)
	}
	beyond := 0
	for _, op := range kept {
		if op.lat > r.metrics["tail_ms"] {
			beyond++
		}
	}
	r.notef("ops_per_s, p50_ms, tail_ms (%s, p%g): %d of %d slices of %v kept (%.4g to %.4g per second), %d samples, %d beyond the tail",
		what, p, len(bins), n, slice, bins[0].work/slice.Seconds(), bins[len(bins)-1].work/slice.Seconds(), len(kept), beyond)
	if beyond < 10 {
		r.notef("WARNING: fewer than 10 samples beyond p%g", p)
	}
}

// weightedPercentile is the nearest-rank p-th percentile of the mixture in
// which each class carries weights[class], split evenly over its samples.
// Classes without samples are left out and the others' weights rescaled.
func weightedPercentile(ops []opSample, weights map[string]float64, p float64) float64 {
	count := map[string]int{}
	for _, op := range ops {
		count[op.class]++
	}
	var total float64
	for c, k := range count {
		if k > 0 {
			total += weights[c]
		}
	}
	if total == 0 {
		return 0
	}
	s := append([]opSample(nil), ops...)
	sort.Slice(s, func(a, b int) bool { return s[a].lat < s[b].lat })
	target := p / 100 * total
	var cum float64
	for _, op := range s {
		cum += weights[op.class] / float64(count[op.class])
		if cum >= target {
			return op.lat
		}
	}
	return s[len(s)-1].lat
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// mix64 derives a well-spread 63-bit value from a seed and a stream
// position, so every drawn input has its own reproducible seed.
func mix64(seed int64, parts ...int64) int64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range append([]int64{seed}, parts...) {
		for i := range b {
			b[i] = byte(uint64(v) >> (8 * i))
		}
		h.Write(b[:])
	}
	return int64(h.Sum64() & math.MaxInt64)
}

// heapSampler tracks the peak live heap (bytes marked live by the most
// recent GC) while it runs, over the live heap when it started. The live
// heap, not the allocation sawtooth, is what grows when work moves into
// caches; starting after the load generator has drawn its inputs keeps
// them out of the figure.
type heapSampler struct {
	stop       chan struct{}
	done       chan struct{}
	base, peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	h.base = s[0].Value.Uint64()
	go func() {
		defer close(h.done)
		tk := time.NewTicker(5 * time.Millisecond)
		defer tk.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-tk.C:
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak live heap over the starting
// one, in MiB.
func (h *heapSampler) Stop() float64 {
	close(h.stop)
	<-h.done
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	h.peak = max(h.peak, s[0].Value.Uint64())
	if h.peak < h.base {
		return 0
	}
	return float64(h.peak-h.base) / (1 << 20)
}

// allocCount is the process's cumulative count of heap allocations.
func allocCount() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
