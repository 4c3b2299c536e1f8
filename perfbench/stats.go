package main

import (
	"fmt"
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by nearest rank on
// a sorted copy; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// tailAt returns the pct-th percentile of xs and the number of samples
// beyond it. Each workload fixes its tail percentile, one that leaves
// well over ten samples beyond it in every run, so that a run's speed,
// which sets how many requests it makes, does not move which percentile
// it reports.
func tailAt(xs []float64, pct float64) (value float64, beyond int) {
	value = quantile(xs, pct/100)
	for _, x := range xs {
		if x > value {
			beyond++
		}
	}
	return value, beyond
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapSampler polls the bytes in heap objects, reachable or not yet
// swept, through runtime/metrics (no stop-the-world), and reports their
// 99th percentile over the run: the heap's high-water level, without
// the rare 10 ms in a hundred where the collector happens to run late.
type heapSampler struct {
	stopc   chan struct{}
	done    chan struct{}
	mu      sync.Mutex
	samples []float64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stopc: make(chan struct{}), done: make(chan struct{})}
	h.sample()
	go func() {
		defer close(h.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-h.stopc:
				return
			case <-t.C:
				h.sample()
			}
		}
	}()
	return h
}

func (h *heapSampler) sample() {
	s := []metrics.Sample{{Name: heapMetric}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return
	}
	h.mu.Lock()
	h.samples = append(h.samples, float64(s[0].Value.Uint64()))
	h.mu.Unlock()
}

// stop ends sampling, waits for the sampler goroutine, and returns the
// 99th percentile of the samples in bytes and their count.
func (h *heapSampler) stop() (float64, int) {
	close(h.stopc)
	<-h.done
	h.sample()
	h.mu.Lock()
	defer h.mu.Unlock()
	return quantile(h.samples, 0.99), len(h.samples)
}

// setupTimer runs a set-up repeatedly and keeps its wall times, so that
// set-ups can be spread over a run — some before the measurement, some
// after — and setup_s is their median.
type setupTimer[T any] struct {
	setup   func() (T, error)
	release func(T) // tears down a product that will not be used; may be nil
	times   []float64
}

// run sets up n times and returns the last product; every earlier one
// is released before the next set-up starts.
func (s *setupTimer[T]) run(n int) (T, error) {
	var last T
	for i := 0; i < n; i++ {
		if i > 0 && s.release != nil {
			s.release(last)
		}
		t0 := time.Now()
		v, err := s.setup()
		if err != nil {
			return last, fmt.Errorf("set-up %d: %w", len(s.times)+1, err)
		}
		s.times = append(s.times, time.Since(t0).Seconds())
		last = v
	}
	return last, nil
}

// again sets up n more times and releases every product.
func (s *setupTimer[T]) again(n int) error {
	v, err := s.run(n)
	if err == nil && s.release != nil {
		s.release(v)
	}
	return err
}

func (s *setupTimer[T]) median() float64 { return median(s.times) }
