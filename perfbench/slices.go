package main

import (
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// windowSlices is how many equal slices a path's measured window is cut
// into; a window split into chunks gives each chunk its share. Rates,
// per-session costs, latency quantiles and resident memory are taken per
// slice and reported as the median across slices, so a burst of load from
// elsewhere on a shared host moves a few slices rather than the figure.
const windowSlices = 21

// sampleEvery is the sampler's tick: slice boundaries and resident memory
// are read at this resolution.
const sampleEvery = 50 * time.Millisecond

// boundary is one slice edge: when the sampler saw it and the process CPU
// time then.
type boundary struct {
	at  time.Time
	cpu time.Duration
}

// sampler records slice boundaries and each slice's peak resident memory
// while a window runs. It is one goroutine, stopped by stop.
type sampler struct {
	start time.Time
	slice time.Duration
	n     int // slices
	edges []boundary
	rss   []float64 // peak resident MiB per slice; 0 = not sampled
	// memDone, when set, ends memory sampling once it reports true.
	memDone func() bool
	quit    chan struct{}
	done    chan struct{}
}

func startSampler(window time.Duration, slices int, memDone func() bool) *sampler {
	s := &sampler{
		start:   time.Now(),
		slice:   window / time.Duration(slices),
		n:       slices,
		rss:     make([]float64, slices),
		memDone: memDone,
		quit:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	s.edges = []boundary{{s.start, cpuTime()}}
	s.rss[0] = rssMB()
	go s.run()
	return s
}

func (s *sampler) run() {
	defer close(s.done)
	t := time.NewTicker(sampleEvery)
	defer t.Stop()
	for {
		select {
		case <-s.quit:
			return
		case <-t.C:
			now := time.Now()
			open := len(s.edges) - 1 // the slice being filled
			if open >= s.n {
				return
			}
			if s.memDone == nil || !s.memDone() {
				s.rss[open] = max(s.rss[open], rssMB())
			}
			if now.Sub(s.start) >= time.Duration(len(s.edges))*s.slice {
				s.edges = append(s.edges, boundary{now, cpuTime()})
			}
		}
	}
}

// stop ends sampling and waits for the goroutine. Only complete slices are
// used afterwards; a window too short to complete one becomes one slice.
func (s *sampler) stop() {
	close(s.quit)
	<-s.done
	if len(s.edges) == 1 {
		s.edges = append(s.edges, boundary{time.Now(), cpuTime()})
	}
}

// complete returns the number of slices that ended before stop.
func (s *sampler) complete() int { return len(s.edges) - 1 }

// sliceOf returns the index of the complete slice containing t, or -1.
func (s *sampler) sliceOf(t time.Time) int {
	k := sort.Search(len(s.edges), func(i int) bool { return s.edges[i].at.After(t) }) - 1
	if k < 0 || k >= s.complete() {
		return -1
	}
	return k
}

// peakRSS is the median, across the samplers' complete slices that sampled
// memory, of each slice's peak resident memory.
func peakRSS(smps ...*sampler) float64 {
	var xs []float64
	for _, s := range smps {
		for _, r := range s.rss[:s.complete()] {
			if r > 0 {
				xs = append(xs, r)
			}
		}
	}
	return median(xs)
}

// rssMB reads the process's current resident set size in MiB.
func rssMB() float64 {
	raw, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(raw))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}
