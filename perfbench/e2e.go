package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"time"

	"atrapos/internal/engine"
	"atrapos/internal/schema"
)

// The timed window repeats set-up plus one run on a fresh engine until the
// runs add up to --seconds, within these repeat bounds. Every repeat uses the
// same seed, so the inputs of all repeats are identical and the virtual
// throughput of a deterministic workload must repeat exactly.
const (
	minRepeats = 3
	maxRepeats = 50
)

// heapSampler tracks the highest in-use heap (runtime.MemStats.HeapInuse,
// read through runtime/metrics as heap objects plus unused bytes in in-use
// spans, which needs no stop-the-world) while set-up and a run execute.
type heapSampler struct {
	stop, done chan struct{}
	samples    []metrics.Sample
	peak       uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{
		stop: make(chan struct{}),
		done: make(chan struct{}),
		samples: []metrics.Sample{
			{Name: "/memory/classes/heap/objects:bytes"},
			{Name: "/memory/classes/heap/unused:bytes"},
		},
	}
	h.read()
	go func() {
		defer close(h.done)
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				h.read()
				return
			case <-tick.C:
				h.read()
			}
		}
	}()
	return h
}

func (h *heapSampler) read() {
	metrics.Read(h.samples)
	if v := h.samples[0].Value.Uint64() + h.samples[1].Value.Uint64(); v > h.peak {
		h.peak = v
	}
}

// finish stops the sampler and returns the peak in MiB.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20)
}

// runtimeCounters are the Go runtime's cumulative allocation and CPU counters.
type runtimeCounters struct {
	allocs                 float64
	gcCPU, allCPU, idleCPU float64
}

func readRuntime() runtimeCounters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeCounters{
		allocs:  float64(s[0].Value.Uint64()),
		gcCPU:   s[1].Value.Float64(),
		allCPU:  s[2].Value.Float64(),
		idleCPU: s[3].Value.Float64(),
	}
}

// gcShare is the share of the CPU time the process used between a and b that
// went to garbage collection.
func gcShare(a, b runtimeCounters) float64 {
	return ratio(b.gcCPU-a.gcCPU, (b.allCPU-a.allCPU)-(b.idleCPU-a.idleCPU))
}

// crashLoss compares the key sets before a crash with those after recovery:
// keys missing after recovery plus keys that appear only after recovery,
// against the keys present before the crash.
func crashLoss(before, after map[string][]schema.Key) (lost, phantom, total int) {
	for name, b := range before {
		a := after[name]
		total += len(b)
		i, j := 0, 0
		for i < len(b) || j < len(a) {
			switch {
			case j == len(a) || (i < len(b) && b[i] < a[j]):
				lost++
				i++
			case i == len(b) || a[j] < b[i]:
				phantom++
				j++
			default:
				i++
				j++
			}
		}
	}
	for name, a := range after {
		if _, ok := before[name]; !ok {
			phantom += len(a)
		}
	}
	return lost, phantom, total
}

// endToEnd measures the end-to-end metrics with tracing off.
func endToEnd(s *spec, seed int64, seconds int, ck *checks) (*result, error) {
	budget := time.Duration(seconds) * time.Second
	var (
		wall, virt, setup, heap []float64
		committed, aborted      int64
		measured                time.Duration
		last                    *engine.Engine
		adaptive                bool
		allCommitted            = true
		repartitions            []int64
		multisite               []float64
	)
	for rep := 0; rep < minRepeats || (measured < budget && rep < maxRepeats); rep++ {
		cfg, err := s.config()
		if err != nil {
			return nil, err
		}
		last, adaptive = nil, cfg.Adaptive
		runtime.GC()
		hs := startHeapSampler()
		t0 := time.Now()
		e, err := engine.New(cfg)
		if err != nil {
			hs.finish()
			return nil, fmt.Errorf("engine.New: %w", err)
		}
		setup = append(setup, time.Since(t0).Seconds())
		// Finish collecting set-up garbage before the timed run.
		runtime.GC()
		opts := s.timed
		opts.Seed = seed
		c, err := timedCall(e, opts)
		if err != nil {
			hs.finish()
			return nil, err
		}
		measured += c.wall
		wall = append(wall, c.ktps)
		res := c.res
		committed += res.Committed
		aborted += res.Aborted
		if opts.Duration == 0 {
			allCommitted = allCommitted && res.Committed == int64(opts.Transactions)
		}
		virt = append(virt, res.ThroughputTPS/1000)
		repartitions = append(repartitions, res.Repartitions)
		multisite = append(multisite, ratio(float64(res.MultiSite), float64(res.Committed+res.Aborted)))
		heap = append(heap, hs.finish())
		last = e
	}
	fmt.Printf("timed window: %d repeats, %.2f s measured\n", len(wall), measured.Seconds())

	// Outside the timed window: crash the last engine and recover it under
	// the workload's own log configuration.
	before := last.TableKeySets()
	if _, err := last.CrashAndRecover(); err != nil {
		return nil, fmt.Errorf("CrashAndRecover: %w", err)
	}
	lost, phantom, total := crashLoss(before, last.TableKeySets())
	loss := ratio(float64(lost+phantom), float64(total))
	fmt.Printf("crash: %d lost + %d phantom of %d keys (crash_loss_share %.6f)\n", lost, phantom, total, loss)

	if s.timed.Duration == 0 {
		ck.expect("committed_equals_attempted", allCommitted, "%d committed of %d attempted", committed, committed+aborted)
	}
	if adaptive {
		least := int64(-1)
		for _, r := range repartitions {
			if least < 0 || r < least {
				least = r
			}
		}
		ck.expect("drift_repartitions", least >= 1, "fewest repartitions in a run: %d", least)
	}
	checkMultisite(ck, "multisite_share", s, multisite...)
	// One worker and no planner goroutine: the virtual clock is a pure
	// function of the inputs.
	if !adaptive {
		same := true
		for _, v := range virt {
			same = same && v == virt[0]
		}
		ck.expect("virtual_ktps_repeats_exactly", same, "%v", virt)
	}
	abortShare := ratio(float64(aborted), float64(committed+aborted))
	fmt.Printf("abort_share %.6f\n", abortShare)
	printSpread("wall_ktps", wall)
	printSpread("setup_s", setup)
	printSpread("heap_peak_mib", heap)

	return &result{
		Attempted: committed + aborted,
		Failed:    aborted,
		Metrics: map[string]metric{
			"wall_ktps":          {median(wall), "ktxn/s"},
			"virtual_ktps":       {median(virt), "ktxn/s"},
			"setup_s":            {median(setup), "s"},
			"heap_peak_mib":      {median(heap), "MiB"},
			"commit_share":       {1 - abortShare, "ratio"},
			"crash_intact_share": {1 - loss, "ratio"},
		},
	}, nil
}

// checkMultisite checks that every measured multisite share is within one
// point of the configured share.
func checkMultisite(ck *checks, name string, s *spec, shares ...float64) {
	worst := 0.0
	for _, share := range shares {
		worst = math.Max(worst, math.Abs(share-s.multisite))
	}
	ck.expect(name, worst <= 0.01 && len(shares) > 0, "%v (configured %.2f)", shares, s.multisite)
}

func printSpread(name string, xs []float64) {
	fmt.Printf("samples %-14s n=%d min=%.4f q1=%.4f median=%.4f q3=%.4f max=%.4f\n", name, len(xs),
		quantile(xs, 0), quantile(xs, 0.25), median(xs), quantile(xs, 0.75), quantile(xs, 1))
}
