package main

import (
	"fmt"
	"time"

	"atrapos/internal/core"
	"atrapos/internal/engine"
	"atrapos/internal/topology"
	"atrapos/internal/vclock"
	"atrapos/internal/wal"
	"atrapos/internal/workload"
)

// profile is the machine every workload runs on: 2 sockets x 4 dies x 4
// cores = 32 simulated cores.
const profile = "chiplet-2s4d"

// rows is the dataset size of every workload: TATP subscribers or
// multisite-update rows.
const rows = 100_000

// spec describes one named workload: how to build a fresh engine for it and
// how one timed run and one traced run drive it.
type spec struct {
	name string
	// multisite is the configured share of multisite transactions.
	multisite float64
	// config builds the engine configuration around a fresh workload and
	// topology; tracing is switched on by the caller.
	config func() (engine.Config, error)
	// timed is the run every repeat of the timed window makes (Seed is set
	// by the caller).
	timed engine.RunOptions
	// traced is the shorter traced run and ringCap the span-ring capacity
	// that holds all of its spans.
	traced  engine.RunOptions
	ringCap int
}

func chiplet() (*topology.Topology, error) {
	p, ok := topology.ProfileByName(profile)
	if !ok {
		return nil, fmt.Errorf("unknown topology profile %q", profile)
	}
	return topology.New(p.Config)
}

// compressed maps the paper's seconds onto the adaptivity experiments'
// compressed timeline: one paper second is one virtual millisecond.
func compressed(s float64) vclock.Nanos { return vclock.Nanos(s * float64(time.Millisecond)) }

var specs = []*spec{
	{
		name: "tatp-central",
		// TATP mix, 100k subscribers, centralized design: the 256-bucket central
		// lock table and B-tree point reads carry the wall time; no 2PC, devices,
		// planner or executed backend.
		config: func() (engine.Config, error) {
			top, err := chiplet()
			if err != nil {
				return engine.Config{}, err
			}
			wl, err := workload.TATP(workload.TATPOptions{Subscribers: rows})
			if err != nil {
				return engine.Config{}, err
			}
			return engine.Config{Design: engine.Centralized, Workload: wl, Topology: top}, nil
		},
		timed:   engine.RunOptions{Transactions: 150_000, Workers: 1},
		traced:  engine.RunOptions{Transactions: 4_000, Workers: 1},
		ringCap: 20_000,
	},
	{
		name: "multisite-sn",
		// 10-row updates, 30% multisite, 32 core-level shared-nothing islands,
		// NVMe per die pair, coalescing WAL: WAL, device queue, per-island lock
		// tables and 2PC carry the work.
		multisite: 0.30,
		config: func() (engine.Config, error) {
			top, err := chiplet()
			if err != nil {
				return engine.Config{}, err
			}
			lc := wal.DefaultConfig()
			lc.CoalesceRecords = 8
			return engine.Config{
				Design:       engine.SharedNothing,
				IslandLevel:  topology.LevelCore,
				Workload:     workload.MultisiteUpdate(rows, 30),
				Topology:     top,
				DeviceLayout: "nvme-per-die-pair",
				LogConfig:    &lc,
			}, nil
		},
		timed:   engine.RunOptions{Transactions: 60_000, Workers: 1},
		traced:  engine.RunOptions{Transactions: 1_600, Workers: 1},
		ringCap: 40_000,
	},
	{
		name: "drift-adaptive",
		// TATP GetSubData with a hotspot moving every 10 compressed s, adaptive
		// ATraPos: the only workload where the monitor, planner and repartitioning
		// do real work.
		config: func() (engine.Config, error) {
			top, err := chiplet()
			if err != nil {
				return engine.Config{}, err
			}
			wl, err := workload.TATPDriftingHotspot(rows, compressed(10))
			if err != nil {
				return engine.Config{}, err
			}
			return engine.Config{
				Design:    engine.ATraPos,
				Workload:  wl,
				Topology:  top,
				Placement: engine.DerivePlacement(wl, top, true),
				Adaptive:  true,
				AdaptiveInterval: core.IntervalConfig{
					Initial:         compressed(1),
					Max:             compressed(8),
					StableThreshold: 0.10,
					History:         5,
				},
				TimeCompression: 1000,
			}, nil
		},
		timed: engine.RunOptions{Duration: compressed(100), MaxTransactions: 2_000_000,
			Workers: 1, SampleWindow: compressed(1)},
		traced: engine.RunOptions{Duration: compressed(8), MaxTransactions: 2_000_000,
			Workers: 1, SampleWindow: compressed(1)},
		ringCap: 45_000,
	},
}

func specByName(name string) (*spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}
