package main

import (
	"fmt"
	"runtime"
	"time"

	"atrapos/internal/engine"
	"atrapos/internal/obs"
	"atrapos/internal/vclock"
)

// perLayer makes the per-layer run on three fresh engines in turn, so at most
// one dataset is live: the traced run; the same run untraced, for the tracing
// overhead; and the timed window's run untraced, for the counters. Then the
// replays feed the workload's transactions through each layer.
func perLayer(s *spec, seed int64, outDir string, ck *checks) (*result, error) {
	m := make(map[string]float64)
	for _, lm := range layerMetrics() {
		m[lm.Name] = 0
	}

	// Traced run.
	e, cfg, traced, err := freshCall(s, s.traced, seed, true)
	if err != nil {
		return nil, fmt.Errorf("traced run: %w", err)
	}
	tr := e.Tracer()
	spans := collectSpans(tr, e.Topology().NumCores())
	dropped := tr.Dropped()
	acct := tr.DropAccounting()
	programTrace := tr.ExportChromeTrace()
	ck.expect("trace_spans_not_dropped", dropped == 0 && acct == "", "%d dropped, largest ring held %d of %d %s",
		dropped, largestRing(tr, e.Topology().NumCores()), s.ringCap, acct)
	ck.expect("trace_has_every_txn", countKind(spans, obs.KindTxn) == traced.txns(),
		"%d txn spans for %d transactions", countKind(spans, obs.KindTxn), traced.txns())
	spanMetrics(m, spans)
	m["obs.spans_dropped"] = float64(dropped)
	if cfg.Adaptive {
		fmt.Println("note: the traced one-worker run evaluates the planner inline on the worker, so its span metrics " +
			"follow a deterministic schedule that differs from the untraced run's concurrent planner")
	}

	// The same run untraced, for the tracing overhead.
	_, _, plain, err := freshCall(s, s.traced, seed, false)
	if err != nil {
		return nil, fmt.Errorf("untraced short run: %w", err)
	}
	m["obs.trace_overhead"] = ratio(plain.ktps, traced.ktps)

	// Untraced counters run: the timed window's run.
	e, cfg, untraced, err := freshCall(s, s.timed, seed, false)
	if err != nil {
		return nil, fmt.Errorf("untraced run: %w", err)
	}
	res := untraced.res
	committed := res.Committed
	if cfg.Adaptive {
		ck.expect("drift_repartitions", res.Repartitions >= 1, "%d repartitions", res.Repartitions)
	} else {
		ck.expect("committed_equals_attempted", committed == int64(s.timed.Transactions),
			"%d of %d", committed, s.timed.Transactions)
	}
	m["engine.allocs_per_txn"] = ratio(untraced.after.allocs-untraced.before.allocs, float64(committed))
	m["engine.gc_cpu_share"] = gcShare(untraced.before, untraced.after)
	countPriced(m, res)
	checkMultisite(ck, "multisite_share", s, m["engine.multisite_share"])
	if devs := e.Devices(); devs != nil {
		st := devs.Stats()
		m["device.flushes_per_txn"] = ratio(float64(st.Flushes), float64(res.Committed))
		m["device.queued_share"] = ratio(float64(st.Queued), float64(st.Flushes))
		m["device.wait_vus_per_flush"] = ratio(float64(st.QueueWait), float64(st.Flushes)) / 1000
	}
	vnsPerTxn := vclock.Nanos(1)
	if res.Committed > 0 {
		vnsPerTxn = res.VirtualTime / vclock.Nanos(res.Committed)
	}
	env := newReplayEnv(cfg, e, vnsPerTxn)
	runtime.GC()

	// Replays.
	rec := &recorder{origin: time.Now()}
	txns := env.generate(seed, replayTxns, rec)
	if err := env.replayAll(txns, rec, ck); err != nil {
		return nil, err
	}
	m["backend.ships_per_txn"] = env.shipsPerTxn
	replayMetrics(m, rec.durations())

	path, err := writeTrace(outDir, s.name, programTrace, rec)
	if err != nil {
		return nil, err
	}
	fmt.Printf("trace %s (%d engine spans, %d replay spans)\n", path, spanCount(spans), len(rec.spans))

	out := &result{Attempted: committed, Metrics: make(map[string]metric, len(m))}
	for _, lm := range layerMetrics() {
		out.Metrics[lm.Name] = metric{Value: m[lm.Name], Unit: lm.Unit}
	}
	return out, nil
}

// callResult is one timed Run.
type callResult struct {
	ktps float64       // committed transactions per wall millisecond
	wall time.Duration // wall time of the call
	res  *engine.Result
	// before and after are the Go runtime's counters around the call.
	before, after runtimeCounters
}

// txns is the number of transactions the run made.
func (c callResult) txns() int { return int(c.res.Committed + c.res.Aborted) }

// freshCall builds a fresh engine, collects its set-up garbage and makes one
// timed run.
func freshCall(s *spec, opts engine.RunOptions, seed int64, tracing bool) (*engine.Engine, engine.Config, callResult, error) {
	runtime.GC()
	cfg, err := s.config()
	if err != nil {
		return nil, cfg, callResult{}, err
	}
	if tracing {
		cfg.Tracing = true
		cfg.TraceRingCap = s.ringCap
	}
	e, err := engine.New(cfg)
	if err != nil {
		return nil, cfg, callResult{}, fmt.Errorf("engine.New: %w", err)
	}
	runtime.GC()
	opts.Seed = seed
	c, err := timedCall(e, opts)
	return e, cfg, c, err
}

// timedCall runs opts on e, timing the Run call. Both runtime readings
// follow a forced GC, because the runtime updates its GC CPU counters only at
// the end of a cycle; the window therefore includes that one forced cycle.
// The caller forces the first one.
func timedCall(e *engine.Engine, opts engine.RunOptions) (callResult, error) {
	c := callResult{before: readRuntime()}
	t0 := time.Now()
	res, err := e.Run(opts)
	c.wall = time.Since(t0)
	if err != nil {
		return c, err
	}
	runtime.GC()
	c.after = readRuntime()
	c.res = res
	c.ktps = float64(res.Committed) / c.wall.Seconds() / 1000
	return c, nil
}

// countPriced fills the counters a priced Result carries.
func countPriced(m map[string]float64, res *engine.Result) {
	c := float64(res.Committed)
	comps := map[string]vclock.Component{
		"management": vclock.Management, "execution": vclock.Execution,
		"communication": vclock.Communication, "locking": vclock.Locking, "logging": vclock.Logging,
	}
	for name, comp := range comps {
		m["engine.vns_per_txn."+name] = res.TimePerTransaction(comp)
	}
	m["engine.useful_fraction"] = res.UsefulFraction
	m["engine.multisite_share"] = ratio(float64(res.MultiSite), float64(res.Committed+res.Aborted))
	m["numa.qpi_to_imc"] = res.QPIToIMCRatio
	m["numa.interconnect_bytes_per_txn"] = ratio(float64(res.Interconnect.InterconnectBytes), c)
	lg := res.Log
	m["wal.logical_records_per_txn"] = ratio(float64(lg.LogicalRecords), c)
	m["wal.physical_records_per_txn"] = ratio(float64(lg.PhysicalRecords), c)
	m["wal.record_ratio"] = ratio(float64(lg.PhysicalRecords), float64(lg.LogicalRecords))
	m["wal.physical_flushes_per_txn"] = ratio(float64(lg.PhysicalFlushes), c)
	m["wal.ride_along_share"] = ratio(float64(lg.RideAlongFlushes), float64(lg.RideAlongFlushes+lg.PhysicalFlushes))
	m["wal.physical_bytes_per_txn"] = ratio(float64(lg.PhysicalBytes), c)
	m["core.repartitions"] = float64(res.Repartitions)
	m["core.repartition_vms"] = float64(res.RepartitionTime) / 1e6
	m["core.adaptation_cost_share"] = res.AdaptationCostShare
	var moved, reused, rebuilt int
	for _, d := range res.RepartitionDiffs {
		moved += d.MovedPartitions
		reused += d.ReusedLockTables
		rebuilt += d.RebuiltLockTables
	}
	m["partition.moved_per_repartition"] = ratio(float64(moved), float64(len(res.RepartitionDiffs)))
	m["partition.reused_lock_table_share"] = ratio(float64(reused), float64(reused+rebuilt))
}

// replayMetrics turns the replay span durations into the replay metrics.
func replayMetrics(m map[string]float64, d map[string][]float64) {
	m["workload.generate_ns"] = median(d["workload.generate"])
	m["lock.acquire_ns"] = median(d["lock.acquire"])
	m["lock.release_all_ns"] = median(d["lock.release_all"])
	m["lock.release_all_ns_p99"] = quantile(d["lock.release_all"], 0.99)
	m["btree.get_ns"] = median(d["btree.get"])
	m["btree.update_ns"] = median(d["btree.update"])
	m["btree.split_us"] = median(d["btree.split"]) / 1e3
	m["wal.append_ns"] = median(d["wal.append"])
	m["wal.flush_ns"] = median(d["wal.flush"])
	m["device.flush_ns"] = median(d["device.flush"])
	m["txn.twopc_ns"] = median(d["txn.twopc"])
	m["core.record_action_ns"] = median(d["core.record_action"])
	m["core.seal_us"] = median(d["core.seal"]) / 1e3
	m["core.plan_ms"] = median(d["core.plan"]) / 1e6
	m["partition.core_for_ns"] = median(d["partition.core_for"])
	m["backend.get_ns"] = median(d["backend.get"])
	m["backend.put_ns"] = median(d["backend.put"])
	m["backend.commit_ns"] = median(d["backend.commit"])
	m["backend.ship_rtt_us"] = median(d["backend.ship"]) / 1e3
	m["backend.ship_rtt_us_p99"] = quantile(d["backend.ship"], 0.99) / 1e3
	for op, xs := range d {
		fmt.Printf("replay %-22s n=%-7d median=%.0fns p99=%.0fns\n", op, len(xs), median(xs), quantile(xs, 0.99))
	}
}
