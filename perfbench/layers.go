package main

import (
	"encoding/json"
	"fmt"
	"os"

	"atrapos/internal/workload"
)

// layerMetric is one per-layer metric: where its value comes from and which
// end-to-end metric it should move, on which workload.
//
// Sources: "count" is a counter the untraced run returns (Result, device
// stats, the Go runtime); "span" is computed from the
// engine's virtual-time spans of the traced run; "replay" is the wall time
// the benchmark measures around calls into the layer's public functions,
// fed with the workload's own generated transactions (median unless the name
// ends in _p99).
type layerMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	Source string `json:"source"`
	Moves  string `json:"moves"`
}

// txnClasses are the transaction classes whose latency is reported: TATP's
// seven and multisite-update's two.
var txnClasses = []string{
	workload.TATPGetSubData, workload.TATPGetNewDest, workload.TATPGetAccData,
	workload.TATPUpdSubData, workload.TATPUpdLocation, workload.TATPInsCallFwd,
	workload.TATPDelCallFwd, "UpdateLocal10", "UpdateMultiSite",
}

// selfTimeLayers are the layers whose self time is computed from the traced
// run's span nesting.
var selfTimeLayers = []string{"engine", "lock", "numa", "txn", "wal", "device", "core"}

func layerMetrics() []layerMetric {
	m := []layerMetric{
		{"engine.allocs_per_txn", "count", "lower", "count", "wall_ktps, heap_peak_mib on every workload, most on drift-adaptive"},
		{"engine.gc_cpu_share", "ratio", "lower", "count", "wall_ktps, heap_peak_mib on every workload, most on drift-adaptive"},
		{"engine.vns_per_txn.management", "ns", "lower", "count", "virtual_ktps on drift-adaptive"},
		{"engine.vns_per_txn.execution", "ns", "lower", "count", "virtual_ktps on every workload"},
		{"engine.vns_per_txn.communication", "ns", "lower", "count", "virtual_ktps on multisite-sn"},
		{"engine.vns_per_txn.locking", "ns", "lower", "count", "virtual_ktps on tatp-central"},
		{"engine.vns_per_txn.logging", "ns", "lower", "count", "virtual_ktps on multisite-sn"},
		{"engine.useful_fraction", "ratio", "higher", "count", "virtual_ktps on every workload"},
	}
	for _, c := range txnClasses {
		m = append(m,
			layerMetric{"engine.txn_vus_p50." + c, "us", "lower", "span", "virtual_ktps on tatp-central, multisite-sn"},
			layerMetric{"engine.txn_vus_p99." + c, "us", "lower", "span", "virtual_ktps on tatp-central, multisite-sn"})
	}
	m = append(m, []layerMetric{
		{"engine.multisite_share", "ratio", "lower", "count", "input check on every workload (0.30 on multisite-sn, 0 elsewhere)"},
		{"workload.generate_ns", "ns", "lower", "replay", "wall_ktps on every workload, a small share on each"},
		{"lock.acquire_ns", "ns", "lower", "replay", "wall_ktps on tatp-central most, then multisite-sn and drift-adaptive"},
		{"lock.release_all_ns", "ns", "lower", "replay", "wall_ktps on tatp-central most, then multisite-sn and drift-adaptive"},
		{"lock.release_all_ns_p99", "ns", "lower", "replay", "wall_ktps on tatp-central most, then multisite-sn and drift-adaptive"},
		{"lock.acquires_per_txn", "count", "lower", "span", "virtual_ktps on tatp-central"},
		{"lock.vns_per_acquire", "ns", "lower", "span", "virtual_ktps on tatp-central"},
		{"lock.conflict_share", "ratio", "lower", "span", "commit_share once workers > 1"},
		{"btree.get_ns", "ns", "lower", "replay", "wall_ktps on tatp-central"},
		{"btree.update_ns", "ns", "lower", "replay", "wall_ktps on multisite-sn"},
		{"btree.split_us", "us", "lower", "replay", "wall_ktps on drift-adaptive"},
		{"numa.qpi_to_imc", "ratio", "lower", "count", "virtual_ktps on multisite-sn"},
		{"numa.interconnect_bytes_per_txn", "B", "lower", "count", "virtual_ktps on multisite-sn"},
		{"wal.append_ns", "ns", "lower", "replay", "wall_ktps on multisite-sn"},
		{"wal.flush_ns", "ns", "lower", "replay", "wall_ktps on multisite-sn"},
		{"wal.logical_records_per_txn", "count", "lower", "count", "virtual_ktps on multisite-sn; crash_intact_share on every workload"},
		{"wal.physical_records_per_txn", "count", "lower", "count", "virtual_ktps on multisite-sn; crash_intact_share on every workload"},
		{"wal.record_ratio", "ratio", "lower", "count", "virtual_ktps on multisite-sn; crash_intact_share on every workload"},
		{"wal.physical_flushes_per_txn", "count", "lower", "count", "virtual_ktps on multisite-sn; crash_intact_share on every workload"},
		{"wal.ride_along_share", "ratio", "higher", "count", "virtual_ktps on multisite-sn; crash_intact_share on every workload"},
		{"wal.physical_bytes_per_txn", "B", "lower", "count", "virtual_ktps on multisite-sn; crash_intact_share on every workload"},
		{"device.flush_ns", "ns", "lower", "replay", "wall_ktps, virtual_ktps on multisite-sn only"},
		{"device.flushes_per_txn", "count", "lower", "count", "wall_ktps, virtual_ktps on multisite-sn only"},
		{"device.queued_share", "ratio", "lower", "count", "wall_ktps, virtual_ktps on multisite-sn only"},
		{"device.wait_vus_per_flush", "us", "lower", "count", "wall_ktps, virtual_ktps on multisite-sn only"},
		{"txn.twopc_ns", "ns", "lower", "replay", "wall_ktps, virtual_ktps on multisite-sn only"},
		{"txn.twopc_per_txn", "count", "lower", "span", "wall_ktps, virtual_ktps on multisite-sn only"},
		{"txn.prepare_vns", "ns", "lower", "span", "wall_ktps, virtual_ktps on multisite-sn only"},
		{"txn.commit_vns", "ns", "lower", "span", "wall_ktps, virtual_ktps on multisite-sn only"},
		{"txn.sync_points_per_txn", "count", "lower", "span", "wall_ktps, virtual_ktps on multisite-sn only"},
		{"core.record_action_ns", "ns", "lower", "replay", "wall_ktps, virtual_ktps on drift-adaptive only"},
		{"core.seal_us", "us", "lower", "replay", "wall_ktps, virtual_ktps on drift-adaptive only"},
		{"core.plan_ms", "ms", "lower", "replay", "wall_ktps, virtual_ktps on drift-adaptive only"},
		{"core.repartitions", "count", "lower", "count", "virtual_ktps on drift-adaptive"},
		{"core.repartition_vms", "ms", "lower", "count", "virtual_ktps on drift-adaptive"},
		{"core.adaptation_cost_share", "ratio", "lower", "count", "virtual_ktps on drift-adaptive"},
		{"core.planner_seals", "count", "lower", "span", "virtual_ktps on drift-adaptive"},
		{"core.planner_repartitions", "count", "lower", "span", "virtual_ktps on drift-adaptive"},
		{"partition.core_for_ns", "ns", "lower", "replay", "wall_ktps, virtual_ktps on drift-adaptive"},
		{"partition.moved_per_repartition", "count", "lower", "count", "wall_ktps, virtual_ktps on drift-adaptive"},
		{"partition.reused_lock_table_share", "ratio", "higher", "count", "wall_ktps, virtual_ktps on drift-adaptive"},
		{"backend.get_ns", "ns", "lower", "replay", "no gated metric: the hash backend serves only RunExecuted, which no workload here runs"},
		{"backend.put_ns", "ns", "lower", "replay", "no gated metric: the hash backend serves only RunExecuted, which no workload here runs"},
		{"backend.commit_ns", "ns", "lower", "replay", "no gated metric: the hash backend serves only RunExecuted, which no workload here runs"},
		{"backend.ship_rtt_us", "us", "lower", "replay", "no gated metric: the hash backend serves only RunExecuted, which no workload here runs"},
		{"backend.ship_rtt_us_p99", "us", "lower", "replay", "no gated metric: the hash backend serves only RunExecuted, which no workload here runs"},
		{"backend.ships_per_txn", "count", "lower", "replay", "no gated metric: the hash backend serves only RunExecuted, which no workload here runs"},
		{"obs.spans_dropped", "count", "lower", "span", "none: must be 0, qualifies the traced run"},
		{"obs.trace_overhead", "ratio", "lower", "span", "none: untraced / traced wall_ktps, qualifies the traced run"},
	}...)
	for _, l := range selfTimeLayers {
		m = append(m, layerMetric{l + ".self_vns_per_txn", "ns", "lower", "span",
			"the layer's share of virtual_ktps: span time minus nested child spans, per traced transaction"})
	}
	return m
}

// describeLayers prints the per-layer table: the per_layer list of
// BENCHMARK.json is this output without the source and moves fields.
func describeLayers() int {
	out, err := json.MarshalIndent(layerMetrics(), "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}
