package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"atrapos/internal/obs"
)

// track is the spans of one ring recorded on one core's clock: spans nest
// only within a track.
type track []obs.Span

// collectSpans copies every ring of the tracer, split into tracks.
func collectSpans(tr *obs.Tracer, cores int) []track {
	type key struct {
		ring *obs.Ring
		core int32
	}
	byKey := make(map[key]int)
	var out []track
	add := func(r *obs.Ring) {
		for _, sp := range r.Snapshot() {
			k := key{r, sp.Core}
			i, ok := byKey[k]
			if !ok {
				i = len(out)
				byKey[k] = i
				out = append(out, nil)
			}
			out[i] = append(out[i], sp)
		}
	}
	for i := 0; i < cores; i++ {
		add(tr.Worker(i))
		add(tr.Island(i))
	}
	for i := 0; tr.Device(i) != nil; i++ {
		add(tr.Device(i))
	}
	add(tr.Planner())
	return out
}

// largestRing returns the most spans any one ring holds; it sizes ringCap.
func largestRing(tr *obs.Tracer, cores int) int {
	most := tr.Planner().Len()
	for i := 0; i < cores; i++ {
		most = max(most, tr.Worker(i).Len(), tr.Island(i).Len())
	}
	for i := 0; tr.Device(i) != nil; i++ {
		most = max(most, tr.Device(i).Len())
	}
	return most
}

func countKind(ts []track, k obs.Kind) int {
	n := 0
	for _, t := range ts {
		for _, sp := range t {
			if sp.Kind == k {
				n++
			}
		}
	}
	return n
}

// layerOf maps a span kind to the layer that does its work; executed-backend
// spans carry wall time and are left out of the virtual-time self times.
func layerOf(k obs.Kind) string {
	switch k {
	case obs.KindTxn:
		return "engine"
	case obs.KindLockAcquire:
		return "lock"
	case obs.KindSyncPoint:
		return "numa"
	case obs.KindPrepare, obs.KindCommit:
		return "txn"
	case obs.KindWALAppend, obs.KindCoalesceFold, obs.KindPhysFlush:
		return "wal"
	case obs.KindDeviceWait:
		return "device"
	case obs.KindPlannerSeal, obs.KindPlannerScore, obs.KindPlannerRewire, obs.KindPlannerRepartition:
		return "core"
	}
	return ""
}

// selfTimes sums, per layer, each span's duration minus the part of its
// interval that its direct children on the same track cover.
func selfTimes(ts []track) map[string]float64 {
	self := make(map[string]float64)
	for _, t := range ts {
		spans := append([]obs.Span(nil), t...)
		sort.SliceStable(spans, func(i, j int) bool {
			if spans[i].Start != spans[j].Start {
				return spans[i].Start < spans[j].Start
			}
			return spans[i].Dur > spans[j].Dur
		})
		own := make([]float64, len(spans))
		var stack []int
		for i, sp := range spans {
			own[i] = float64(sp.Dur)
			end := sp.Start + sp.Dur
			for len(stack) > 0 {
				p := spans[stack[len(stack)-1]]
				if sp.Start < p.Start+p.Dur && end <= p.Start+p.Dur {
					break
				}
				stack = stack[:len(stack)-1]
			}
			if len(stack) > 0 {
				own[stack[len(stack)-1]] -= float64(sp.Dur)
			}
			if sp.Dur > 0 {
				stack = append(stack, i)
			}
		}
		for i, sp := range spans {
			if l := layerOf(sp.Kind); l != "" {
				self[l] += own[i]
			}
		}
	}
	return self
}

// spanMetrics fills the metrics computed from the traced run's spans.
func spanMetrics(m map[string]float64, ts []track) {
	durs := make(map[obs.Kind][]float64)
	classes := make(map[string][]float64)
	conflicts := 0
	for _, t := range ts {
		for _, sp := range t {
			durs[sp.Kind] = append(durs[sp.Kind], float64(sp.Dur))
			if sp.Kind == obs.KindTxn {
				classes[sp.Class] = append(classes[sp.Class], float64(sp.Dur)/1e3)
			}
			if sp.Kind == obs.KindLockAcquire && sp.Arg == 1 {
				conflicts++
			}
		}
	}
	txns := float64(len(durs[obs.KindTxn]))
	for _, c := range txnClasses {
		m["engine.txn_vus_p50."+c] = median(classes[c])
		m["engine.txn_vus_p99."+c] = quantile(classes[c], 0.99)
	}
	for c, xs := range classes {
		fmt.Printf("span txn class %-16s n=%-6d p50=%.3fus p99=%.3fus\n", c, len(xs), median(xs), quantile(xs, 0.99))
	}
	acq := float64(len(durs[obs.KindLockAcquire]))
	m["lock.acquires_per_txn"] = ratio(acq, txns)
	m["lock.vns_per_acquire"] = mean(durs[obs.KindLockAcquire])
	m["lock.conflict_share"] = ratio(float64(conflicts), acq)
	m["txn.twopc_per_txn"] = ratio(float64(len(durs[obs.KindPrepare])), txns)
	m["txn.prepare_vns"] = mean(durs[obs.KindPrepare])
	m["txn.commit_vns"] = mean(durs[obs.KindCommit])
	m["txn.sync_points_per_txn"] = ratio(float64(len(durs[obs.KindSyncPoint])), txns)
	m["core.planner_seals"] = float64(len(durs[obs.KindPlannerSeal]))
	m["core.planner_repartitions"] = float64(len(durs[obs.KindPlannerRepartition]))
	for l, ns := range selfTimes(ts) {
		m[l+".self_vns_per_txn"] = ratio(ns, txns)
	}
}

// traceEvent is one Chrome trace-event of the replay span set.
type traceEvent struct {
	Name string  `json:"name"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`
	Dur  float64 `json:"dur,omitempty"`
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
	Args any     `json:"args,omitempty"`
}

// replayPid is the trace process of the replay spans, after the engine's
// cores/islands/devices/planner processes.
const replayPid = 10

// writeTrace writes the engine's virtual-time trace and the replay's
// wall-clock spans as one Chrome trace-event file; the replay spans sit in
// their own process, one thread per replayed operation.
func writeTrace(dir, name string, program []byte, rec *recorder) (string, error) {
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(program, &doc); err != nil {
		return "", fmt.Errorf("decoding the engine trace: %w", err)
	}
	add := func(ev traceEvent) error {
		b, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		doc.TraceEvents = append(doc.TraceEvents, b)
		return nil
	}
	if err := add(traceEvent{Name: "process_name", Ph: "M", Pid: replayPid,
		Args: map[string]string{"name": "replay (wall clock)"}}); err != nil {
		return "", err
	}
	tids := make(map[string]int)
	for _, sp := range rec.spans {
		tid, ok := tids[sp.op]
		if !ok {
			tid = len(tids)
			tids[sp.op] = tid
			if err := add(traceEvent{Name: "thread_name", Ph: "M", Pid: replayPid, Tid: tid,
				Args: map[string]string{"name": sp.op}}); err != nil {
				return "", err
			}
		}
		if err := add(traceEvent{Name: sp.op, Ph: "X", Ts: float64(sp.start) / 1e3, Dur: float64(sp.dur) / 1e3,
			Pid: replayPid, Tid: tid}); err != nil {
			return "", err
		}
	}
	out, err := json.Marshal(doc)
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name+".trace.json")
	if err := os.WriteFile(path, out, 0o644); err != nil {
		return "", err
	}
	return path, nil
}

func spanCount(ts []track) int {
	n := 0
	for _, t := range ts {
		n += len(t)
	}
	return n
}
