package harness

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// poolTestScale is a reduced quick scale: sweep points stay real simulations
// but small enough that the bit-identity tests (which run every sweep twice)
// and the race-detector pass stay fast.
func poolTestScale() Scale {
	s := QuickScale()
	s.Transactions = 600
	s.MicroRows = 3000
	return s
}

// TestParallelSweepBitIdentical is the tentpole's determinism guarantee: the
// fig-islands and fig-log-devices tables rendered at -parallel 1 and
// -parallel 8 are equal byte for byte. The pool pins per-point engine worker
// counts independently of its concurrency, so fanning points out can change
// only wall time, never a cell.
func TestParallelSweepBitIdentical(t *testing.T) {
	serial := poolTestScale()
	serial.Parallel = 1
	parallel := poolTestScale()
	parallel.Parallel = 8
	for _, exp := range []struct {
		name string
		run  func(Scale) (*Table, error)
	}{
		{"fig-islands", FigIslands},
		{"fig-log-devices", FigLogDevices},
	} {
		a, err := exp.run(serial)
		if err != nil {
			t.Fatalf("%s serial: %v", exp.name, err)
		}
		b, err := exp.run(parallel)
		if err != nil {
			t.Fatalf("%s parallel: %v", exp.name, err)
		}
		if a.String() != b.String() {
			t.Errorf("%s differs between -parallel 1 and -parallel 8:\n--- serial ---\n%s\n--- parallel ---\n%s",
				exp.name, a, b)
		}
	}
}

// TestFuzzShardDeterminism: the same base seed produces the same per-scenario
// verdicts at any pool concurrency — every scenario derives everything from
// its own seed, and the reports compact failures in submission order.
func TestFuzzShardDeterminism(t *testing.T) {
	run := func(parallel int) *FuzzReport {
		t.Helper()
		rep, err := FuzzScenarios(FuzzOptions{Scenarios: 4, Seed: 42, Scale: poolTestScale(), Parallel: parallel})
		if err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		return rep
	}
	ref := run(1)
	for _, parallel := range []int{4, 8} {
		got := run(parallel)
		if !reflect.DeepEqual(ref, got) {
			t.Errorf("verdicts differ between concurrency 1 and %d:\n  serial   %+v\n  parallel %+v", parallel, ref, got)
		}
	}
}

// TestPoolErrorAggregation: a failing point aborts nothing — every job runs,
// results land in submission-order slots, and the joined error carries every
// failure.
func TestPoolErrorAggregation(t *testing.T) {
	const jobs = 16
	ran := make([]bool, jobs)
	fns := make([]PointFn, jobs)
	for i := 0; i < jobs; i++ {
		fns[i] = func() error {
			ran[i] = true
			if i%5 == 0 {
				return fmt.Errorf("point %d failed", i)
			}
			return nil
		}
	}
	err := NewPool(4).Run(fns)
	if err == nil {
		t.Fatal("expected a joined error")
	}
	for i, r := range ran {
		if !r {
			t.Errorf("point %d never ran", i)
		}
	}
	for i := 0; i < jobs; i += 5 {
		if !strings.Contains(err.Error(), fmt.Sprintf("point %d failed", i)) {
			t.Errorf("joined error is missing point %d: %v", i, err)
		}
	}
	if strings.Contains(err.Error(), "point 1 failed") {
		t.Errorf("joined error blames a point that succeeded: %v", err)
	}
}

// TestPoolAllocToken: a token section runs with no other point executing —
// the exclusion the fuzzer's process-global allocs/txn window depends on —
// and no two token sections run at once. A point parked in WithAllocToken,
// waiting for the token, executes nothing, so running counts only points
// executing outside a token section. Run under -race (make race) this also
// proves the token's handover is properly synchronized.
func TestPoolAllocToken(t *testing.T) {
	p := NewPool(8)
	var running, inToken atomic.Int64
	var tokenViolations, tokenOverlaps atomic.Int64
	const jobs = 32
	fns := make([]PointFn, jobs)
	for i := 0; i < jobs; i++ {
		fns[i] = func() error {
			running.Add(1)
			defer running.Add(-1)
			if i%4 != 0 {
				// Stay in flight long enough for a broken token to overlap.
				time.Sleep(200 * time.Microsecond)
				return nil
			}
			running.Add(-1)
			defer running.Add(1)
			return p.WithAllocToken(func() error {
				if inToken.Add(1) != 1 {
					tokenOverlaps.Add(1)
				}
				defer inToken.Add(-1)
				time.Sleep(200 * time.Microsecond)
				if running.Load() != 0 {
					tokenViolations.Add(1)
				}
				return nil
			})
		}
	}
	if err := p.Run(fns); err != nil {
		t.Fatal(err)
	}
	if v := tokenViolations.Load(); v != 0 {
		t.Errorf("%d token sections overlapped another executing point", v)
	}
	if v := tokenOverlaps.Load(); v != 0 {
		t.Errorf("%d token sections overlapped another token section", v)
	}
}

// TestPoolRunEmptyAndSerial: degenerate shapes keep working.
func TestPoolRunEmptyAndSerial(t *testing.T) {
	if err := NewPool(4).Run(nil); err != nil {
		t.Errorf("empty job list: %v", err)
	}
	order := []int{}
	var fns []PointFn
	for i := 0; i < 5; i++ {
		fns = append(fns, func() error {
			order = append(order, i)
			return nil
		})
	}
	if err := NewPool(1).Run(fns); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(order, []int{0, 1, 2, 3, 4}) {
		t.Errorf("serial pool ran out of order: %v", order)
	}
	if NewPool(0).Concurrency() != 1 || NewPool(-3).Concurrency() != 1 {
		t.Error("concurrency below 1 should clamp to 1")
	}
}

// TestPointWorkersBudget pins the worker-budget model: legacy callers
// (Parallel == 0) pass Workers through untouched; pooled scales pin automatic
// workers to 1 at every concurrency (the determinism contract); explicit
// workers are respected but capped so concurrency x workers stays within
// GOMAXPROCS.
func TestPointWorkersBudget(t *testing.T) {
	s := QuickScale()
	if got := s.pointWorkers(); got != 0 {
		t.Errorf("legacy scale should pass automatic workers through, got %d", got)
	}
	s.Workers = 6
	if got := s.pointWorkers(); got != 6 {
		t.Errorf("legacy scale should pass explicit workers through, got %d", got)
	}
	s.Workers = 0
	for _, parallel := range []int{1, 2, 8, 64} {
		s.Parallel = parallel
		if got := s.pointWorkers(); got != 1 {
			t.Errorf("parallel=%d: automatic workers under the pool must pin to 1, got %d", parallel, got)
		}
	}
	s.Workers = 1
	for _, parallel := range []int{1, 8} {
		s.Parallel = parallel
		if got := s.pointWorkers(); got != 1 {
			t.Errorf("parallel=%d: explicit single workers must stay 1, got %d", parallel, got)
		}
	}
}

// TestRunAllTimedAggregatesErrors: a broken scale (unknown profile surfaces
// inside experiments via Validate up front) — so instead exercise the
// aggregation through MeasureParallel's identity contract and RunAllTimed's
// ordering on a tiny healthy scale.
func TestRunAllTimedOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole registry")
	}
	s := poolTestScale()
	s.Parallel = 4
	results, err := RunAllTimed(s)
	if err != nil {
		t.Fatal(err)
	}
	reg := Registry()
	if len(results) != len(reg) {
		t.Fatalf("%d results for %d experiments", len(results), len(reg))
	}
	for i, r := range results {
		if r.ID != reg[i].ID {
			t.Errorf("slot %d holds %s, want %s (submission order lost)", i, r.ID, reg[i].ID)
		}
		if r.Err != nil {
			t.Errorf("%s failed: %v", r.ID, r.Err)
		}
		if r.Table == nil {
			t.Errorf("%s produced no table", r.ID)
		}
		if r.Wall <= 0 {
			t.Errorf("%s has no wall time", r.ID)
		}
	}
}

// TestMeasureParallel: the determinism harness itself — the serial and
// pooled passes must be bit-identical and the report's fields coherent.
func TestMeasureParallel(t *testing.T) {
	s := poolTestScale()
	s.Parallel = 4
	rep, err := MeasureParallel(s)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Identical {
		t.Error("serial and pooled island sweeps differ — the pool changed a result")
	}
	if rep.Concurrency != 4 || rep.PointWorkers != 1 {
		t.Errorf("report pins concurrency=4 workers=1, got %d/%d", rep.Concurrency, rep.PointWorkers)
	}
	if rep.Points == 0 || rep.SerialWallMS <= 0 || rep.ParallelWallMS <= 0 || rep.Speedup <= 0 {
		t.Errorf("degenerate report: %+v", rep)
	}
}

var _ = errors.Join // keep the import hint close to the pool's contract
