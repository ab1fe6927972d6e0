package lock

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"atrapos/internal/schema"
)

// lockCycle runs one transaction's lock cycle: a table intention lock plus
// locks-1 row locks, then ReleaseAll. The row keys are derived from txn, so
// each fresh TxnID takes a fresh window of keys and entries churn through the
// bucket pools the way engine transactions do.
func lockCycle(lt *Table, txn TxnID, locks int) {
	lt.Acquire(txn, TableResource("t"), IX)
	base := int64(txn) * int64(locks)
	for k := 1; k < locks; k++ {
		lt.Acquire(txn, RowResource("t", schema.KeyFromInt(base+int64(k))), X)
	}
	if n := lt.ReleaseAll(txn); n != locks {
		panic(fmt.Sprintf("ReleaseAll = %d, want %d", n, locks))
	}
}

// maxCentralOverLocal bounds how much slower one Acquire+ReleaseAll cycle may
// be on the 256-bucket table than on the 8-bucket one. A scan of every bucket
// made the 2-lock cycle about 15x slower; with O(locks held) release the two
// cost about the same.
const maxCentralOverLocal = 5

// BenchmarkTableAcquireReleaseAll prices one transaction's Acquire+ReleaseAll
// cycle on a 256-bucket central table and an 8-bucket partition-local table.
// It fails when, at the same lock count, the central table is more than
// maxCentralOverLocal times slower than the local one, i.e. when ReleaseAll's
// cost grows with the bucket count again.
//
//	go test -run '^$' -bench BenchmarkTableAcquireReleaseAll -benchmem ./internal/lock
func BenchmarkTableAcquireReleaseAll(b *testing.B) {
	for _, locks := range []int{2, 10} {
		perOp := map[string]time.Duration{}
		for _, tc := range []struct {
			name    string
			buckets int
		}{{"central-256", 256}, {"local-8", 8}} {
			b.Run(fmt.Sprintf("%s/locks-%d", tc.name, locks), func(b *testing.B) {
				lt := NewTable(tc.buckets)
				txn := TxnID(0)
				for i := 0; i < 100; i++ {
					txn++
					lockCycle(lt, txn, locks)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					txn++
					lockCycle(lt, txn, locks)
				}
				perOp[tc.name] = b.Elapsed() / time.Duration(b.N)
			})
		}
		central, local := perOp["central-256"], perOp["local-8"]
		if central > 0 && local > 0 && central > maxCentralOverLocal*local {
			b.Errorf("locks-%d: central-256 %v per cycle, local-8 %v: release cost grows with the bucket count", locks, central, local)
		}
	}
}

// BenchmarkTableAcquireReleaseAllParallel runs the same cycle from parallel
// goroutines on one 256-bucket table, the way workers share the central lock
// manager. Run it with -cpu to vary the worker count.
func BenchmarkTableAcquireReleaseAllParallel(b *testing.B) {
	for _, locks := range []int{2, 10} {
		b.Run(fmt.Sprintf("central-256/locks-%d", locks), func(b *testing.B) {
			lt := NewTable(256)
			var next atomic.Int64
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					lockCycle(lt, TxnID(next.Add(1)), locks)
				}
			})
		})
	}
}
