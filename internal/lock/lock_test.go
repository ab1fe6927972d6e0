package lock

import (
	"sync"
	"testing"
	"testing/quick"

	"atrapos/internal/numa"
	"atrapos/internal/schema"
	"atrapos/internal/topology"
)

func TestCompatibilityMatrix(t *testing.T) {
	cases := []struct {
		a, b Mode
		want bool
	}{
		{IS, IS, true}, {IS, IX, true}, {IS, S, true}, {IS, X, false},
		{IX, IS, true}, {IX, IX, true}, {IX, S, false}, {IX, X, false},
		{S, IS, true}, {S, IX, false}, {S, S, true}, {S, X, false},
		{X, IS, false}, {X, IX, false}, {X, S, false}, {X, X, false},
	}
	for _, c := range cases {
		if got := Compatible(c.a, c.b); got != c.want {
			t.Errorf("Compatible(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
	if Compatible(Mode(9), S) {
		t.Error("unknown mode should be incompatible")
	}
}

func TestCompatibilitySymmetryProperty(t *testing.T) {
	prop := func(aRaw, bRaw uint8) bool {
		a, b := Mode(aRaw%4), Mode(bRaw%4)
		return Compatible(a, b) == Compatible(b, a)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestModeString(t *testing.T) {
	for _, m := range []Mode{IS, IX, S, X, Mode(7)} {
		if m.String() == "" {
			t.Errorf("mode %d has empty string", m)
		}
	}
}

func TestResourceHelpers(t *testing.T) {
	tr := TableResource("t")
	if tr.Kind != TableKind || tr.Table != "t" {
		t.Errorf("TableResource = %+v", tr)
	}
	rr := RowResource("t", schema.KeyFromInt(5))
	if rr.Kind != RowKind || rr.Key != schema.KeyFromInt(5) {
		t.Errorf("RowResource = %+v", rr)
	}
}

func TestTableAcquireReleaseBasics(t *testing.T) {
	lt := NewTable(16)
	res := RowResource("a", schema.KeyFromInt(1))

	if err := lt.Acquire(1, res, S); err != nil {
		t.Fatal(err)
	}
	if err := lt.Acquire(2, res, S); err != nil {
		t.Fatal("second shared lock should be granted")
	}
	if err := lt.Acquire(3, res, X); err != ErrConflict {
		t.Fatalf("X over S should conflict, got %v", err)
	}
	if lt.Holders(res) != 2 {
		t.Errorf("Holders = %d, want 2", lt.Holders(res))
	}
	if m, ok := lt.Held(1, res); !ok || m != S {
		t.Errorf("Held(1) = %v,%v", m, ok)
	}
	lt.Release(1, res)
	lt.Release(2, res)
	if err := lt.Acquire(3, res, X); err != nil {
		t.Fatalf("X after release should be granted: %v", err)
	}
	if lt.Len() != 1 {
		t.Errorf("Len = %d, want 1", lt.Len())
	}
	if n := lt.ReleaseAll(3); n != 1 {
		t.Errorf("ReleaseAll(3) = %d, want 1", n)
	}
	if lt.Len() != 0 {
		t.Errorf("lock table should be empty, Len = %d", lt.Len())
	}
	if _, ok := lt.Held(3, res); ok {
		t.Error("lock still held after ReleaseAll")
	}
}

func TestTableReacquireAndUpgrade(t *testing.T) {
	lt := NewTable(4)
	res := RowResource("a", schema.KeyFromInt(9))
	if err := lt.Acquire(1, res, S); err != nil {
		t.Fatal(err)
	}
	// Re-acquiring a weaker-or-equal mode succeeds.
	if err := lt.Acquire(1, res, S); err != nil {
		t.Fatal(err)
	}
	// Upgrade S -> X succeeds while sole holder.
	if err := lt.Acquire(1, res, X); err != nil {
		t.Fatal(err)
	}
	if m, _ := lt.Held(1, res); m != X {
		t.Errorf("mode after upgrade = %v, want X", m)
	}
	// Upgrade under contention fails.
	res2 := RowResource("a", schema.KeyFromInt(10))
	lt.Acquire(1, res2, S)
	lt.Acquire(2, res2, S)
	if err := lt.Acquire(1, res2, X); err != ErrConflict {
		t.Errorf("upgrade with other holders should conflict, got %v", err)
	}
	// X holder can re-acquire S (subsumed).
	if err := lt.Acquire(1, res, S); err != nil {
		t.Errorf("X holder re-acquiring S should succeed: %v", err)
	}
}

func TestIntentionLocks(t *testing.T) {
	lt := NewTable(4)
	table := TableResource("orders")
	if err := lt.Acquire(1, table, IX); err != nil {
		t.Fatal(err)
	}
	if err := lt.Acquire(2, table, IX); err != nil {
		t.Fatal("two IX locks should coexist")
	}
	if err := lt.Acquire(3, table, S); err != ErrConflict {
		t.Error("S should conflict with IX")
	}
	if err := lt.Acquire(3, table, IS); err != nil {
		t.Error("IS should coexist with IX")
	}
	if err := lt.Acquire(4, table, X); err != ErrConflict {
		t.Error("X should conflict with everything")
	}
}

func TestReleaseUnknownIsNoop(t *testing.T) {
	lt := NewTable(2)
	lt.Release(1, RowResource("a", 1))
	if n := lt.ReleaseAll(1); n != 0 {
		t.Errorf("ReleaseAll of unknown txn = %d", n)
	}
	if lt.Holders(RowResource("a", 1)) != 0 {
		t.Error("unexpected holders")
	}
}

func TestTableConcurrentDisjointAcquire(t *testing.T) {
	lt := NewTable(64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			txn := TxnID(w + 1)
			for i := 0; i < 500; i++ {
				res := RowResource("t", schema.KeyFromInt(int64(w*1000+i)))
				if err := lt.Acquire(txn, res, X); err != nil {
					t.Errorf("unexpected conflict: %v", err)
					return
				}
			}
			lt.ReleaseAll(txn)
		}(w)
	}
	wg.Wait()
	if lt.Len() != 0 {
		t.Errorf("lock table not empty after concurrent release: %d", lt.Len())
	}
}

func TestNewTableClampsBuckets(t *testing.T) {
	lt := NewTable(0)
	if err := lt.Acquire(1, RowResource("x", 1), S); err != nil {
		t.Fatal(err)
	}
}

func newDomain(sockets int) *numa.Domain {
	top := topology.MustNew(topology.Config{Sockets: sockets, CoresPerSocket: 2})
	return numa.MustNewDomain(top, numa.DefaultCostModel())
}

func TestCentralManagerCostsGrowAcrossSockets(t *testing.T) {
	d := newDomain(8)
	m := NewCentralManager(d, 16, false)
	res := RowResource("t", schema.KeyFromInt(1))

	// Repeated acquisition from socket 0 is cheap; alternating sockets pays
	// cache-line transfers.
	var local, remote numa.Cost
	for i := 0; i < 50; i++ {
		c, err := m.Acquire(0, TxnID(i*2+1), res, S)
		if err != nil {
			t.Fatal(err)
		}
		local += c
	}
	for i := 0; i < 50; i++ {
		c, err := m.Acquire(topology.SocketID(i%8), TxnID(1000+i), res, S)
		if err != nil {
			t.Fatal(err)
		}
		remote += c
	}
	if remote <= local {
		t.Errorf("multi-socket acquisition cost %d should exceed single-socket %d", remote, local)
	}
	cost, n := m.ReleaseAll(0, 1)
	if n != 1 || cost <= 0 {
		t.Errorf("ReleaseAll = %d locks, cost %d", n, cost)
	}
}

func TestCentralManagerConflict(t *testing.T) {
	d := newDomain(2)
	m := NewCentralManager(d, 16, false)
	res := RowResource("t", schema.KeyFromInt(7))
	if _, err := m.Acquire(0, 1, res, X); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Acquire(1, 2, res, X); err != ErrConflict {
		t.Errorf("expected conflict, got %v", err)
	}
}

func TestSpeculativeLockInheritance(t *testing.T) {
	d := newDomain(2)
	m := NewCentralManager(d, 16, true)
	table := TableResource("orders")

	c1, err := m.Acquire(0, 1, table, IX)
	if err != nil {
		t.Fatal(err)
	}
	if c1 <= 0 {
		t.Error("first acquisition should pay the bucket cost")
	}
	m.ReleaseAll(0, 1)
	m.RetainForSLI(0, table, IX)

	// Next transaction on the same socket inherits the table lock for free.
	c2, err := m.Acquire(0, 2, table, IS)
	if err != nil {
		t.Fatal(err)
	}
	if c2 != 0 {
		t.Errorf("inherited acquisition cost %d, want 0", c2)
	}
	if m.SLIHits() != 1 {
		t.Errorf("SLIHits = %d, want 1", m.SLIHits())
	}
	// Row locks are never inherited.
	m.RetainForSLI(0, RowResource("orders", 1), X)
	if c, _ := m.Acquire(0, 3, RowResource("orders", 1), X); c == 0 {
		t.Error("row locks must not be served by SLI")
	}
	// SLI disabled manager never hits.
	m2 := NewCentralManager(d, 16, false)
	m2.RetainForSLI(0, table, IX)
	if c, _ := m2.Acquire(0, 1, table, IS); c == 0 {
		t.Error("SLI-disabled manager should pay the bucket cost")
	}
	if m2.Table() == nil || m.Table() == nil {
		t.Error("Table accessor returned nil")
	}
}

func TestLocalManagerStaysLocal(t *testing.T) {
	d := newDomain(4)
	m := NewLocalManager(d, 3)
	if m.Home() != 3 {
		t.Errorf("Home = %d, want 3", m.Home())
	}
	res := RowResource("t", schema.KeyFromInt(5))
	c, err := m.Acquire(3, 1, res, X)
	if err != nil {
		t.Fatal(err)
	}
	if c != d.Model.LocalAtomic {
		t.Errorf("local acquisition cost %d, want %d", c, d.Model.LocalAtomic)
	}
	cost, n := m.ReleaseAll(3, 1)
	if n != 1 || cost != d.Model.LocalAtomic {
		t.Errorf("ReleaseAll cost %d count %d", cost, n)
	}
	if cost, n := m.ReleaseAll(3, 99); n != 0 || cost != 0 {
		t.Errorf("releasing nothing should be free, got cost %d count %d", cost, n)
	}
	// After rehoming to another socket, access from the old socket pays.
	m.Rehome(d, 0)
	if m.Home() != 0 {
		t.Errorf("Home after rehome = %d", m.Home())
	}
	c, _ = m.Acquire(3, 2, res, X)
	if c <= d.Model.LocalAtomic {
		t.Errorf("post-rehome remote acquisition cost %d should exceed local", c)
	}
	if m.Table() == nil {
		t.Error("Table accessor returned nil")
	}
}

func TestReleaseAllCountsOnlyOwnLocksOnCentralTable(t *testing.T) {
	lt := NewTable(256)
	// Other transactions hold locks across the table, some on the same rows
	// in compatible modes.
	for txn := TxnID(10); txn < 20; txn++ {
		for k := 0; k < 50; k++ {
			if err := lt.Acquire(txn, RowResource("other", schema.KeyFromInt(int64(int(txn)*100+k))), X); err != nil {
				t.Fatal(err)
			}
		}
		if err := lt.Acquire(txn, RowResource("shared", schema.KeyFromInt(1)), S); err != nil {
			t.Fatal(err)
		}
	}
	before := lt.Len()
	mine := []ResourceID{
		TableResource("mine"),
		RowResource("mine", schema.KeyFromInt(1)),
		RowResource("mine", schema.KeyFromInt(2)),
		RowResource("shared", schema.KeyFromInt(1)),
	}
	if err := lt.Acquire(1, mine[0], IX); err != nil {
		t.Fatal(err)
	}
	for _, res := range mine[1:] {
		if err := lt.Acquire(1, res, S); err != nil {
			t.Fatal(err)
		}
	}
	if n := lt.ReleaseAll(1); n != len(mine) {
		t.Errorf("ReleaseAll = %d, want %d", n, len(mine))
	}
	if lt.Len() != before {
		t.Errorf("Len = %d after release, want %d", lt.Len(), before)
	}
	for _, res := range mine {
		if _, ok := lt.Held(1, res); ok {
			t.Errorf("%+v still held after ReleaseAll", res)
		}
	}
	if h := lt.Holders(RowResource("shared", schema.KeyFromInt(1))); h != 10 {
		t.Errorf("shared row holders = %d, want 10", h)
	}
	for txn := TxnID(10); txn < 20; txn++ {
		if _, ok := lt.Held(txn, RowResource("other", schema.KeyFromInt(int64(int(txn)*100)))); !ok {
			t.Errorf("txn %d lost its lock", txn)
		}
		if n := lt.ReleaseAll(txn); n != 51 {
			t.Errorf("ReleaseAll(%d) = %d, want 51", txn, n)
		}
	}
	if lt.Len() != 0 {
		t.Errorf("Len = %d, want 0", lt.Len())
	}
}

func TestReleaseAllCountsUpgradeAndReacquireOnce(t *testing.T) {
	lt := NewTable(256)
	row := RowResource("a", schema.KeyFromInt(3))
	table := TableResource("a")
	for _, step := range []struct {
		res  ResourceID
		mode Mode
	}{{table, IS}, {table, IX}, {table, IS}, {row, S}, {row, S}, {row, X}, {row, S}} {
		if err := lt.Acquire(1, step.res, step.mode); err != nil {
			t.Fatal(err)
		}
	}
	if m, _ := lt.Held(1, row); m != X {
		t.Errorf("row mode = %v, want X", m)
	}
	if n := lt.ReleaseAll(1); n != 2 {
		t.Errorf("ReleaseAll = %d, want 2", n)
	}
	if n := lt.ReleaseAll(1); n != 0 {
		t.Errorf("second ReleaseAll = %d, want 0", n)
	}
}

func TestFailedAcquireIsNotReleased(t *testing.T) {
	lt := NewTable(256)
	row := RowResource("a", schema.KeyFromInt(4))
	if err := lt.Acquire(1, row, X); err != nil {
		t.Fatal(err)
	}
	if err := lt.Acquire(2, row, S); err != ErrConflict {
		t.Fatalf("expected conflict, got %v", err)
	}
	// A failed upgrade keeps the granted mode and is counted once.
	shared := RowResource("a", schema.KeyFromInt(5))
	lt.Acquire(2, shared, S)
	lt.Acquire(3, shared, S)
	if err := lt.Acquire(2, shared, X); err != ErrConflict {
		t.Fatalf("expected upgrade conflict, got %v", err)
	}
	if n := lt.ReleaseAll(2); n != 1 {
		t.Errorf("ReleaseAll(2) = %d, want 1 (the granted S lock only)", n)
	}
	if _, ok := lt.Held(1, row); !ok {
		t.Error("the conflicting request released the holder's lock")
	}
	if h := lt.Holders(shared); h != 1 {
		t.Errorf("shared holders = %d, want 1", h)
	}
}

func TestReleaseThenReleaseAllDoesNotDoubleRelease(t *testing.T) {
	lt := NewTable(8)
	a := RowResource("a", schema.KeyFromInt(1))
	b := RowResource("a", schema.KeyFromInt(2))
	lt.Acquire(1, a, S)
	lt.Acquire(1, b, X)
	if err := lt.Acquire(2, a, IS); err != nil {
		t.Fatal(err)
	}
	lt.Release(1, a)
	lt.Release(1, a)
	if n := lt.ReleaseAll(1); n != 1 {
		t.Errorf("ReleaseAll = %d, want 1", n)
	}
	if _, ok := lt.Held(1, b); ok {
		t.Error("b still held")
	}
	// Re-acquiring after Release puts the resource back on the held list.
	lt.Acquire(1, a, IS)
	if n := lt.ReleaseAll(1); n != 1 {
		t.Errorf("ReleaseAll after re-acquire = %d, want 1", n)
	}
	if h := lt.Holders(a); h != 1 {
		t.Errorf("holders of a = %d, want 1 (txn 2)", h)
	}
}

func TestAcquireReleaseAllSteadyStateAllocs(t *testing.T) {
	for _, buckets := range []int{256, 8} {
		lt := NewTable(buckets)
		res := []ResourceID{TableResource("t"), RowResource("t", 1), RowResource("t", 2), RowResource("u", 3)}
		txn := TxnID(0)
		cycle := func() {
			txn++
			lt.Acquire(txn, res[0], IX)
			for _, r := range res[1:] {
				lt.Acquire(txn, r, X)
			}
			lt.ReleaseAll(txn)
		}
		for i := 0; i < 1000; i++ {
			cycle()
		}
		if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
			t.Errorf("%d buckets: %.2f allocs per Acquire+ReleaseAll cycle, want 0", buckets, allocs)
		}
	}
}

func TestTableConcurrentSharedAndConflictingTxns(t *testing.T) {
	lt := NewTable(256)
	const workers, rounds = 8, 300
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				txn := TxnID(w*rounds + i + 1)
				granted := map[ResourceID]bool{}
				if lt.Acquire(txn, TableResource("t"), IX) == nil {
					granted[TableResource("t")] = true
				}
				for k := 0; k < 6; k++ {
					// Hot keys collide across workers; private keys never do.
					res := RowResource("t", schema.KeyFromInt(int64((i+k)%4)))
					if k%2 == 1 {
						res = RowResource("t", schema.KeyFromInt(int64(1000+w*100+k)))
					}
					if lt.Acquire(txn, res, X) == nil {
						granted[res] = true
					}
				}
				if i%3 == 0 {
					private := RowResource("t", schema.KeyFromInt(int64(1000+w*100+1)))
					lt.Release(txn, private)
					delete(granted, private)
				}
				if n := lt.ReleaseAll(txn); n != len(granted) {
					t.Errorf("txn %d: ReleaseAll = %d, want %d", txn, n, len(granted))
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if lt.Len() != 0 {
		t.Errorf("lock table not empty: %d", lt.Len())
	}
}
