package btree

import (
	"math/rand"
	"testing"

	"atrapos/internal/schema"
)

var sinkRow schema.Row

// ascendingTree loads keys 0..n-1 in ascending order, the way Table.LoadFunc
// populates a table.
func ascendingTree(n int) *Tree {
	tr := New()
	for i := 0; i < n; i++ {
		tr.Insert(schema.KeyFromInt(int64(i)), row(int64(i)))
	}
	return tr
}

// randomProbes returns a fixed pseudo-random probe sequence over [0, n), so
// successive probes land on unrelated leaves and pay the cache misses an
// engine's point reads pay (an in-order probe hits the leaf it just read).
func randomProbes(n int) []schema.Key {
	rng := rand.New(rand.NewSource(1))
	probes := make([]schema.Key, 1<<16)
	for i := range probes {
		probes[i] = schema.KeyFromInt(rng.Int63n(int64(n)))
	}
	return probes
}

const randomProbeKeys = 250000

// BenchmarkTreeGetRandom probes a 250k-key tree at random keys:
//
//	go test -run '^$' -bench 'Random$' -benchmem ./internal/btree
func BenchmarkTreeGetRandom(b *testing.B) {
	tr := ascendingTree(randomProbeKeys)
	probes := randomProbes(randomProbeKeys)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkRow, _ = tr.Get(probes[i&(len(probes)-1)])
	}
}

// BenchmarkTreeUpdateRandom updates rows of a 250k-key tree at random keys.
func BenchmarkTreeUpdateRandom(b *testing.B) {
	tr := ascendingTree(randomProbeKeys)
	probes := randomProbes(randomProbeKeys)
	touch := func(r schema.Row) schema.Row { return r }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !tr.Update(probes[i&(len(probes)-1)], touch) {
			b.Fatal("Update missed a loaded key")
		}
	}
}

const rebuildRows = 100000

func loadedMultiRooted(b *testing.B, bounds []schema.Key) *MultiRooted {
	m, err := NewMultiRooted(bounds)
	if err != nil {
		b.Fatal(err)
	}
	for i := int64(0); i < rebuildRows; i++ {
		m.Insert(schema.KeyFromInt(i), row(i))
	}
	return m
}

// BenchmarkMultiRootedSplit splits a 100k-row partition in half; the Merge
// that restores it runs outside the timer.
func BenchmarkMultiRootedSplit(b *testing.B) {
	m := loadedMultiRooted(b, []schema.Key{0})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Split(schema.KeyFromInt(rebuildRows / 2)); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := m.Merge(0); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// BenchmarkMultiRootedRepartition alternates a 100k-row table between two
// bound sets: 8 and 7 uniform ranges (every range but the first changes), and
// 8 uniform ranges with one inner boundary moved (two ranges change, six keep
// their sub-trees).
func BenchmarkMultiRootedRepartition(b *testing.B) {
	eight := UniformBounds(rebuildRows, 8)
	moved := append([]schema.Key(nil), eight...)
	moved[4] += rebuildRows / 32
	for _, tc := range []struct {
		name string
		a, b []schema.Key
	}{
		{"8-to-7", eight, UniformBounds(rebuildRows, 7)},
		{"one-boundary", eight, moved},
	} {
		b.Run(tc.name, func(b *testing.B) {
			m := loadedMultiRooted(b, tc.a)
			next := [2][]schema.Key{tc.b, tc.a}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.Repartition(next[i&1]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
