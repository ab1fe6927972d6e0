package btree

import (
	"fmt"
	"sync"

	"atrapos/internal/schema"
)

// MultiRooted is the multi-rooted B-tree of PLP and ATraPos: the key space of
// a table is range partitioned and each range owns a private sub-tree root.
// Because every logical partition is accessed by exactly one worker thread,
// sub-tree accesses need no latching across threads. The coarse mutex here
// protects the partition boundary table and the sub-tree slice, which change
// only during repartitioning: row operations hold it for reading across the
// sub-tree call, so a concurrent Split, Merge or Repartition (which holds it
// for writing) can never route a key to a sub-tree that no longer owns it.
// The lock order is always m.mu before a sub-tree's own mutex.
type MultiRooted struct {
	mu     sync.RWMutex
	bounds []schema.Key // bounds[i] is the inclusive lower bound of partition i; bounds[0] == 0
	roots  []*Tree
}

// NewMultiRooted builds a multi-rooted tree with the given partition lower
// bounds. The first bound must be 0 (the partition covering the smallest
// keys); bounds must be strictly ascending.
func NewMultiRooted(bounds []schema.Key) (*MultiRooted, error) {
	if len(bounds) == 0 {
		return nil, fmt.Errorf("btree: multi-rooted tree needs at least one partition")
	}
	if bounds[0] != 0 {
		return nil, fmt.Errorf("btree: first partition bound must be 0, got %d", bounds[0])
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			return nil, fmt.Errorf("btree: partition bounds must be strictly ascending at %d", i)
		}
	}
	m := &MultiRooted{bounds: append([]schema.Key(nil), bounds...)}
	m.roots = make([]*Tree, len(bounds))
	for i := range m.roots {
		m.roots[i] = New()
	}
	return m, nil
}

// UniformBounds computes partition lower bounds that split the integer key
// range [0, maxKey) into n equal ranges, the "naïve" range partitioning that
// assigns one partition per core (Section IV, proof of concept). When the key
// space is smaller than n, fewer partitions are produced so that the bounds
// stay strictly ascending (a two-row table cannot have eighty partitions).
func UniformBounds(maxKey int64, n int) []schema.Key {
	if n < 1 {
		n = 1
	}
	if maxKey > 0 && int64(n) > maxKey {
		n = int(maxKey)
	}
	bounds := make([]schema.Key, 0, n)
	for i := 0; i < n; i++ {
		b := schema.KeyFromInt(maxKey * int64(i) / int64(n))
		if i == 0 {
			b = 0
		}
		if len(bounds) > 0 && b <= bounds[len(bounds)-1] {
			continue
		}
		bounds = append(bounds, b)
	}
	if len(bounds) == 0 {
		bounds = []schema.Key{0}
	}
	return bounds
}

// NumPartitions returns the number of sub-trees.
func (m *MultiRooted) NumPartitions() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.roots)
}

// Bounds returns a copy of the partition lower bounds.
func (m *MultiRooted) Bounds() []schema.Key {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return append([]schema.Key(nil), m.bounds...)
}

// PartitionFor returns the index of the partition that owns key.
func (m *MultiRooted) PartitionFor(key schema.Key) int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.partitionForLocked(key)
}

func (m *MultiRooted) partitionForLocked(key schema.Key) int {
	// The partition is the last bound <= key.
	return upperBound(m.bounds, key) - 1
}

// Partition returns the sub-tree of partition i.
func (m *MultiRooted) Partition(i int) (*Tree, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if i < 0 || i >= len(m.roots) {
		return nil, fmt.Errorf("btree: partition %d out of range [0,%d)", i, len(m.roots))
	}
	return m.roots[i], nil
}

// Get returns the row stored under key.
func (m *MultiRooted) Get(key schema.Key) (schema.Row, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.roots[m.partitionForLocked(key)].Get(key)
}

// Insert stores value under key in the owning partition.
func (m *MultiRooted) Insert(key schema.Key, value schema.Row) bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.roots[m.partitionForLocked(key)].Insert(key, value)
}

// Update applies fn to the row under key in the owning partition.
func (m *MultiRooted) Update(key schema.Key, fn func(schema.Row) schema.Row) bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.roots[m.partitionForLocked(key)].Update(key, fn)
}

// Delete removes key from its owning partition.
func (m *MultiRooted) Delete(key schema.Key) bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.roots[m.partitionForLocked(key)].Delete(key)
}

// Len returns the total number of entries across all partitions.
func (m *MultiRooted) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	total := 0
	for _, t := range m.roots {
		total += t.Len()
	}
	return total
}

// PartitionSizes returns the number of entries in each partition.
func (m *MultiRooted) PartitionSizes() []int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]int, len(m.roots))
	for i, t := range m.roots {
		out[i] = t.Len()
	}
	return out
}

// Scan visits entries with from <= key < to across partition boundaries in
// ascending key order. fn runs with m.mu held for reading, so it must not call
// back into m.
func (m *MultiRooted) Scan(from, to schema.Key, fn func(schema.Key, schema.Row) bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	start := m.partitionForLocked(from)
	for i := start; i < len(m.roots); i++ {
		if i > start && m.bounds[i] >= to {
			return
		}
		stopped := false
		m.roots[i].Scan(from, to, func(k schema.Key, v schema.Row) bool {
			if !fn(k, v) {
				stopped = true
				return false
			}
			return true
		})
		if stopped {
			return
		}
	}
}

// Split divides the partition that owns key `at` into two partitions at key
// `at`: the original partition keeps [lower, at) and a new partition holds
// [at, upper). It returns the index of the new partition. One in-order pass
// over the partition feeds two bottom-up loads; the original sub-tree is
// rebuilt in place, so callers holding it keep a valid handle.
func (m *MultiRooted) Split(at schema.Key) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	idx := m.partitionForLocked(at)
	if m.bounds[idx] == at {
		return 0, fmt.Errorf("btree: partition already starts at key %d", at)
	}
	old := m.roots[idx]
	var left, right loader
	old.mu.Lock()
	left.addAll(old, 0, at, false)
	right.addAll(old, at, 0, true)
	left.installLocked(old)
	old.mu.Unlock()
	// Insert the new partition after idx.
	newIdx := idx + 1
	m.bounds = append(m.bounds, 0)
	copy(m.bounds[newIdx+1:], m.bounds[newIdx:])
	m.bounds[newIdx] = at
	m.roots = append(m.roots, nil)
	copy(m.roots[newIdx+1:], m.roots[newIdx:])
	m.roots[newIdx] = right.tree()
	return newIdx, nil
}

// Merge combines partition i and partition i+1 into a single partition that
// keeps the lower bound of partition i. It returns an error if i is the last
// partition. Partition i's sub-tree is rebuilt in place from both.
func (m *MultiRooted) Merge(i int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if i < 0 || i+1 >= len(m.roots) {
		return fmt.Errorf("btree: cannot merge partition %d of %d", i, len(m.roots))
	}
	left, right := m.roots[i], m.roots[i+1]
	var b loader
	left.mu.Lock()
	right.mu.RLock()
	b.addAll(left, 0, 0, true)
	b.addAll(right, 0, 0, true)
	right.mu.RUnlock()
	b.installLocked(left)
	left.mu.Unlock()
	m.roots = append(m.roots[:i+1], m.roots[i+2:]...)
	m.bounds = append(m.bounds[:i+1], m.bounds[i+2:]...)
	return nil
}

// Repartition rebuilds the multi-rooted tree around a new set of bounds. It is
// the bulk operation behind large repartitioning decisions (e.g. adapting from
// 80 to 70 partitions after a socket failure). A new partition whose key range
// equals an old one's keeps that sub-tree untouched; every other one is loaded
// bottom-up from the old partitions it overlaps. Returns the number of entries
// that changed partition: an entry counts when its old partition index is past
// the new partition count or its new partition's lower bound differs from its
// old one's, whether or not its sub-tree was reused.
func (m *MultiRooted) Repartition(newBounds []schema.Key) (moved int, err error) {
	if len(newBounds) == 0 || newBounds[0] != 0 {
		return 0, fmt.Errorf("btree: invalid new bounds")
	}
	for i := 1; i < len(newBounds); i++ {
		if newBounds[i] <= newBounds[i-1] {
			return 0, fmt.Errorf("btree: new bounds must be strictly ascending")
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()

	oldBounds, oldRoots := m.bounds, m.roots
	roots := make([]*Tree, len(newBounds))
	for ni, lo := range newBounds {
		last := ni == len(newBounds)-1
		var hi schema.Key
		if !last {
			hi = newBounds[ni+1]
		}
		oi := upperBound(oldBounds, lo) - 1
		oldLast := oi == len(oldBounds)-1
		if oldBounds[oi] == lo && last == oldLast && (last || oldBounds[oi+1] == hi) {
			roots[ni] = oldRoots[oi]
			if oi >= len(newBounds) {
				moved += oldRoots[oi].Len()
			}
			continue
		}
		var b loader
		for ; oi < len(oldRoots) && (last || oldBounds[oi] < hi); oi++ {
			t := oldRoots[oi]
			t.mu.RLock()
			n := b.addAll(t, lo, hi, last)
			t.mu.RUnlock()
			if oi >= len(newBounds) || lo != oldBounds[oi] {
				moved += n
			}
		}
		roots[ni] = b.tree()
	}
	m.bounds = append([]schema.Key(nil), newBounds...)
	m.roots = roots
	return moved, nil
}
