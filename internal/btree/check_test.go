package btree

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"atrapos/internal/schema"
)

// check verifies t's structural invariants: keys ascend within every node,
// each inner node's separators bound its children's keys, all leaves sit at
// one depth, the leaf chain links exactly the leaves of the tree in order and
// covers exactly Len() keys, and NodeCount() is exact.
func (t *Tree) check() error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var leaves []*leaf
	nodes, leafDepth := 0, -1
	var walkLeaf func(l *leaf, lo, hi schema.Key, bounded bool, depth int) error
	walkLeaf = func(l *leaf, lo, hi schema.Key, bounded bool, depth int) error {
		nodes++
		if leafDepth < 0 {
			leafDepth = depth
		} else if depth != leafDepth {
			return fmt.Errorf("leaf at depth %d, want %d", depth, leafDepth)
		}
		if l.n < 0 || l.n > maxKeys {
			return fmt.Errorf("leaf holds %d keys", l.n)
		}
		for i := 0; i < l.n; i++ {
			k := l.keys[i]
			if i > 0 && k <= l.keys[i-1] {
				return fmt.Errorf("leaf keys not ascending at %d", i)
			}
			if k < lo || (bounded && k >= hi) {
				return fmt.Errorf("leaf key %d outside separator range [%d,%d)", k, lo, hi)
			}
		}
		for i := l.n; i < maxKeys; i++ {
			if l.values[i] != nil {
				return fmt.Errorf("leaf keeps a value in unused slot %d", i)
			}
		}
		leaves = append(leaves, l)
		return nil
	}
	var walk func(p *inner, lo, hi schema.Key, bounded bool, depth int) error
	walk = func(p *inner, lo, hi schema.Key, bounded bool, depth int) error {
		nodes++
		if p.n < 0 || p.n > maxKeys {
			return fmt.Errorf("inner node holds %d keys", p.n)
		}
		for i := 0; i < p.n; i++ {
			k := p.keys[i]
			if i > 0 && k <= p.keys[i-1] {
				return fmt.Errorf("separators not ascending at %d", i)
			}
			if k < lo || (bounded && k >= hi) {
				return fmt.Errorf("separator %d outside parent range [%d,%d)", k, lo, hi)
			}
		}
		for i := 0; i < fanout; i++ {
			used := i <= p.n
			if (p.leaves[i] != nil) != (used && p.bottom) || (p.inners[i] != nil) != (used && !p.bottom) {
				return fmt.Errorf("child slot %d of a node with %d keys (bottom=%v) misfilled", i, p.n, p.bottom)
			}
		}
		for i := 0; i <= p.n; i++ {
			clo, chi, cb := lo, hi, bounded
			if i > 0 {
				clo = p.keys[i-1]
			}
			if i < p.n {
				chi, cb = p.keys[i], true
			}
			var err error
			if p.bottom {
				err = walkLeaf(p.leaves[i], clo, chi, cb, depth+1)
			} else {
				err = walk(p.inners[i], clo, chi, cb, depth+1)
			}
			if err != nil {
				return err
			}
		}
		return nil
	}
	var err error
	if t.root == nil {
		err = walkLeaf(t.head, 0, 0, false, 0)
	} else {
		err = walk(t.root, 0, 0, false, 0)
	}
	if err != nil {
		return err
	}
	if nodes != t.nodes {
		return fmt.Errorf("NodeCount() = %d, tree has %d nodes", t.nodes, nodes)
	}
	keys := 0
	i := 0
	for l := t.head; l != nil; l = l.next {
		if i >= len(leaves) || leaves[i] != l {
			return fmt.Errorf("leaf chain diverges from the tree at leaf %d", i)
		}
		keys += l.n
		i++
	}
	if i != len(leaves) {
		return fmt.Errorf("leaf chain links %d of %d leaves", i, len(leaves))
	}
	if keys != t.size {
		return fmt.Errorf("leaf chain holds %d keys, Len() = %d", keys, t.size)
	}
	return nil
}

// checkMulti runs check on every sub-tree and verifies each holds only keys
// of its partition's range.
func checkMulti(m *MultiRooted) error {
	m.mu.RLock()
	defer m.mu.RUnlock()
	for i, t := range m.roots {
		if err := t.check(); err != nil {
			return fmt.Errorf("partition %d: %w", i, err)
		}
		var bad error
		t.Ascend(func(k schema.Key, _ schema.Row) bool {
			if k < m.bounds[i] || (i+1 < len(m.bounds) && k >= m.bounds[i+1]) {
				bad = fmt.Errorf("partition %d holds key %d outside its range", i, k)
				return false
			}
			return true
		})
		if bad != nil {
			return bad
		}
	}
	return nil
}

func TestCheckAfterInsertsAndDeletes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, maxKeys, maxKeys + 1, 5000, 20000} {
		asc, rnd := New(), New()
		for i := 0; i < n; i++ {
			asc.Insert(schema.KeyFromInt(int64(i)), row(int64(i)))
		}
		for _, k := range rng.Perm(n) {
			rnd.Insert(schema.KeyFromInt(int64(k)), row(int64(k)))
		}
		for i := 0; i < n; i += 3 {
			asc.Delete(schema.KeyFromInt(int64(i)))
			rnd.Delete(schema.KeyFromInt(int64(i)))
		}
		if err := asc.check(); err != nil {
			t.Fatalf("ascending n=%d: %v", n, err)
		}
		if err := rnd.check(); err != nil {
			t.Fatalf("random n=%d: %v", n, err)
		}
	}
}

// An ascending load leaves every leaf but the last full, which halves the
// node count of median splits.
func TestAscendingLoadPacksLeaves(t *testing.T) {
	tr := New()
	const n = 100 * maxKeys
	for i := 0; i < n; i++ {
		tr.Insert(schema.KeyFromInt(int64(i)), row(int64(i)))
	}
	leaves := 0
	for l := tr.head; l != nil; l = l.next {
		leaves++
		if l.n != maxKeys {
			t.Fatalf("leaf %d holds %d keys, want %d", leaves, l.n, maxKeys)
		}
	}
	if leaves != n/maxKeys {
		t.Errorf("%d leaves, want %d", leaves, n/maxKeys)
	}
	if err := tr.check(); err != nil {
		t.Fatal(err)
	}
}

func TestBulkLoadPacksAndInserts(t *testing.T) {
	for _, n := range []int{1, maxKeys, maxKeys + 1, fanout * maxKeys, fanout*maxKeys + 1, 50000} {
		items := make([]Item, n)
		for i := range items {
			items[i] = Item{Key: schema.KeyFromInt(int64(2 * i)), Value: row(int64(i))}
		}
		tr, err := BulkLoad(items)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.check(); err != nil {
			t.Fatalf("n=%d after load: %v", n, err)
		}
		if want := (n + maxKeys - 1) / maxKeys; tr.NodeCount() < want || tr.NodeCount() > want+want/(fanout-1)+2 {
			t.Errorf("n=%d: %d nodes, want %d leaves plus a packed upper level", n, tr.NodeCount(), want)
		}
		// Inserting between the loaded keys splits the packed nodes.
		for i := 0; i < n; i += 7 {
			tr.Insert(schema.KeyFromInt(int64(2*i+1)), row(0))
		}
		if err := tr.check(); err != nil {
			t.Fatalf("n=%d after inserts: %v", n, err)
		}
		for i := 0; i < n; i++ {
			if v, ok := tr.Get(schema.KeyFromInt(int64(2 * i))); !ok || v[0].(int64) != int64(i) {
				t.Fatalf("n=%d: Get(%d) = %v %v", n, 2*i, v, ok)
			}
		}
	}
}

// Lazy Delete can empty the leaves at either edge of the tree; Min and Max
// must skip them instead of reporting an empty tree.
func TestMinMaxAfterDeletingEdgeLeaves(t *testing.T) {
	tr := New()
	for i := 0; i < 500; i++ {
		tr.Insert(schema.KeyFromInt(int64(i)), row(int64(i)))
	}
	for i := 0; i < 100; i++ {
		tr.Delete(schema.KeyFromInt(int64(i)))
	}
	if k, ok := tr.Min(); !ok || k != schema.KeyFromInt(100) {
		t.Errorf("Min() = %d, %v with Len() = %d, want 100", k, ok, tr.Len())
	}
	for i := 400; i < 500; i++ {
		tr.Delete(schema.KeyFromInt(int64(i)))
	}
	if k, ok := tr.Max(); !ok || k != schema.KeyFromInt(399) {
		t.Errorf("Max() = %d, %v with Len() = %d, want 399", k, ok, tr.Len())
	}
	for i := 100; i < 400; i++ {
		tr.Delete(schema.KeyFromInt(int64(i)))
	}
	if _, ok := tr.Min(); ok {
		t.Error("Min() on an emptied tree should report absence")
	}
	if _, ok := tr.Max(); ok {
		t.Error("Max() on an emptied tree should report absence")
	}
}

// refMulti is the per-key reference for MultiRooted: the Split, Merge and
// Repartition algorithms the bottom-up rebuild replaced, moving one entry at a
// time, over plain maps.
type refMulti struct {
	bounds []schema.Key
	parts  []map[schema.Key]int64
}

func (r *refMulti) locate(bounds []schema.Key, k schema.Key) int {
	return sort.Search(len(bounds), func(i int) bool { return bounds[i] > k }) - 1
}

func (r *refMulti) split(at schema.Key) (int, bool) {
	idx := r.locate(r.bounds, at)
	if r.bounds[idx] == at {
		return 0, false
	}
	right := map[schema.Key]int64{}
	for k, v := range r.parts[idx] {
		if k >= at {
			right[k] = v
			delete(r.parts[idx], k)
		}
	}
	newIdx := idx + 1
	r.bounds = append(r.bounds[:newIdx], append([]schema.Key{at}, r.bounds[newIdx:]...)...)
	r.parts = append(r.parts[:newIdx], append([]map[schema.Key]int64{right}, r.parts[newIdx:]...)...)
	return newIdx, true
}

func (r *refMulti) merge(i int) bool {
	if i < 0 || i+1 >= len(r.parts) {
		return false
	}
	for k, v := range r.parts[i+1] {
		r.parts[i][k] = v
	}
	r.parts = append(r.parts[:i+1], r.parts[i+2:]...)
	r.bounds = append(r.bounds[:i+1], r.bounds[i+2:]...)
	return true
}

func (r *refMulti) repartition(newBounds []schema.Key) (moved int) {
	parts := make([]map[schema.Key]int64, len(newBounds))
	for i := range parts {
		parts[i] = map[schema.Key]int64{}
	}
	for oldIdx, p := range r.parts {
		for k, v := range p {
			ni := r.locate(newBounds, k)
			parts[ni][k] = v
			if oldIdx >= len(newBounds) || newBounds[ni] != r.bounds[oldIdx] {
				moved++
			}
		}
	}
	r.bounds = append([]schema.Key(nil), newBounds...)
	r.parts = parts
	return moved
}

// sameAs reports the first difference between m and the reference: bounds,
// PartitionSizes, or any partition's contents.
func (r *refMulti) sameAs(m *MultiRooted) error {
	if got := m.Bounds(); fmt.Sprint(got) != fmt.Sprint(r.bounds) {
		return fmt.Errorf("bounds %v, reference %v", got, r.bounds)
	}
	sizes := m.PartitionSizes()
	for i, p := range r.parts {
		if sizes[i] != len(p) {
			return fmt.Errorf("PartitionSizes %v differ at %d from reference size %d", sizes, i, len(p))
		}
		tr, _ := m.Partition(i)
		var bad error
		tr.Ascend(func(k schema.Key, v schema.Row) bool {
			if want, ok := p[k]; !ok || v[0].(int64) != want {
				bad = fmt.Errorf("partition %d holds %d=%v, reference %v %v", i, k, v, want, ok)
				return false
			}
			return true
		})
		if bad != nil {
			return bad
		}
	}
	return checkMulti(m)
}

// randomBounds draws 1..9 strictly ascending partition bounds over [0, span),
// the first one 0; with probability one half it keeps some of cur's bounds so
// that unchanged ranges (and sub-tree reuse) occur.
func randomBounds(rng *rand.Rand, span int64, cur []schema.Key) []schema.Key {
	set := map[schema.Key]bool{0: true}
	if rng.Intn(2) == 0 {
		for _, b := range cur {
			if rng.Intn(3) > 0 {
				set[b] = true
			}
		}
	}
	for n := rng.Intn(9); n > 0; n-- {
		set[schema.KeyFromInt(rng.Int63n(span))] = true
	}
	out := make([]schema.Key, 0, len(set))
	for b := range set {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestMultiRootedMatchesPerKeyReferenceProperty runs random key sets through
// random Split/Merge/Repartition sequences (with inserts and deletes between
// them) on MultiRooted and on the per-key reference, and requires identical
// bounds, contents, PartitionSizes and moved counts after every step.
func TestMultiRootedMatchesPerKeyReferenceProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		span := int64(1 + rng.Intn(3000))
		bounds := randomBounds(rng, span, nil)
		m, err := NewMultiRooted(bounds)
		if err != nil {
			t.Log(err)
			return false
		}
		ref := &refMulti{bounds: append([]schema.Key(nil), bounds...)}
		for range bounds {
			ref.parts = append(ref.parts, map[schema.Key]int64{})
		}
		insert := func(k schema.Key, v int64) {
			m.Insert(k, row(v))
			ref.parts[ref.locate(ref.bounds, k)][k] = v
		}
		for n := rng.Intn(int(span) + 1); n > 0; n-- {
			insert(schema.KeyFromInt(rng.Int63n(span)), rng.Int63())
		}
		for step := 0; step < 12; step++ {
			desc := ""
			switch op := rng.Intn(5); op {
			case 0, 1:
				at := schema.KeyFromInt(rng.Int63n(span))
				desc = fmt.Sprintf("Split(%d)", at)
				idx, err := m.Split(at)
				ridx, rok := ref.split(at)
				if (err == nil) != rok || idx != ridx {
					t.Logf("seed %d: %s = %d, %v; reference %d, %v", seed, desc, idx, err, ridx, rok)
					return false
				}
			case 2:
				i := rng.Intn(len(ref.parts) + 1)
				desc = fmt.Sprintf("Merge(%d)", i)
				if err := m.Merge(i); (err == nil) != ref.merge(i) {
					t.Logf("seed %d: %s error %v disagrees with the reference", seed, desc, err)
					return false
				}
			case 3:
				nb := randomBounds(rng, span, ref.bounds)
				desc = fmt.Sprintf("Repartition(%v)", nb)
				moved, err := m.Repartition(nb)
				if want := ref.repartition(nb); err != nil || moved != want {
					t.Logf("seed %d: %s moved %d (%v), reference %d", seed, desc, moved, err, want)
					return false
				}
			default:
				desc = "inserts and deletes"
				for n := rng.Intn(50); n > 0; n-- {
					k := schema.KeyFromInt(rng.Int63n(span))
					if rng.Intn(2) == 0 {
						insert(k, rng.Int63())
					} else {
						m.Delete(k)
						delete(ref.parts[ref.locate(ref.bounds, k)], k)
					}
				}
			}
			if err := ref.sameAs(m); err != nil {
				t.Logf("seed %d: after %s: %v", seed, desc, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// A Repartition keeps the sub-tree of every partition whose [lo, hi) range is
// unchanged, Split keeps the split partition's sub-tree, and Merge keeps the
// left one's.
func TestRebuildsKeepSubTreeIdentity(t *testing.T) {
	m, _ := NewMultiRooted([]schema.Key{0, 100, 200, 300})
	for i := int64(0); i < 400; i++ {
		m.Insert(schema.KeyFromInt(i), row(i))
	}
	before := make([]*Tree, 4)
	for i := range before {
		before[i], _ = m.Partition(i)
	}
	// [0,100) and [300,inf) keep their ranges; [100,300) is re-cut.
	if _, err := m.Repartition([]schema.Key{0, 100, 150, 300}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ oldIdx, newIdx int }{{0, 0}, {3, 3}} {
		if got, _ := m.Partition(c.newIdx); got != before[c.oldIdx] {
			t.Errorf("partition %d was rebuilt; its range did not change", c.newIdx)
		}
	}
	for _, i := range []int{1, 2} {
		if got, _ := m.Partition(i); got == before[1] || got == before[2] {
			t.Errorf("partition %d reuses an old sub-tree for a changed range", i)
		}
	}
	first, _ := m.Partition(0)
	if _, err := m.Split(schema.KeyFromInt(50)); err != nil {
		t.Fatal(err)
	}
	if got, _ := m.Partition(0); got != first || got.Len() != 50 {
		t.Errorf("Split replaced the split partition's sub-tree (%d entries)", got.Len())
	}
	if err := m.Merge(0); err != nil {
		t.Fatal(err)
	}
	if got, _ := m.Partition(0); got != first || got.Len() != 100 {
		t.Errorf("Merge replaced the left sub-tree (%d entries)", got.Len())
	}
	if err := checkMulti(m); err != nil {
		t.Fatal(err)
	}
}

// TestMultiRootedRoutingDuringSplitMerge reads every key while another
// goroutine splits and merges the partition holding them. A read that routes
// under m.mu but searches the sub-tree after releasing it can land in a
// sub-tree a concurrent Split has just cut down and report a present key as
// absent.
func TestMultiRootedRoutingDuringSplitMerge(t *testing.T) {
	m, _ := NewMultiRooted([]schema.Key{0})
	const keys = 200
	for i := int64(0); i < keys; i++ {
		m.Insert(schema.KeyFromInt(i), row(i))
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := m.Split(schema.KeyFromInt(keys / 2)); err != nil {
				t.Error(err)
				return
			}
			if err := m.Merge(0); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	misses, gets := 0, 0
	for round := 0; round < 1500; round++ {
		for i := int64(0); i < keys; i++ {
			if _, ok := m.Get(schema.KeyFromInt(i)); !ok {
				misses++
			}
			gets++
		}
	}
	close(stop)
	wg.Wait()
	if misses != 0 {
		t.Errorf("%d of %d Gets missed a present key during Split/Merge", misses, gets)
	}
}
