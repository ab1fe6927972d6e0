// Package btree implements the in-memory B+-tree used as the physical
// representation of tables and indexes, and the multi-rooted B-tree that PLP
// and ATraPos use to physically partition a table: one sub-tree root per
// logical partition, so that all accesses within a partition are local to the
// worker thread that owns it (Section III-A, "PLP").
//
// Nodes are cache-conscious in the sense of Rao & Ross ("Making B+-trees
// cache conscious in main memory", SIGMOD 2000): every node is a single
// allocation whose keys, leaf values and inner children sit in fixed-capacity
// arrays, so a probe touches one contiguous key array per level and no slice
// headers.
package btree

import (
	"fmt"
	"sync"

	"atrapos/internal/schema"
)

const (
	// degree is the minimum fan-out of internal nodes produced by a median
	// split.
	degree = 32
	// maxKeys is the capacity of every node: a leaf holds up to maxKeys
	// entries, an inner node up to maxKeys separators and fanout children.
	maxKeys = 2*degree - 1
	fanout  = maxKeys + 1
)

// Item is one key/value pair stored in a tree.
type Item struct {
	Key   schema.Key
	Value schema.Row
}

// leaf holds up to maxKeys entries in ascending key order and links to its
// right sibling for range scans.
type leaf struct {
	n      int
	keys   [maxKeys]schema.Key
	values [maxKeys]schema.Row
	next   *leaf
}

// inner routes a key k to child i, the first i with k < keys[i] (child n when
// there is none). Its children are all leaves (bottom) or all inner nodes;
// only the matching array is populated.
type inner struct {
	n      int
	bottom bool
	keys   [maxKeys]schema.Key
	leaves [fanout]*leaf
	inners [fanout]*inner
}

// Tree is a single-rooted B+-tree. It is safe for concurrent use; a tree that
// is privately owned by one partition worker never contends on the mutex.
type Tree struct {
	mu    sync.RWMutex
	root  *inner // nil while the whole tree is the single leaf head
	head  *leaf  // leftmost leaf, the start of the leaf chain
	size  int
	nodes int
}

// New returns an empty tree.
func New() *Tree {
	return &Tree{head: &leaf{}, nodes: 1}
}

// Len returns the number of entries in the tree.
func (t *Tree) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.size
}

// NodeCount returns the number of nodes (leaves and inner nodes) in the tree.
func (t *Tree) NodeCount() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.nodes
}

// leafFor returns the leaf whose key range covers key. The caller holds t.mu.
func (t *Tree) leafFor(key schema.Key) *leaf {
	in := t.root
	if in == nil {
		return t.head
	}
	for {
		i := upperBound(in.keys[:in.n], key)
		if in.bottom {
			return in.leaves[i]
		}
		in = in.inners[i]
	}
}

// Get returns the row stored under key.
func (t *Tree) Get(key schema.Key) (schema.Row, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	l := t.leafFor(key)
	i, ok := findKey(l.keys[:l.n], key)
	if !ok {
		return nil, false
	}
	return l.values[i], true
}

// Insert stores value under key, replacing any previous value. It reports
// whether a new key was inserted (false means an existing key was updated).
func (t *Tree) Insert(key schema.Key, value schema.Row) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.insertLocked(key, value)
}

// insertLocked descends from the root, splitting full inner nodes on the way
// down so that a leaf split always finds room in its parent. Leaves split
// only when a new key must go into a full one.
func (t *Tree) insertLocked(key schema.Key, value schema.Row) bool {
	if t.root == nil {
		l := t.head
		i, ok := findKey(l.keys[:l.n], key)
		if ok {
			l.values[i] = value
			return false
		}
		if l.n < maxKeys {
			l.insertAt(i, key, value)
			t.size++
			return true
		}
		t.root = &inner{bottom: true}
		t.root.leaves[0] = l
		t.nodes++
	} else if t.root.n == maxKeys {
		r := &inner{}
		r.inners[0] = t.root
		t.root = r
		t.nodes++
		t.splitInner(r, 0, key)
	}
	p := t.root
	i := upperBound(p.keys[:p.n], key)
	for !p.bottom {
		if p.inners[i].n == maxKeys {
			t.splitInner(p, i, key)
			if key >= p.keys[i] {
				i++
			}
		}
		p = p.inners[i]
		i = upperBound(p.keys[:p.n], key)
	}
	l := p.leaves[i]
	j, ok := findKey(l.keys[:l.n], key)
	if ok {
		l.values[j] = value
		return false
	}
	if l.n == maxKeys {
		t.splitLeaf(p, i, key)
		if key >= p.keys[i] {
			l = p.leaves[i+1]
			j = lowerBound(l.keys[:l.n], key)
		}
	}
	l.insertAt(j, key, value)
	t.size++
	return true
}

// insertAt inserts an entry at position i of a leaf that has room.
func (l *leaf) insertAt(i int, key schema.Key, value schema.Row) {
	copy(l.keys[i+1:l.n+1], l.keys[i:l.n])
	copy(l.values[i+1:l.n+1], l.values[i:l.n])
	l.keys[i], l.values[i] = key, value
	l.n++
}

// insertChild adds separator sep at position i of an inner node that has
// room, with the new child (a leaf when p is a bottom node) to its right.
func (p *inner) insertChild(i int, sep schema.Key, l *leaf, c *inner) {
	copy(p.keys[i+1:p.n+1], p.keys[i:p.n])
	p.keys[i] = sep
	if p.bottom {
		copy(p.leaves[i+2:p.n+2], p.leaves[i+1:p.n+1])
		p.leaves[i+1] = l
	} else {
		copy(p.inners[i+2:p.n+2], p.inners[i+1:p.n+1])
		p.inners[i+1] = c
	}
	p.n++
}

// splitLeaf splits the full leaf child i of p before key is inserted. A key
// past the leaf's last key (an ascending load) leaves the old leaf full and
// starts an empty right sibling with key as the separator; any other key
// splits at the median.
func (t *Tree) splitLeaf(p *inner, i int, key schema.Key) {
	l := p.leaves[i]
	mid := l.n / 2
	sep := l.keys[mid]
	if key > l.keys[l.n-1] {
		mid, sep = l.n, key
	}
	r := &leaf{n: l.n - mid, next: l.next}
	copy(r.keys[:], l.keys[mid:l.n])
	copy(r.values[:], l.values[mid:l.n])
	clear(l.values[mid:l.n])
	l.n = mid
	l.next = r
	p.insertChild(i, sep, r, nil)
	t.nodes++
}

// splitInner splits the full inner child i of p on the way down to key. A key
// routed to the child's last child splits at the last separator, so the left
// node keeps all but that child; any other key splits at the median.
func (t *Tree) splitInner(p *inner, i int, key schema.Key) {
	c := p.inners[i]
	mid := c.n / 2
	if key >= c.keys[c.n-1] {
		mid = c.n - 1
	}
	r := &inner{n: c.n - mid - 1, bottom: c.bottom}
	copy(r.keys[:], c.keys[mid+1:c.n])
	copy(r.leaves[:], c.leaves[mid+1:c.n+1])
	copy(r.inners[:], c.inners[mid+1:c.n+1])
	clear(c.leaves[mid+1 : c.n+1])
	clear(c.inners[mid+1 : c.n+1])
	sep := c.keys[mid]
	c.n = mid
	p.insertChild(i, sep, nil, r)
	t.nodes++
}

// Delete removes key from the tree and reports whether it was present.
// Deletion uses lazy structural maintenance: leaves may under-fill, which is
// acceptable for the workloads at hand (deletes are rare in TATP/TPC-C) and
// keeps the range-scan chain intact.
func (t *Tree) Delete(key schema.Key) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	l := t.leafFor(key)
	i, ok := findKey(l.keys[:l.n], key)
	if !ok {
		return false
	}
	copy(l.keys[i:l.n-1], l.keys[i+1:l.n])
	copy(l.values[i:l.n-1], l.values[i+1:l.n])
	l.n--
	l.values[l.n] = nil
	t.size--
	return true
}

// Update applies fn to the row stored under key in place and reports whether
// the key was found. fn receives the stored row and returns the new row.
func (t *Tree) Update(key schema.Key, fn func(schema.Row) schema.Row) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	l := t.leafFor(key)
	i, ok := findKey(l.keys[:l.n], key)
	if !ok {
		return false
	}
	l.values[i] = fn(l.values[i])
	return true
}

// ascendLocked calls fn for every entry with key >= from in ascending key
// order until fn returns false. The caller holds t.mu.
func (t *Tree) ascendLocked(from schema.Key, fn func(schema.Key, schema.Row) bool) {
	l := t.leafFor(from)
	for i := lowerBound(l.keys[:l.n], from); l != nil; l, i = l.next, 0 {
		for ; i < l.n; i++ {
			if !fn(l.keys[i], l.values[i]) {
				return
			}
		}
	}
}

// Scan visits entries with from <= key < to in ascending key order, calling fn
// for each. Scanning stops early if fn returns false.
func (t *Tree) Scan(from, to schema.Key, fn func(schema.Key, schema.Row) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	t.ascendLocked(from, func(k schema.Key, v schema.Row) bool {
		return k < to && fn(k, v)
	})
}

// Ascend visits every entry in ascending key order.
func (t *Tree) Ascend(fn func(schema.Key, schema.Row) bool) {
	t.Scan(0, ^schema.Key(0), fn)
}

// Min returns the smallest key in the tree. Leaves emptied by Delete are
// skipped along the leaf chain.
func (t *Tree) Min() (schema.Key, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for l := t.head; l != nil; l = l.next {
		if l.n > 0 {
			return l.keys[0], true
		}
	}
	return 0, false
}

// Max returns the largest key in the tree. Leaves emptied by Delete are
// skipped by backing out of the right-most path.
func (t *Tree) Max() (schema.Key, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.root == nil {
		return t.head.last()
	}
	return t.root.last()
}

func (l *leaf) last() (schema.Key, bool) {
	if l.n == 0 {
		return 0, false
	}
	return l.keys[l.n-1], true
}

func (p *inner) last() (schema.Key, bool) {
	for i := p.n; i >= 0; i-- {
		var k schema.Key
		var ok bool
		if p.bottom {
			k, ok = p.leaves[i].last()
		} else {
			k, ok = p.inners[i].last()
		}
		if ok {
			return k, true
		}
	}
	return 0, false
}

// Items returns all entries in ascending order. Intended for tests, not for
// the transaction critical path.
func (t *Tree) Items() []Item {
	out := make([]Item, 0, t.Len())
	t.Ascend(func(k schema.Key, v schema.Row) bool {
		out = append(out, Item{Key: k, Value: v})
		return true
	})
	return out
}

// BulkLoad builds a tree from entries that must be sorted by ascending key,
// bottom-up in O(n) with packed leaves (see loader).
func BulkLoad(items []Item) (*Tree, error) {
	var b loader
	for i, it := range items {
		if i > 0 && it.Key <= items[i-1].Key {
			return nil, fmt.Errorf("btree: bulk load input not strictly ascending at %d", i)
		}
		b.add(it.Key, it.Value)
	}
	return b.tree(), nil
}

// loader builds a tree bottom-up from entries added in strictly ascending key
// order. Leaves are packed full (the last one takes the remainder) and every
// upper level packs fanout children per node, so loading n entries allocates
// about n/maxKeys nodes and does no searching or splitting.
type loader struct {
	leaves []*leaf
	size   int
}

func (b *loader) add(key schema.Key, value schema.Row) {
	n := len(b.leaves)
	if n == 0 || b.leaves[n-1].n == maxKeys {
		l := &leaf{}
		if n > 0 {
			b.leaves[n-1].next = l
		}
		b.leaves = append(b.leaves, l)
		n++
	}
	l := b.leaves[n-1]
	l.keys[l.n], l.values[l.n] = key, value
	l.n++
	b.size++
}

// addAll adds t's entries with from <= key < to, or every entry from from on
// when open is set, and returns how many it added. The caller holds t.mu.
func (b *loader) addAll(t *Tree, from, to schema.Key, open bool) int {
	before := b.size
	t.ascendLocked(from, func(k schema.Key, v schema.Row) bool {
		if !open && k >= to {
			return false
		}
		b.add(k, v)
		return true
	})
	return b.size - before
}

// tree returns a new tree holding the loaded entries.
func (b *loader) tree() *Tree {
	t := &Tree{}
	b.installLocked(t)
	return t
}

// installLocked replaces t's contents with the loaded entries. The caller
// holds t.mu for writing.
func (b *loader) installLocked(t *Tree) {
	t.size, t.root, t.nodes = b.size, nil, len(b.leaves)
	if len(b.leaves) == 0 {
		t.head, t.nodes = &leaf{}, 1
		return
	}
	t.head = b.leaves[0]
	// lows[i] is the smallest key under child i of the level being grouped.
	// Parent j's low is its first child's, written to lows[j] once the
	// separators of children at j and beyond have been read.
	lows := make([]schema.Key, len(b.leaves))
	for i, l := range b.leaves {
		lows[i] = l.keys[0]
	}
	var level []*inner
	for count, bottom := len(b.leaves), true; count > 1; count, bottom = len(level), false {
		parents := make([]*inner, 0, (count+fanout-1)/fanout)
		for lo := 0; lo < count; lo += fanout {
			hi := min(lo+fanout, count)
			p := &inner{n: hi - lo - 1, bottom: bottom}
			copy(p.keys[:], lows[lo+1:hi])
			if bottom {
				copy(p.leaves[:], b.leaves[lo:hi])
			} else {
				copy(p.inners[:], level[lo:hi])
			}
			lows[len(parents)] = lows[lo]
			parents = append(parents, p)
		}
		level = parents
		t.nodes += len(level)
	}
	if level != nil {
		t.root = level[0]
	}
}

// --- helpers ---

// findKey returns the index of key in keys and whether it is present.
func findKey(keys []schema.Key, key schema.Key) (int, bool) {
	i := lowerBound(keys, key)
	return i, i < len(keys) && keys[i] == key
}

// lowerBound returns the first index whose key is >= key.
func lowerBound(keys []schema.Key, key schema.Key) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if keys[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// upperBound returns the first index whose key is > key. In an inner node it
// is the child slot to follow for key.
func upperBound(keys []schema.Key, key schema.Key) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if keys[mid] <= key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
