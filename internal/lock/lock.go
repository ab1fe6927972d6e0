// Package lock implements the locking substrate of the storage manager: a
// hierarchical (table/row) lock table with intention modes, a centralized
// lock manager whose buckets live on shared cache lines (the design that
// collapses on multisockets), partition-local lock tables as used by PLP and
// ATraPos, and speculative lock inheritance for hot table-level locks.
package lock

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"atrapos/internal/schema"
)

// TxnID identifies a transaction for lock ownership purposes.
type TxnID uint64

// Mode is a lock mode.
type Mode int

const (
	// IS is intention-shared, taken on a table before row S locks.
	IS Mode = iota
	// IX is intention-exclusive, taken on a table before row X locks.
	IX
	// S is a shared lock.
	S
	// X is an exclusive lock.
	X
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case IS:
		return "IS"
	case IX:
		return "IX"
	case S:
		return "S"
	case X:
		return "X"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Compatible reports whether two lock modes held by different transactions
// can coexist on the same resource. The matrix is the classic hierarchical
// locking compatibility matrix.
func Compatible(a, b Mode) bool {
	switch a {
	case IS:
		return b != X
	case IX:
		return b == IS || b == IX
	case S:
		return b == IS || b == S
	case X:
		return false
	default:
		return false
	}
}

// stronger reports whether mode a subsumes mode b (holding a satisfies a
// request for b by the same transaction).
func stronger(a, b Mode) bool {
	rank := func(m Mode) int {
		switch m {
		case IS:
			return 0
		case IX, S:
			return 1
		case X:
			return 2
		default:
			return -1
		}
	}
	if a == b {
		return true
	}
	if a == IX && b == S || a == S && b == IX {
		return false
	}
	return rank(a) >= rank(b)
}

// Kind distinguishes table-level from row-level resources.
type Kind int

const (
	// TableKind is a table-granularity resource.
	TableKind Kind = iota
	// RowKind is a row-granularity resource.
	RowKind
)

// ResourceID names a lockable resource.
type ResourceID struct {
	Table string
	Key   schema.Key
	Kind  Kind
}

// TableResource returns the table-granularity resource for a table.
func TableResource(table string) ResourceID {
	return ResourceID{Table: table, Kind: TableKind}
}

// RowResource returns the row-granularity resource for a key of a table.
func RowResource(table string, key schema.Key) ResourceID {
	return ResourceID{Table: table, Key: key, Kind: RowKind}
}

// ErrConflict is returned when a lock request cannot be granted because an
// incompatible lock is held by another transaction. The storage manager uses
// a no-wait policy: the requester aborts and retries, which avoids deadlocks
// without a waits-for graph.
var ErrConflict = errors.New("lock: conflicting lock held")

type entry struct {
	holders map[TxnID]Mode
	// nextFree links entries on the bucket's free list while they are not in
	// use. Pooling freed entries (and their holder maps) keeps the acquire
	// hot path allocation-free in steady state: a transaction's locks are
	// created and fully released every few microseconds, and without the pool
	// every acquire of a fresh resource would allocate an entry and a map.
	nextFree *entry
}

// Table is one lock table: a bucket-striped hash map from resources to lock
// entries. A Table on its own is NUMA-oblivious; the managers in manager.go
// decide how many tables exist and which threads may touch them.
//
// Besides the buckets, a Table keeps per transaction the list of resources
// the transaction holds, sharded by TxnID. ReleaseAll walks that list and
// visits only the buckets of the transaction's own locks, so commit and abort
// cost O(locks held) rather than O(buckets). ReleaseAll takes bucket mutexes
// under its shard mutex; nothing takes a shard mutex under a bucket mutex.
// Calls for different transactions may run concurrently; the calls of one
// transaction are sequential, as the engines issue them.
type Table struct {
	buckets []bucket
	shards  []heldShard
}

type bucket struct {
	mu      sync.Mutex
	entries map[ResourceID]*entry
	free    *entry
}

// heldList is the set of resources one transaction holds in a Table; each
// resource appears once, appended when the transaction becomes its holder.
type heldList struct {
	txn TxnID
	res []ResourceID
}

// heldShard holds the lists of the shard's transactions that currently hold
// locks. Only the workers' in-flight transactions are active at a time, so
// lookups scan the few active lists. The slice's spare capacity keeps the
// storage of released lists for reuse, which keeps the acquire/release cycle
// allocation-free in steady state the way the entry pool does.
type heldShard struct {
	mu    sync.Mutex
	lists []heldList
}

// heldShards is the number of held-list shards of every table. The count is
// not tuned: with two parallel workers on a 2-vCPU host,
// BenchmarkTableAcquireReleaseAllParallel showed no difference between 1, 4
// and 64 shards beyond run-to-run noise, and more workers are unmeasured.
const heldShards = 4

// heldListCap is the capacity of the list each shard starts with, enough for
// the locks a TATP transaction takes; longer lists grow once and stay pooled.
const heldListCap = 8

func (t *Table) shardFor(txn TxnID) *heldShard {
	return &t.shards[uint64(txn)%uint64(len(t.shards))]
}

// find returns the index of txn's list, or -1. Caller holds sh.mu.
func (sh *heldShard) find(txn TxnID) int {
	for i := range sh.lists {
		if sh.lists[i].txn == txn {
			return i
		}
	}
	return -1
}

// add appends res to txn's held list, starting the list if needed.
func (sh *heldShard) add(txn TxnID, res ResourceID) {
	sh.mu.Lock()
	i := sh.find(txn)
	if i < 0 {
		i = len(sh.lists)
		if i < cap(sh.lists) {
			sh.lists = sh.lists[:i+1]
		} else {
			sh.lists = append(sh.lists, heldList{})
		}
		sh.lists[i].txn = txn
	}
	sh.lists[i].res = append(sh.lists[i].res, res)
	sh.mu.Unlock()
}

// remove drops res from txn's held list, and the list once it is empty.
func (sh *heldShard) remove(txn TxnID, res ResourceID) {
	sh.mu.Lock()
	if i := sh.find(txn); i >= 0 {
		l := &sh.lists[i]
		if j := slices.Index(l.res, res); j >= 0 {
			last := len(l.res) - 1
			l.res[j] = l.res[last]
			l.res[last] = ResourceID{}
			l.res = l.res[:last]
		}
		if len(l.res) == 0 {
			sh.drop(i)
		}
	}
	sh.mu.Unlock()
}

// drop retires list i, parking its cleared storage past the end of the
// active lists. Caller holds sh.mu.
func (sh *heldShard) drop(i int) {
	last := len(sh.lists) - 1
	res := sh.lists[i].res
	clear(res)
	sh.lists[i] = sh.lists[last]
	sh.lists[last] = heldList{res: res[:0]}
	sh.lists = sh.lists[:last]
}

// getEntry pops a pooled entry or allocates one. Caller holds b.mu.
func (b *bucket) getEntry() *entry {
	if e := b.free; e != nil {
		b.free = e.nextFree
		e.nextFree = nil
		return e
	}
	return &entry{holders: make(map[TxnID]Mode, 2)}
}

// putEntry returns an empty entry to the pool. Caller holds b.mu.
func (b *bucket) putEntry(e *entry) {
	e.nextFree = b.free
	b.free = e
}

// grant grants mode on res to txn, or returns ErrConflict. It reports whether
// txn became a new holder of res.
func (b *bucket) grant(txn TxnID, res ResourceID, mode Mode) (bool, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	e := b.entries[res]
	if e == nil {
		e = b.getEntry()
		b.entries[res] = e
	}
	held, ok := e.holders[txn]
	if ok && stronger(held, mode) {
		return false, nil
	}
	for other, otherMode := range e.holders {
		if other == txn {
			continue
		}
		if !Compatible(mode, otherMode) {
			return false, ErrConflict
		}
	}
	e.holders[txn] = mode
	return !ok, nil
}

// release drops txn's lock on res and reports whether txn held it.
func (b *bucket) release(txn TxnID, res ResourceID) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	e := b.entries[res]
	if e == nil {
		return false
	}
	if _, ok := e.holders[txn]; !ok {
		return false
	}
	delete(e.holders, txn)
	if len(e.holders) == 0 {
		delete(b.entries, res)
		b.putEntry(e)
	}
	return true
}

// NewTable creates a lock table with the given number of buckets.
func NewTable(nBuckets int) *Table {
	if nBuckets < 1 {
		nBuckets = 1
	}
	t := &Table{
		buckets: make([]bucket, nBuckets),
		shards:  make([]heldShard, heldShards),
	}
	for i := range t.buckets {
		t.buckets[i].entries = make(map[ResourceID]*entry)
	}
	// Every shard starts with one parked list, carved out of two shared
	// arrays, so a fresh table's first transactions allocate nothing.
	lists := make([]heldList, heldShards)
	res := make([]ResourceID, heldShards*heldListCap)
	for i := range t.shards {
		lists[i].res = res[i*heldListCap : i*heldListCap : (i+1)*heldListCap]
		t.shards[i].lists = lists[i : i : i+1]
	}
	return t
}

// BucketFor returns the bucket index for a resource; exported so managers can
// attribute cache-line costs to the right bucket.
func (t *Table) BucketFor(res ResourceID) int {
	h := uint64(14695981039346656037)
	for _, c := range res.Table {
		h ^= uint64(c)
		h *= 1099511628211
	}
	h ^= uint64(res.Key)
	h *= 1099511628211
	h ^= uint64(res.Kind)
	return int(h % uint64(len(t.buckets)))
}

// Acquire grants mode on res to txn, or returns ErrConflict. Re-acquisition
// by the same transaction succeeds if the held mode already subsumes the
// request; otherwise the held mode is upgraded when no other holder conflicts.
func (t *Table) Acquire(txn TxnID, res ResourceID, mode Mode) error {
	added, err := t.buckets[t.BucketFor(res)].grant(txn, res, mode)
	if added {
		t.shardFor(txn).add(txn, res)
	}
	return err
}

// Release drops txn's lock on res.
func (t *Table) Release(txn TxnID, res ResourceID) {
	if t.buckets[t.BucketFor(res)].release(txn, res) {
		t.shardFor(txn).remove(txn, res)
	}
}

// ReleaseAll drops every lock held by txn and returns how many were released.
// It visits only the buckets of the resources on txn's held list.
func (t *Table) ReleaseAll(txn TxnID) int {
	sh := t.shardFor(txn)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	i := sh.find(txn)
	if i < 0 {
		return 0
	}
	released := 0
	for _, res := range sh.lists[i].res {
		if t.buckets[t.BucketFor(res)].release(txn, res) {
			released++
		}
	}
	sh.drop(i)
	return released
}

// Held returns the mode txn holds on res, if any.
func (t *Table) Held(txn TxnID, res ResourceID) (Mode, bool) {
	b := &t.buckets[t.BucketFor(res)]
	b.mu.Lock()
	defer b.mu.Unlock()
	if e := b.entries[res]; e != nil {
		m, ok := e.holders[txn]
		return m, ok
	}
	return 0, false
}

// Holders returns how many transactions hold a lock on res.
func (t *Table) Holders(res ResourceID) int {
	b := &t.buckets[t.BucketFor(res)]
	b.mu.Lock()
	defer b.mu.Unlock()
	if e := b.entries[res]; e != nil {
		return len(e.holders)
	}
	return 0
}

// Len returns the number of locked resources (for observability and tests).
func (t *Table) Len() int {
	total := 0
	for i := range t.buckets {
		b := &t.buckets[i]
		b.mu.Lock()
		total += len(b.entries)
		b.mu.Unlock()
	}
	return total
}
