package main

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"time"

	"atrapos/internal/backend"
	"atrapos/internal/btree"
	"atrapos/internal/core"
	"atrapos/internal/device"
	"atrapos/internal/engine"
	"atrapos/internal/lock"
	"atrapos/internal/numa"
	"atrapos/internal/partition"
	"atrapos/internal/schema"
	"atrapos/internal/topology"
	"atrapos/internal/txn"
	"atrapos/internal/vclock"
	"atrapos/internal/wal"
	"atrapos/internal/workload"
)

// replayTxns is how many of the workload's transactions every replay feeds
// through the layers; replaySplits and replaySeals size the two expensive
// replays.
const (
	replayTxns   = 3000
	replaySplits = 16
	replaySeals  = 8
	replayShips  = 2000
)

// wallSpan is one replayed call: a wall-clock interval around a call into a
// layer's public function, in nanoseconds since the replay origin.
type wallSpan struct {
	op         string
	start, dur int64
}

// recorder keeps every replay span in memory.
type recorder struct {
	origin time.Time
	spans  []wallSpan
}

func (r *recorder) since(op string, t0 time.Time) {
	r.spans = append(r.spans, wallSpan{op: op, start: t0.Sub(r.origin).Nanoseconds(), dur: time.Since(t0).Nanoseconds()})
}

// durations groups the recorded span durations by operation.
func (r *recorder) durations() map[string][]float64 {
	out := make(map[string][]float64)
	for _, sp := range r.spans {
		out[sp.op] = append(out[sp.op], float64(sp.dur))
	}
	return out
}

// splitMix is the engine's per-transaction generator source (splitmix64,
// reseeded from seed+n for transaction n), reproduced so the replays see the
// same transactions the engine generates for the same seed.
type splitMix struct{ state uint64 }

func (s *splitMix) seed(v int64) {
	z := uint64(v) + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	s.state = z ^ (z >> 31)
}

func (s *splitMix) Seed(v int64) { s.seed(v) }

func (s *splitMix) Uint64() uint64 {
	s.state += 0x9E3779B97F4A7C15
	z := s.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (s *splitMix) Int63() int64 { return int64(s.Uint64() >> 1) }

// genTxn is one generated transaction with the core that coordinates it and
// its home site.
type genTxn struct {
	t     workload.Transaction
	coord topology.CoreID
	home  int
}

// replayEnv is what the replays need from the workload's engine: its
// dataset, placement, machine and configuration, captured before the engine
// is dropped.
type replayEnv struct {
	central   bool   // centralized design: one central lock manager
	layout    string // log-device layout; empty means none
	wl        *workload.Workload
	top       *topology.Topology
	domain    *numa.Domain
	placement *partition.Placement
	keys      map[string][]schema.Key
	logCfg    wal.Config
	vnsPerTxn vclock.Nanos
	// siteOfCore and siteCores map cores to shared-nothing sites and sites to
	// their home cores; both are nil for designs without sites, which ship
	// nothing and run no 2PC.
	siteOfCore []int
	siteCores  []topology.Core
	// shipsPerTxn is what replayBackend counted: the ships the executed loop
	// would make per transaction under the workload's routing.
	shipsPerTxn float64
}

func newReplayEnv(cfg engine.Config, e *engine.Engine, vnsPerTxn vclock.Nanos) *replayEnv {
	env := &replayEnv{
		central:   cfg.Design == engine.Centralized,
		layout:    cfg.DeviceLayout,
		wl:        cfg.Workload,
		top:       e.Topology(),
		domain:    e.Domain(),
		placement: e.Placement(),
		keys:      e.TableKeySets(),
		logCfg:    wal.DefaultConfig(),
		vnsPerTxn: vnsPerTxn,
	}
	if cfg.LogConfig != nil {
		env.logCfg = *cfg.LogConfig
	}
	if cfg.Design.IsSharedNothing() {
		env.siteOfCore = make([]int, env.top.NumCores())
		for i, isl := range env.top.AliveIslandsAt(cfg.IslandLevel) {
			env.siteCores = append(env.siteCores, isl.Cores[0])
			for _, c := range isl.Cores {
				env.siteOfCore[c.ID] = i
			}
		}
	}
	return env
}

// site returns the shared-nothing site owning (table, key).
func (env *replayEnv) site(table string, key schema.Key) int {
	tp := env.placement.Tables[table]
	return env.siteOfCore[tp.CoreFor(key)]
}

// generate produces the workload's first n transactions exactly as the
// engine's one-worker loop does (coordinator round-robin, per-index seeds),
// timing every Generate call.
func (env *replayEnv) generate(seed int64, n int, rec *recorder) []genTxn {
	src := &splitMix{}
	ctx := workload.GenContext{Rng: rand.New(src), NumSites: 1}
	if env.siteCores != nil {
		ctx.NumSites = len(env.siteCores)
	}
	alive := env.top.AliveCores()
	out := make([]genTxn, 0, n)
	for i := 1; i <= n; i++ {
		coord := alive[i%len(alive)].ID
		home := 0
		if env.siteCores != nil {
			home = env.siteOfCore[coord]
		}
		src.seed(seed + int64(i))
		ctx.At = vclock.Nanos(i) * env.vnsPerTxn
		ctx.HomeSite = home
		t0 := time.Now()
		t := env.wl.Generate(&ctx)
		rec.since("workload.generate", t0)
		out = append(out, genTxn{t: cloneTxn(t), coord: coord, home: home})
	}
	return out
}

func cloneTxn(t *workload.Transaction) workload.Transaction {
	c := workload.Transaction{Class: t.Class, ReadOnly: t.ReadOnly, MultiSite: t.MultiSite}
	c.Actions = make([]workload.Action, len(t.Actions))
	for i, a := range t.Actions {
		a.Row = append(schema.Row(nil), a.Row...)
		c.Actions[i] = a
	}
	for _, sp := range t.SyncPoints {
		c.SyncPoints = append(c.SyncPoints, workload.SyncPoint{Actions: append([]int(nil), sp.Actions...), Bytes: sp.Bytes})
	}
	return c
}

// keyTruth answers whether a key is present, independently of the structure
// under test: the loaded key set plus the inserts and deletes replayed since.
type keyTruth struct {
	loaded  map[string][]schema.Key
	changed map[string]map[schema.Key]bool
}

func newKeyTruth(loaded map[string][]schema.Key) *keyTruth {
	return &keyTruth{loaded: loaded, changed: make(map[string]map[schema.Key]bool)}
}

func (k *keyTruth) has(table string, key schema.Key) bool {
	if v, ok := k.changed[table][key]; ok {
		return v
	}
	ks := k.loaded[table]
	i := sort.Search(len(ks), func(i int) bool { return ks[i] >= key })
	return i < len(ks) && ks[i] == key
}

func (k *keyTruth) set(table string, key schema.Key, present bool) {
	if k.changed[table] == nil {
		k.changed[table] = make(map[schema.Key]bool)
	}
	k.changed[table][key] = present
}

// replayAll runs every layer replay on the generated transactions.
func (env *replayEnv) replayAll(txns []genTxn, rec *recorder, ck *checks) error {
	steps := []func([]genTxn, *recorder, *checks) error{
		env.replayLocks, env.replayBTree, env.replayWAL, env.replayDevice, env.replay2PC,
		env.replayCore, env.replayPartition, env.replayBackend, env.replayShips,
	}
	for _, step := range steps {
		if err := step(txns, rec, ck); err != nil {
			return err
		}
	}
	return nil
}

func lockModeFor(op workload.OpType) (row, table lock.Mode) {
	if op.IsWrite() {
		return lock.X, lock.IX
	}
	return lock.S, lock.IS
}

// replayLocks acquires every transaction's locks the way the engine does and
// releases them with ReleaseAll: a 256-bucket central manager with
// hierarchical table locks for the centralized design, one partition-local
// manager per (table, partition) otherwise. ReleaseAll must return the number
// of distinct locks the transaction acquired.
func (env *replayEnv) replayLocks(txns []genTxn, rec *recorder, ck *checks) error {
	cm := lock.NewCentralManager(env.domain, 256, true)
	locals := make(map[string][]*lock.LocalManager)
	localFor := func(table string, idx int) *lock.LocalManager {
		ms := locals[table]
		if ms == nil {
			ms = make([]*lock.LocalManager, len(env.placement.Tables[table].Bounds))
			locals[table] = ms
		}
		if ms[idx] == nil {
			ms[idx] = lock.NewLocalManagerAt(env.domain, env.placement.Tables[table].Cores[idx])
		}
		return ms[idx]
	}
	type held struct {
		table string
		key   schema.Key
	}
	mismatches, failures, releases := 0, 0, 0
	for i := range txns {
		g := &txns[i]
		id := lock.TxnID(i + 1)
		s := env.top.SocketOf(g.coord)
		var seen []held
		distinct := func(h held) bool {
			for _, x := range seen {
				if x == h {
					return false
				}
			}
			seen = append(seen, h)
			return true
		}
		if env.central {
			// Table intention locks first, strongest mode per table.
			var tables []string
			var modes []lock.Mode
			for _, a := range g.t.Actions {
				_, tm := lockModeFor(a.Op)
				found := false
				for j, t := range tables {
					if t == a.Table {
						found = true
						if tm == lock.IX {
							modes[j] = lock.IX
						}
					}
				}
				if !found {
					tables = append(tables, a.Table)
					modes = append(modes, tm)
				}
			}
			expected := 0
			for j, t := range tables {
				hits := cm.SLIHits()
				t0 := time.Now()
				_, err := cm.Acquire(s, id, lock.TableResource(t), modes[j])
				rec.since("lock.acquire", t0)
				if err != nil {
					failures++
				}
				if cm.SLIHits() == hits {
					expected++
				}
			}
			for _, a := range g.t.Actions {
				mode, _ := lockModeFor(a.Op)
				t0 := time.Now()
				_, err := cm.Acquire(s, id, lock.RowResource(a.Table, a.Key), mode)
				rec.since("lock.acquire", t0)
				if err != nil {
					failures++
				}
				if distinct(held{a.Table, a.Key}) {
					expected++
				}
			}
			t0 := time.Now()
			_, n := cm.ReleaseAll(s, id)
			rec.since("lock.release_all", t0)
			releases++
			if n != expected {
				mismatches++
			}
			for j, t := range tables {
				cm.RetainForSLI(s, lock.TableResource(t), modes[j])
			}
			continue
		}
		type part struct {
			lm       *lock.LocalManager
			sock     topology.SocketID
			expected int
		}
		var parts []part
		for _, a := range g.t.Actions {
			tp := env.placement.Tables[a.Table]
			idx := tp.PartitionFor(a.Key)
			lm := localFor(a.Table, idx)
			sock := env.top.SocketOf(tp.Cores[idx])
			mode, _ := lockModeFor(a.Op)
			t0 := time.Now()
			_, err := lm.Acquire(sock, id, lock.RowResource(a.Table, a.Key), mode)
			rec.since("lock.acquire", t0)
			if err != nil {
				failures++
			}
			pi := slices.IndexFunc(parts, func(p part) bool { return p.lm == lm })
			if pi < 0 {
				parts = append(parts, part{lm: lm, sock: sock})
				pi = len(parts) - 1
			}
			if distinct(held{a.Table, a.Key}) {
				parts[pi].expected++
			}
		}
		for _, p := range parts {
			t0 := time.Now()
			_, n := p.lm.ReleaseAll(p.sock, id)
			rec.since("lock.release_all", t0)
			releases++
			if n != p.expected {
				mismatches++
			}
		}
	}
	ck.expect("replay_lock_acquires_succeed", failures == 0, "%d failed acquisitions", failures)
	ck.expect("replay_release_all_counts_locks", mismatches == 0 && releases > 0,
		"%d of %d ReleaseAll calls returned a wrong count", mismatches, releases)
	return nil
}

// sharedRow is the value stored under every replayed B-tree key: the
// replays time index work, not payload copies.
var sharedRow = schema.Row{int64(0)}

func keepRow(r schema.Row) schema.Row { return r }

// replayBTree loads one multi-rooted B-tree per table with the workload's
// key set, partitioned like the engine's tables, then replays every read as
// Get and every update as Update; inserts and deletes are applied untimed.
// Each Get and Update must find exactly the keys that are present. Splits
// are replayed on the first table at keys the transactions touch.
func (env *replayEnv) replayBTree(txns []genTxn, rec *recorder, ck *checks) error {
	trees := make(map[string]*btree.MultiRooted)
	for table, keys := range env.keys {
		mr, err := btree.NewMultiRooted(env.placement.Tables[table].Bounds)
		if err != nil {
			return fmt.Errorf("btree replay: %w", err)
		}
		for _, k := range keys {
			mr.Insert(k, sharedRow)
		}
		trees[table] = mr
	}
	truth := newKeyTruth(env.keys)
	wrong, probes := 0, 0
	for i := range txns {
		for _, a := range txns[i].t.Actions {
			mr := trees[a.Table]
			switch a.Op {
			case workload.Read:
				t0 := time.Now()
				_, ok := mr.Get(a.Key)
				rec.since("btree.get", t0)
				probes++
				if ok != truth.has(a.Table, a.Key) {
					wrong++
				}
			case workload.Update:
				t0 := time.Now()
				ok := mr.Update(a.Key, keepRow)
				rec.since("btree.update", t0)
				probes++
				if ok != truth.has(a.Table, a.Key) {
					wrong++
				}
			case workload.Insert:
				mr.Insert(a.Key, sharedRow)
				truth.set(a.Table, a.Key, true)
			case workload.Delete:
				mr.Delete(a.Key)
				truth.set(a.Table, a.Key, false)
			}
		}
	}
	ck.expect("replay_btree_finds_present_keys", wrong == 0 && probes > 0,
		"%d of %d Get/Update calls disagreed with the key set", wrong, probes)

	table := env.wl.Tables[0].Schema.Name
	mr := trees[table]
	size := mr.Len()
	splits, bad := 0, 0
	for i := 0; i < len(txns) && splits < replaySplits; i++ {
		for _, a := range txns[i].t.Actions {
			if a.Table != table || splits >= replaySplits || slices.Contains(mr.Bounds(), a.Key) {
				continue
			}
			t0 := time.Now()
			idx, err := mr.Split(a.Key)
			rec.since("btree.split", t0)
			splits++
			if err != nil || mr.Merge(idx-1) != nil || mr.Len() != size {
				bad++
			}
		}
	}
	ck.expect("replay_btree_split_keeps_rows", bad == 0 && splits > 0, "%d of %d splits failed", bad, splits)
	return nil
}

func recordType(op workload.OpType) wal.RecordType {
	switch op {
	case workload.Insert:
		return wal.Insert
	case workload.Delete:
		return wal.Delete
	default:
		return wal.Update
	}
}

// replayDevices builds the workload's device layout, or the chiplet
// profile's default layout for workloads without one.
func (env *replayEnv) replayDevices() (*device.Map, error) {
	layout := env.layout
	if layout == "" {
		layout = "nvme-per-die-pair"
	}
	return device.BuildLayout(layout, env.top)
}

// replayWAL appends every transaction's write records and its commit record
// to one log with the workload's log configuration (bound to the device its
// first die flushes through, when the workload has a layout), then flushes
// it, paced at the untraced run's virtual time per transaction. The log must
// count exactly the appends made.
func (env *replayEnv) replayWAL(txns []genTxn, rec *recorder, ck *checks) error {
	cfg := env.logCfg
	if env.layout != "" {
		devs, err := env.replayDevices()
		if err != nil {
			return err
		}
		cfg.Device = devs.DeviceFor(env.top.FirstDieOn(0))
	}
	l := wal.NewCentralLog(env.domain, 0, cfg)
	appends := int64(0)
	for i := range txns {
		g := &txns[i]
		s := env.top.SocketOf(g.coord)
		now := vclock.Nanos(i) * env.vnsPerTxn
		wrote := false
		for _, a := range g.t.Actions {
			if !a.Op.IsWrite() {
				continue
			}
			wrote = true
			t0 := time.Now()
			l.Append(s, wal.Record{Txn: uint64(i + 1), Type: recordType(a.Op), Table: a.Table, Key: a.Key, Size: 96})
			rec.since("wal.append", t0)
			appends++
		}
		if !wrote {
			continue
		}
		t0 := time.Now()
		l.Append(s, wal.Record{Txn: uint64(i + 1), Type: wal.Commit, Size: 48})
		rec.since("wal.append", t0)
		appends++
		t0 = time.Now()
		l.Flush(s, l.Tail(), now)
		rec.since("wal.flush", t0)
	}
	got := l.Stats().Appends
	ck.expect("replay_wal_counts_appends", got == appends, "log counted %d of %d appends", got, appends)
	return nil
}

// replayDevice flushes each writing transaction's log bytes through one
// device of the layout, paced at the untraced run's virtual time per
// transaction. The device must count every flush.
func (env *replayEnv) replayDevice(txns []genTxn, rec *recorder, ck *checks) error {
	devs, err := env.replayDevices()
	if err != nil {
		return err
	}
	d := devs.DeviceFor(env.top.FirstDieOn(0))
	flushes := int64(0)
	for i := range txns {
		bytes := 0
		for _, a := range txns[i].t.Actions {
			if a.Op.IsWrite() {
				bytes += 96
			}
		}
		if bytes == 0 {
			continue
		}
		t0 := time.Now()
		d.Flush(vclock.Nanos(i)*env.vnsPerTxn, bytes+48)
		rec.since("device.flush", t0)
		flushes++
	}
	got := d.Stats().Flushes
	ck.expect("replay_device_counts_flushes", got == flushes, "device counted %d of %d flushes", got, flushes)
	return nil
}

// replay2PC runs two-phase commit over the workload's island logs for every
// writing transaction that spans more than one site. Designs without
// shared-nothing sites run no 2PC and replay nothing.
func (env *replayEnv) replay2PC(txns []genTxn, rec *recorder, ck *checks) error {
	if env.siteCores == nil {
		return nil
	}
	homes := make([]topology.SocketID, len(env.siteCores))
	homeCores := make([]topology.CoreID, len(env.siteCores))
	for i, c := range env.siteCores {
		homes[i] = c.Socket
		homeCores[i] = c.ID
	}
	logs := wal.NewPartitionedLogAt(env.domain, homes, env.logCfg)
	coord := txn.NewCoordinatorAt(env.domain, logs, homeCores)
	rounds, bad := 0, 0
	var parts []int
	for i := range txns {
		g := &txns[i]
		parts = parts[:0]
		wrote, remote := false, false
		for _, a := range g.t.Actions {
			site := env.site(a.Table, a.Key)
			wrote = wrote || a.Op.IsWrite()
			remote = remote || site != g.home
			parts = append(parts, site)
		}
		if !wrote || !remote {
			continue
		}
		t := &txn.Txn{ID: txn.ID(i + 1), Core: g.coord, Socket: env.top.SocketOf(g.coord)}
		t0 := time.Now()
		out, err := coord.Run(t, g.coord, g.home, parts, vclock.Nanos(i)*env.vnsPerTxn, false)
		rec.since("txn.twopc", t0)
		rounds++
		if err != nil || !out.Committed || out.Messages < 4 {
			bad++
		}
	}
	ck.expect("replay_2pc_commits", bad == 0 && rounds > 0, "%d of %d rounds failed", bad, rounds)
	return nil
}

// replayCore records every action into an ATraPos monitor over the
// workload's placement, seals an epoch every len(txns)/replaySeals
// transactions and plans a placement from each sealed epoch.
func (env *replayEnv) replayCore(txns []genTxn, rec *recorder, ck *checks) error {
	maxKeys := make(map[string]schema.Key)
	for _, spec := range env.wl.TableSpecs() {
		maxKeys[spec.Name] = schema.KeyFromInt(spec.MaxKey)
	}
	mon := core.NewMonitor(0)
	mon.RegisterPlacement(env.placement, maxKeys)
	planner := core.NewPlanner(core.CostModel{Domain: env.domain}, mon.SubPartitions())
	planner.PreserveIdle = true
	window := len(txns) / replaySeals
	plans, bad := 0, 0
	var refs []core.PartitionRef
	for i := range txns {
		g := &txns[i]
		writes := 0
		for _, a := range g.t.Actions {
			t0 := time.Now()
			mon.RecordAction(a.Table, a.Key, 500)
			rec.since("core.record_action", t0)
			if a.Op.IsWrite() {
				writes++
			}
		}
		for _, sp := range g.t.SyncPoints {
			refs = refs[:0]
			for _, ai := range sp.Actions {
				a := g.t.Actions[ai]
				refs = append(refs, core.PartitionRef{Table: a.Table, Partition: env.placement.Tables[a.Table].PartitionFor(a.Key)})
			}
			mon.RecordSync(refs, sp.Bytes)
		}
		mon.RecordTxn(len(g.t.Actions), writes, 0, g.t.MultiSite, 0)
		if (i+1)%window != 0 {
			continue
		}
		mon.AdvanceWindow(vclock.Nanos(window) * env.vnsPerTxn)
		t0 := time.Now()
		stats := mon.Seal()
		rec.since("core.seal", t0)
		t0 = time.Now()
		p := planner.Plan(env.placement, stats, maxKeys)
		rec.since("core.plan", t0)
		plans++
		if p == nil || p.Validate() != nil {
			bad++
		}
	}
	ck.expect("replay_planner_plans_valid", bad == 0 && plans > 0, "%d of %d plans invalid", bad, plans)
	return nil
}

// replayPartition routes every action through its table placement.
func (env *replayEnv) replayPartition(txns []genTxn, rec *recorder, ck *checks) error {
	bad, calls := 0, 0
	for i := range txns {
		for _, a := range txns[i].t.Actions {
			tp := env.placement.Tables[a.Table]
			t0 := time.Now()
			c := tp.CoreFor(a.Key)
			rec.since("partition.core_for", t0)
			calls++
			if c != tp.Cores[tp.PartitionFor(a.Key)] {
				bad++
			}
		}
	}
	ck.expect("replay_core_for_routes", bad == 0 && calls > 0, "%d of %d routed to a foreign core", bad, calls)
	return nil
}

// backendIslands is the island count of the hash-backend replay: the
// workload's own sites, or socket-level islands for designs without sites.
func (env *replayEnv) backendIslands() int {
	if env.siteCores != nil {
		return len(env.siteCores)
	}
	return env.top.Sockets()
}

// replayBackend loads an island-sharded hash backend with the workload's key
// set and replays every action on its owning shard the way the executed
// loop does (an update is a Get and a Put), committing each writing
// transaction on its home island. Every Get must find exactly the keys that
// are present. It also counts the ships the executed loop would make per
// transaction under the workload's routing.
func (env *replayEnv) replayBackend(txns []genTxn, rec *recorder, ck *checks) error {
	islands := env.backendIslands()
	names := make([]string, len(env.wl.Tables))
	tableIdx := make(map[string]int)
	for i, td := range env.wl.Tables {
		names[i] = td.Schema.Name
		tableIdx[names[i]] = i
	}
	homes := make([]topology.SocketID, islands)
	for i := range homes {
		homes[i] = topology.SocketID(i % env.top.Sockets())
		if env.siteCores != nil {
			homes[i] = env.siteCores[i].Socket
		}
	}
	hb, err := backend.NewHash(backend.HashConfig{Islands: islands, Tables: names, Homes: homes,
		Log: env.logCfg, Domain: env.domain})
	if err != nil {
		return fmt.Errorf("backend replay: %w", err)
	}
	shardOf := func(table string, key schema.Key) int {
		if env.siteCores != nil {
			return env.site(table, key)
		}
		return hb.ShardOf(tableIdx[table], key)
	}
	for table, keys := range env.keys {
		for _, k := range keys {
			hb.Load(shardOf(table, k), tableIdx[table], k, uint64(k))
		}
	}
	hb.FinishLoad(0)
	truth := newKeyTruth(env.keys)
	wrong, gets := 0, 0
	ships := 0
	for i := range txns {
		g := &txns[i]
		id := uint64(i + 1)
		wrote := false
		var remote []int
		for _, a := range g.t.Actions {
			ti := tableIdx[a.Table]
			shard := shardOf(a.Table, a.Key)
			if env.siteCores != nil && shard != g.home {
				ships++
				if a.Op.IsWrite() && !slices.Contains(remote, shard) {
					remote = append(remote, shard)
				}
			}
			switch a.Op {
			case workload.Read, workload.Update:
				t0 := time.Now()
				v, ok := hb.Get(shard, ti, a.Key)
				rec.since("backend.get", t0)
				gets++
				if ok != truth.has(a.Table, a.Key) {
					wrong++
				}
				if a.Op == workload.Update {
					t0 = time.Now()
					hb.Put(shard, ti, a.Key, id, v+1)
					rec.since("backend.put", t0)
					truth.set(a.Table, a.Key, true)
					wrote = true
				}
			case workload.Insert:
				t0 := time.Now()
				hb.Put(shard, ti, a.Key, id, uint64(a.Key))
				rec.since("backend.put", t0)
				truth.set(a.Table, a.Key, true)
				wrote = true
			case workload.Delete:
				hb.Delete(shard, ti, a.Key, id)
				truth.set(a.Table, a.Key, false)
				wrote = true
			}
		}
		ships += len(remote)
		if wrote {
			t0 := time.Now()
			hb.Commit(g.home%islands, id, vclock.Nanos(i)*env.vnsPerTxn)
			rec.since("backend.commit", t0)
		}
	}
	env.shipsPerTxn = ratio(float64(ships), float64(len(txns)))
	ck.expect("replay_hash_get_finds_present_keys", wrong == 0 && gets > 0,
		"%d of %d Get calls disagreed with the key set", wrong, gets)
	return nil
}

// replayShips measures the executed backend's ship round trip: executor 0
// writes then reads keys on a shard owned by executor 1, which serves on its
// own pinned goroutine. Every shipped Get must return the value the shipped
// Put wrote.
func (env *replayEnv) replayShips(txns []genTxn, rec *recorder, ck *checks) error {
	table := env.wl.Tables[0].Schema.Name
	var keys []schema.Key
	for i := 0; i < len(txns) && len(keys) < replayShips; i++ {
		for _, a := range txns[i].t.Actions {
			if a.Table == table && len(keys) < replayShips {
				keys = append(keys, a.Key)
			}
		}
	}
	hb, err := backend.NewHash(backend.HashConfig{Islands: 2, Tables: []string{table},
		Homes: []topology.SocketID{0, 1}, Log: env.logCfg, Domain: env.domain})
	if err != nil {
		return fmt.Errorf("ship replay: %w", err)
	}
	execs := backend.NewExecutors(hb)
	stop := make(chan struct{})
	var served, shipped sync.WaitGroup
	served.Add(1)
	go func() {
		defer served.Done()
		execs[1].Pin(func() { execs[1].Serve(stop) })
	}()
	local := &recorder{origin: rec.origin}
	wrong := 0
	shipped.Add(1)
	go func() {
		defer shipped.Done()
		execs[0].Pin(func() {
			const owned = 1 // shard 1 is owned by executor 1
			for j, k := range keys {
				val := uint64(j) + 1
				t0 := time.Now()
				execs[0].Put(owned, 0, k, uint64(j+1), val)
				local.since("backend.ship", t0)
				t0 = time.Now()
				v, ok := execs[0].Get(owned, 0, k)
				local.since("backend.ship", t0)
				if !ok || v != val {
					wrong++
				}
			}
		})
	}()
	shipped.Wait()
	close(stop)
	served.Wait()
	rec.spans = append(rec.spans, local.spans...)
	ck.expect("replay_ship_get_returns_put", wrong == 0 && len(keys) > 0 && execs[0].Stats.Ships == int64(2*len(keys)),
		"%d of %d shipped reads wrong, %d ships", wrong, len(keys), execs[0].Stats.Ships)
	return nil
}
