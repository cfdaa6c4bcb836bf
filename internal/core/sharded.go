package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/rng"
)

// ShardedState layers the concurrent commit path over a State: kills
// and joins whose claims are disjoint (the invariant ShardScheduler
// enforces) commit from different goroutines at once, mutating the
// shared graphs through graph.Sharded wrappers.
//
// Division of labor for safety (the full argument is in
// internal/graph/README.md):
//
//   - A commit's write set is nodes plus G′ component labels, claimed
//     at admission. The nodes cover every adjacency row and per-node
//     field it writes outside the flood; the labels cover every node
//     the MINID flood visits. Within its claim a commit uses plain
//     loads and stores, exactly like the sequential engine — except
//     that floods store curID atomically, because admission loads the
//     labels of other operations' nodes while floods run.
//   - The only out-of-claim writes are the Lemma 8 "ring" counters: an
//     adopting node bumps msgRecv of all its G neighbors, which may
//     belong to other claims. Those are atomic adds — commutative, so
//     any commit interleaving yields the sequential totals.
//   - Global scalars (rounds, flood depths, dropped weight, peak δ)
//     accumulate in atomics — sums and max-merges, commutative again —
//     and fold back into the wrapped State at Sync.
//   - Per-node bookkeeping arrays grow on join; commits hold the
//     coreGrow read lock so array headers never move under them.
//
// Because every shared update commutes and conflicting operations are
// serialized in issue order by the scheduler, the final State is
// bit-identical to the sequential engine applying the same operations
// in issue order — the property the differential and interleaving
// tests in sharded_test.go check.
type ShardedState struct {
	st  *State
	sg  *graph.Sharded // over st.G
	sgp *graph.Sharded // over st.Gp

	// coreGrow guards the per-node bookkeeping array headers (initID,
	// curID, weight, ...) against reallocation by join admission while
	// commits index into them.
	coreGrow sync.RWMutex

	// Deltas accumulated since the last Sync (sums), or running
	// maxima for the whole run (maxFloodDepth, peakDelta).
	rounds        atomic.Int64
	floodDepthSum atomic.Int64
	maxFloodDepth atomic.Int64
	droppedWeight atomic.Int64
	peakDelta     atomic.Int64
}

// NewShardedState wraps st for concurrent commits with the given shard
// count (see graph.NewSharded for rounding/defaulting). The wrapped
// State must be quiescent; it remains usable sequentially whenever no
// commits are in flight and Sync has run.
func NewShardedState(st *State, shards int) *ShardedState {
	return &ShardedState{
		st:  st,
		sg:  graph.NewSharded(st.G, shards),
		sgp: graph.NewSharded(st.Gp, shards),
	}
}

// State returns the wrapped State. Sequential use is safe only at
// quiescence after Sync (e.g. inside a scheduler barrier).
func (ss *ShardedState) State() *State { return ss.st }

// Shards returns the shard count of the underlying graph wrappers.
func (ss *ShardedState) Shards() int { return ss.sg.Shards() }

// PeakDelta returns the largest δ observed at any healed-edge endpoint
// or join attach target since construction (a running max, mirroring
// the scenario runner's peak tracking).
func (ss *ShardedState) PeakDelta() int64 { return ss.peakDelta.Load() }

// begin/end bracket one commit: they hold off structural growth on
// both graphs and bookkeeping-array reallocation.
func (ss *ShardedState) begin() {
	ss.sg.Begin()
	ss.sgp.Begin()
	ss.coreGrow.RLock()
}

func (ss *ShardedState) end() {
	ss.coreGrow.RUnlock()
	ss.sgp.End()
	ss.sg.End()
}

// Sync folds all accumulated deltas back into the wrapped State and
// its graphs. It must only run at quiescence (no commits in flight);
// afterwards the State's counters are exact and the sequential code
// paths (snapshots, batch heals, metrics) can run on it directly.
func (ss *ShardedState) Sync() {
	ss.sg.Sync()
	ss.sgp.Sync()
	st := ss.st
	st.rounds += int(ss.rounds.Swap(0))
	st.floodDepthSum += ss.floodDepthSum.Swap(0)
	if m := int(ss.maxFloodDepth.Load()); m > st.maxFloodDepth {
		st.maxFloodDepth = m
	}
	st.droppedWeight += ss.droppedWeight.Swap(0)
}

// SupportsSharded reports whether h can run on the sharded commit
// path. DASH and SDASH qualify: both heal strictly inside the
// scheduler's node-and-label claim. Other healers fall back to the single-writer path.
func SupportsSharded(h Healer) bool {
	switch h.(type) {
	case DASH, SDASH:
		return true
	}
	return false
}

// CommitKill removes x and heals with h, the concurrent counterpart of
// State.DeleteAndHeal. The caller must own x's claim and
// bracket the call in begin/end (ShardScheduler does both). Hooks fire
// synchronously on the committing goroutine.
func (ss *ShardedState) CommitKill(x int, h Healer, hk *Hooks) HealResult {
	st := ss.st
	if !st.G.Alive(x) {
		panic(fmt.Sprintf("core: removing dead node %d", x))
	}
	d := Deletion{
		Node:   x,
		CurID:  st.curID[x],
		GNbrs:  st.G.AppendNeighbors(nil, x),
		GpNbrs: st.Gp.AppendNeighbors(nil, x),
	}
	// Weight hand-off: the receiving node is a claimed neighbor, so
	// the plain store is exclusive; only fully-isolated drops touch the
	// global counter.
	switch {
	case len(d.GpNbrs) > 0:
		st.weight[st.minInitID(d.GpNbrs)] += st.weight[x]
	case len(d.GNbrs) > 0:
		st.weight[st.minInitID(d.GNbrs)] += st.weight[x]
	default:
		ss.droppedWeight.Add(st.weight[x])
	}
	st.weight[x] = 0
	ss.sg.RemoveNode(x)
	ss.sgp.RemoveNode(x)
	if hk != nil && hk.OnRemove != nil {
		hk.OnRemove(x)
	}
	res := ss.heal(d, h, hk)
	ss.rounds.Add(1)
	ss.notePeakEdges(res.Added)
	return res
}

// heal mirrors DASH.Heal / SDASH.Heal on the sharded primitives. The
// reconnection set, δ ordering, and wiring touch claimed nodes only
// (RT ⊆ N(x,G), since G′ ⊆ G), and the MINID flood stays inside the
// merged G′ component, whose every node carries a claimed label.
func (ss *ShardedState) heal(d Deletion, h Healer, hk *Hooks) HealResult {
	st := ss.st
	switch h.(type) {
	case DASH:
		rt := st.ReconnectSet(d)
		st.SortByDelta(rt)
		added := ss.wireBinaryTree(rt, hk)
		ss.propagateMinID(rt, hk)
		return HealResult{RTSize: len(rt), Added: added}
	case SDASH:
		rt := st.ReconnectSet(d)
		res := HealResult{RTSize: len(rt)}
		if len(rt) == 0 {
			return res
		}
		st.SortByDelta(rt)
		w, m := rt[0], rt[len(rt)-1]
		if st.Delta(w)+len(rt)-1 <= st.Delta(m) {
			res.Added = ss.wireStar(w, rt, hk)
			res.Surrogated = true
		} else {
			res.Added = ss.wireBinaryTree(rt, hk)
		}
		ss.propagateMinID(rt, hk)
		return res
	default:
		panic(fmt.Sprintf("core: healer %s does not support the sharded commit path", h.Name()))
	}
}

// addHealingEdge is AddHealingEdge on the sharded graphs with per-op
// hooks.
func (ss *ShardedState) addHealingEdge(u, v int, hk *Hooks) bool {
	added := ss.sg.AddEdge(u, v)
	inGp := ss.sgp.AddEdge(u, v)
	if hk != nil && hk.OnEdge != nil && (added || inGp) {
		hk.OnEdge(u, v, added, inGp)
	}
	return added
}

func (ss *ShardedState) wireBinaryTree(members []int, hk *Hooks) [][2]int {
	var added [][2]int
	for i := range members {
		for _, c := range []int{2*i + 1, 2*i + 2} {
			if c < len(members) {
				if ss.addHealingEdge(members[i], members[c], hk) {
					added = append(added, [2]int{members[i], members[c]})
				}
			}
		}
	}
	return added
}

func (ss *ShardedState) wireStar(center int, members []int, hk *Hooks) [][2]int {
	var added [][2]int
	for _, v := range members {
		if v == center {
			continue
		}
		if ss.addHealingEdge(center, v, hk) {
			added = append(added, [2]int{center, v})
		}
	}
	return added
}

// propagateMinID is State.PropagateMinID for one concurrent commit.
// Every node it relabels carries a label the commit owns, so ID-change
// counts and msgSent are plain stores; labels are stored atomically for
// admission's concurrent loads. msgRecv of the adopters' G neighbors is
// the one write that crosses claim boundaries, so it is an atomic add —
// commutative with every other in-flight commit, exactly the argument
// internal/dist's pipeline uses for its notification ring.
func (ss *ShardedState) propagateMinID(rt []int, hk *Hooks) {
	if len(rt) == 0 {
		return
	}
	st := ss.st
	minID := st.curID[rt[0]]
	for _, v := range rt[1:] {
		if st.curID[v] < minID {
			minID = st.curID[v]
		}
	}
	adopt := func(v int) {
		atomic.StoreUint64(&st.curID[v], minID)
		st.idChanges[v]++
		nbrs := st.G.Neighbors(v)
		st.msgSent[v] += int64(len(nbrs))
		for _, u := range nbrs {
			atomic.AddInt64(&st.msgRecv[u], 1)
		}
		if hk != nil && hk.OnAdopt != nil {
			hk.OnAdopt(v, minID)
		}
	}
	type wave struct{ v, depth int }
	queue := make([]wave, 0, len(rt))
	for _, v := range rt {
		if st.curID[v] > minID {
			adopt(v)
			queue = append(queue, wave{v, 0})
		}
	}
	depth := 0
	for len(queue) > 0 {
		w := queue[0]
		queue = queue[1:]
		if w.depth > depth {
			depth = w.depth
		}
		for _, u := range st.Gp.Neighbors(w.v) {
			if st.curID[u] > minID {
				adopt(int(u))
				queue = append(queue, wave{int(u), w.depth + 1})
			}
		}
	}
	ss.floodDepthSum.Add(int64(depth))
	atomicMaxInt64(&ss.maxFloodDepth, int64(depth))
}

// AdmitJoin performs the admission half of a join — node allocation
// and bookkeeping growth — and returns the new node's index. It must
// run on the scheduler's serial admission goroutine (never inside a
// begin/end bracket: AddNode takes the grow locks exclusively, which
// is the brief mini-barrier that makes concurrent commits safe against
// array growth). attachTo must be alive, unclaimed, and duplicate-free.
func (ss *ShardedState) AdmitJoin(attachTo []int, r *rng.RNG) int {
	st := ss.st
	for _, u := range attachTo {
		if !st.G.Alive(u) {
			panic(fmt.Sprintf("core: joining to dead node %d", u))
		}
	}
	v := ss.sg.AddNode()
	if ss.sgp.AddNode() != v {
		panic("core: G and G' diverged in size")
	}
	id := r.Uint64()
	for {
		if _, dup := st.usedIDs[id]; !dup {
			break
		}
		id = r.Uint64()
	}
	st.usedIDs[id] = struct{}{}
	ss.coreGrow.Lock()
	st.initID = append(st.initID, id)
	st.curID = append(st.curID, id)
	st.weight = append(st.weight, 1)
	st.idChanges = append(st.idChanges, 0)
	st.msgSent = append(st.msgSent, 0)
	st.msgRecv = append(st.msgRecv, 0)
	// The sequential Join measures initDeg after wiring; with a
	// duplicate-free attach list that is exactly len(attachTo).
	st.initDeg = append(st.initDeg, len(attachTo))
	ss.coreGrow.Unlock()
	st.joined++
	return v
}

// CommitJoin wires a previously admitted join's attach edges — the
// concurrent half. The caller must own {v} ∪ attachTo and bracket the
// call in begin/end. (OnJoin hooks fire at admission, on the serial
// goroutine, so join events keep their issue order; see
// ShardScheduler.Join.)
func (ss *ShardedState) CommitJoin(v int, attachTo []int) {
	for _, u := range attachTo {
		ss.sg.AddEdge(v, u)
	}
	for _, u := range attachTo {
		atomicMaxInt64(&ss.peakDelta, int64(ss.st.Delta(u)))
	}
}

// notePeakEdges max-merges the post-heal δ of every added-edge
// endpoint into the running peak; endpoints are claimed nodes, so the
// degree reads are exclusive.
func (ss *ShardedState) notePeakEdges(added [][2]int) {
	for _, e := range added {
		atomicMaxInt64(&ss.peakDelta, int64(ss.st.Delta(e[0])))
		atomicMaxInt64(&ss.peakDelta, int64(ss.st.Delta(e[1])))
	}
}

// atomicMaxInt64 lifts a into max(a, v) without locks.
func atomicMaxInt64(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}
