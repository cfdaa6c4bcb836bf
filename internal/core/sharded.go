package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/rng"
)

// ShardedState layers the concurrent commit path over a State: kills
// and joins whose claims are disjoint (the invariant ShardScheduler
// enforces) commit from different goroutines at once, on the State's
// own graphs and through the sequential engine's own heal code.
//
// Division of labor for safety (the full argument is in
// internal/graph/README.md):
//
//   - A commit's write set is nodes plus G′ component labels, claimed
//     at admission. The nodes cover every adjacency row and per-node
//     field it writes outside the flood; the labels cover every node
//     the MINID flood visits. A kill runs State.DeleteAndHeal on a
//     per-commit view of the State (see view), so DASH.Heal and
//     SDASH.Heal run unchanged under the claim.
//   - The view's only out-of-claim writes are the graphs' alive and
//     edge counters and the Lemma 8 "ring" counters (an adopting node
//     bumps msgRecv of all its G neighbors, which may belong to other
//     claims). All are atomic adds, so any commit interleaving yields
//     the sequential totals. Labels are stored atomically too, because
//     admission loads other operations' labels while floods run.
//   - The view's global scalars (rounds, flood depths, dropped weight)
//     fold into atomics here, and from there into the State at Sync.
//   - Joins grow the graphs and the per-node arrays under coreGrow,
//     which commits hold shared, so no slice header moves under them.
//
// Because every shared update commutes and conflicting operations are
// serialized in issue order by the scheduler, the final State is
// bit-identical to the sequential engine applying the same operations
// in issue order — the property the differential and interleaving
// tests in sharded_test.go check.
type ShardedState struct {
	st *State

	// coreGrow guards the graphs' and the per-node arrays' slice
	// headers against reallocation by join admission while commits
	// index into them.
	coreGrow sync.RWMutex

	// Deltas accumulated since the last Sync (sums), or running
	// maxima for the whole run (maxFloodDepth, peakDelta).
	rounds        atomic.Int64
	floodDepthSum atomic.Int64
	maxFloodDepth atomic.Int64
	droppedWeight atomic.Int64
	peakDelta     atomic.Int64
}

// NewShardedState wraps st for concurrent commits. The shards argument
// is unused: the graphs need no shard partition, since claims own their
// rows and the counters are atomic. It stays because external callers
// pass it. The wrapped State must be quiescent; it remains usable
// sequentially whenever no commits are in flight and Sync has run.
func NewShardedState(st *State, shards int) *ShardedState {
	return &ShardedState{st: st}
}

// State returns the wrapped State. Sequential use is safe only at
// quiescence after Sync (e.g. inside a scheduler barrier).
func (ss *ShardedState) State() *State { return ss.st }

// PeakDelta returns the largest δ observed at any healed-edge endpoint
// or join attach target since construction (a running max, mirroring
// the scenario runner's peak tracking).
func (ss *ShardedState) PeakDelta() int64 { return ss.peakDelta.Load() }

// begin/end bracket one commit: they hold off join growth.
func (ss *ShardedState) begin() { ss.coreGrow.RLock() }

func (ss *ShardedState) end() { ss.coreGrow.RUnlock() }

// Sync folds all accumulated deltas back into the wrapped State. It
// must only run at quiescence (no commits in flight); afterwards the
// State's counters are exact and the sequential code paths (snapshots,
// batch heals, metrics) can run on it directly.
func (ss *ShardedState) Sync() {
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
// scheduler's node-and-label claim and keep no state outside the
// State. Other healers fall back to the single-writer path.
func SupportsSharded(h Healer) bool {
	switch h.(type) {
	case DASH, SDASH:
		return true
	}
	return false
}

// view returns a per-commit copy of the wrapped State. It shares the
// graphs and every per-node array, starts its global scalars at zero,
// and fires hk instead of the State's hooks. The caller must hold the
// commit bracket, so no join moves the arrays while the view exists.
func (ss *ShardedState) view(hk *Hooks) *State {
	v := *ss.st
	v.view = true
	v.hooks = hk
	v.rounds, v.floodDepthSum, v.maxFloodDepth, v.droppedWeight = 0, 0, 0, 0
	return &v
}

// CommitKill removes x and heals with h, the concurrent counterpart of
// State.DeleteAndHeal, which it runs on a per-commit view. The caller
// must own x's claim and bracket the call in begin/end
// (ShardScheduler does both). Hooks fire synchronously on the
// committing goroutine.
func (ss *ShardedState) CommitKill(x int, h Healer, hk *Hooks) HealResult {
	if !SupportsSharded(h) {
		panic(fmt.Sprintf("core: healer %s does not support the sharded commit path", h.Name()))
	}
	v := ss.view(hk)
	res := v.DeleteAndHeal(x, h)
	ss.rounds.Add(int64(v.rounds))
	ss.floodDepthSum.Add(v.floodDepthSum)
	atomicMaxInt64(&ss.maxFloodDepth, int64(v.maxFloodDepth))
	ss.droppedWeight.Add(v.droppedWeight)
	for _, e := range res.Added {
		// Endpoints are claimed nodes, so the degree reads are exclusive.
		atomicMaxInt64(&ss.peakDelta, int64(v.Delta(e[0])))
		atomicMaxInt64(&ss.peakDelta, int64(v.Delta(e[1])))
	}
	return res
}

// AdmitJoin performs the admission half of a join — node allocation
// and bookkeeping growth — and returns the new node's index. It must
// run on the scheduler's serial admission goroutine, never inside a
// begin/end bracket: it takes coreGrow exclusively, the brief
// mini-barrier that makes concurrent commits safe against growth.
// attachTo must be alive, unclaimed, and duplicate-free, so the
// newcomer's initial degree is len(attachTo), as State.Join measures.
func (ss *ShardedState) AdmitJoin(attachTo []int, r *rng.RNG) int {
	ss.coreGrow.Lock()
	defer ss.coreGrow.Unlock()
	return ss.st.grow(attachTo, r, len(attachTo))
}

// CommitJoin wires a previously admitted join's attach edges — the
// concurrent half. The caller must own {v} ∪ attachTo and bracket the
// call in begin/end. (OnJoin hooks fire at admission, on the serial
// goroutine, so join events keep their issue order; see
// ShardScheduler.Join.)
func (ss *ShardedState) CommitJoin(v int, attachTo []int) {
	for _, u := range attachTo {
		ss.st.G.AddEdge(v, u)
	}
	for _, u := range attachTo {
		atomicMaxInt64(&ss.peakDelta, int64(ss.st.Delta(u)))
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
