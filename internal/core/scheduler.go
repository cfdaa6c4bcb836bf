package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/rng"
)

// ShardTicket tracks one operation through the sharded commit path.
type ShardTicket struct {
	Kill   bool       // kill (true) or join (false)
	Node   int        // victim, or the join's new node
	Attach []int      // join attach targets (duplicate-free)
	HR     HealResult // kill only; populated at commit
	Start  time.Time  // submission time, for latency observers

	healer Healer
	hooks  *Hooks
	onDone func(*ShardTicket)
	done   chan struct{}
	id     int32
	nodes  []int32  // claimed nodes
	labels []uint64 // claimed G′ component labels (may repeat)
}

// Done returns a channel closed when the ticket's commit (and onDone
// callback) has completed.
func (t *ShardTicket) Done() <-chan struct{} { return t.done }

// ShardScheduler admits kills and joins from one serial goroutine and
// hands operations with disjoint claims to a worker pool that commits
// them concurrently through a ShardedState, whose kills run the
// sequential State.DeleteAndHeal on a per-commit view (the full
// argument is in internal/graph/README.md).
//
// A claim is an operation's write set: nodes plus G′ component labels
// (current IDs), collected in O(degree) without walking G′. A kill of
// v claims {v} ∪ N_G(v) and those nodes' labels; the labels cover its
// MINID flood, which stays inside the components they name. A join
// claims the new node, its attach targets, and the targets' labels,
// because a flood charges each adopter msgSent by its G-degree. An
// operation whose claim meets an in-flight claim waits for that owner
// and retries, so conflicting operations serialize in issue order and
// disjoint ones commute. Nothing falls back to a serialized commit.
//
// Labels are read with atomic loads while floods in commit views
// store them atomically. A node mid-flood shows its old label or the new minimum,
// and the flooding ticket owns both, so either read is a conflict.
//
// The claim tables are admission-goroutine-only. Before each claim,
// admission sweeps the in-flight list and releases the claims of
// tickets whose Done channel is closed; workers close Done after the
// commit, so the close orders the commit's writes before the release.
//
// Joins admit serially (node allocation and bookkeeping growth are the
// mini-barrier) and fire OnJoin hooks at admission, so join events
// enter any observer's log in node-index order — the order trace
// replay demands — while their attach edges commit concurrently.
//
// All methods must be called from a single goroutine (the apply loop /
// trial runner).
type ShardScheduler struct {
	ss      *ShardedState
	healer  Healer
	tasks   chan *ShardTicket
	wg      sync.WaitGroup
	workers int

	stamp    []int32          // node -> claiming ticket id, 0 = free
	labels   map[uint64]int32 // label -> claiming ticket id
	inflight []*ShardTicket   // admitted tickets not yet released
	nextID   int32

	closeOnce sync.Once

	conflicts int64 // admission waits due to an overlapping claim

	// onWait, when set (tests only), runs on the admission goroutine
	// just before admission blocks on a conflicting owner.
	onWait func(owner *ShardTicket)
}

// NewShardScheduler starts a scheduler over ss with the given worker
// count (<= 0 defaults to runtime.NumCPU()). The healer must support
// the sharded path (SupportsSharded). Close must be called to drain
// and stop the workers.
func NewShardScheduler(ss *ShardedState, h Healer, workers int) *ShardScheduler {
	if !SupportsSharded(h) {
		panic(fmt.Sprintf("core: healer %s does not support the sharded commit path", h.Name()))
	}
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	sc := &ShardScheduler{
		ss:     ss,
		healer: h,
		// One queued ticket keeps a finishing worker fed; a deeper queue
		// only adds queueing delay behind slow (hub) commits.
		tasks:   make(chan *ShardTicket, 1),
		workers: workers,
		stamp:   make([]int32, ss.st.N()),
		labels:  make(map[uint64]int32),
	}
	for i := 0; i < workers; i++ {
		go sc.worker()
	}
	return sc
}

// Workers returns the commit worker count.
func (sc *ShardScheduler) Workers() int { return sc.workers }

// Conflicts returns how many admissions had to wait on an in-flight
// ticket whose claim overlapped theirs.
func (sc *ShardScheduler) Conflicts() int64 { return sc.conflicts }

// Universals always returns 0: every kill commits concurrently under
// its label-keyed claim, and nothing falls back to a serialized commit.
// It is kept for callers that report it.
func (sc *ShardScheduler) Universals() int64 { return 0 }

// Kill submits the removal and heal of v. It blocks while v's claim
// overlaps in-flight work, then enqueues the commit and returns as
// soon as it is admitted. hooks (optional) fire on the committing
// goroutine; onDone (optional) runs after the commit, before the
// ticket's Done channel closes, and may run on a worker goroutine.
func (sc *ShardScheduler) Kill(v int, hooks *Hooks, onDone func(*ShardTicket)) *ShardTicket {
	t := &ShardTicket{
		Kill: true, Node: v, healer: sc.healer,
		hooks: hooks, onDone: onDone,
		done: make(chan struct{}), Start: time.Now(),
	}
	sc.admit(t)
	sc.dispatch(t)
	return t
}

// Join submits a join to the given attach targets (deduplicated,
// order-preserving), drawing the newcomer's ID from r at admission so
// the RNG stream matches the sequential engine's issue order. It
// returns the new node's index once admitted; the attach edges commit
// asynchronously. OnJoin hooks fire at admission on the calling
// goroutine.
func (sc *ShardScheduler) Join(attachTo []int, r *rng.RNG, hooks *Hooks, onDone func(*ShardTicket)) (int, *ShardTicket) {
	attach := make([]int, 0, len(attachTo))
	for _, u := range attachTo {
		dup := false
		for _, w := range attach {
			if w == u {
				dup = true
				break
			}
		}
		if !dup {
			attach = append(attach, u)
		}
	}
	t := &ShardTicket{
		Node: -1, Attach: attach,
		hooks: hooks, onDone: onDone,
		done: make(chan struct{}), Start: time.Now(),
	}
	sc.admit(t)
	v := sc.ss.AdmitJoin(attach, r)
	t.Node = v
	for len(sc.stamp) <= v { // the node space grew
		sc.stamp = append(sc.stamp, 0)
	}
	sc.stamp[v] = t.id
	t.nodes = append(t.nodes, int32(v))
	if hooks != nil && hooks.OnJoin != nil {
		hooks.OnJoin(v, attach)
	}
	sc.dispatch(t)
	return v, t
}

// Barrier drains every in-flight commit and folds counters back, after
// which the wrapped State is exact and safe for sequential use (batch
// kills, snapshots, metrics) until the next submission.
func (sc *ShardScheduler) Barrier() {
	sc.wg.Wait()
	sc.ss.Sync()
}

// Close drains in-flight commits, folds counters, and stops the
// workers. Submitting after Close panics. Close is idempotent.
func (sc *ShardScheduler) Close() {
	sc.wg.Wait()
	sc.ss.Sync()
	sc.closeOnce.Do(func() { close(sc.tasks) })
}

// admit sweeps completed tickets and collects t's claim until no
// in-flight ticket owns any part of it, waiting on each owner found,
// then stamps the claim and lists t in flight.
func (sc *ShardScheduler) admit(t *ShardTicket) {
	for {
		sc.sweep()
		owner := sc.collect(t)
		if owner == nil {
			break
		}
		sc.conflicts++
		if sc.onWait != nil {
			sc.onWait(owner)
		}
		<-owner.done
	}
	sc.nextID++
	if sc.nextID <= 0 { // wrapped; 0 is the free marker
		sc.nextID = 1
	}
	t.id = sc.nextID
	for _, w := range t.nodes {
		sc.stamp[w] = t.id
	}
	for _, l := range t.labels {
		sc.labels[l] = t.id
	}
	sc.inflight = append(sc.inflight, t)
}

// collect gathers t's claimed nodes and labels, or returns the
// in-flight owner of some part of them. A kill's victim stamp is
// checked before its adjacency is read: only its owner may change it.
// Consecutive repeated labels are skipped; other repeats are harmless.
func (sc *ShardScheduler) collect(t *ShardTicket) *ShardTicket {
	t.nodes, t.labels = t.nodes[:0], t.labels[:0]
	if t.Kill {
		if o := sc.nodeOwner(t.Node); o != nil {
			return o
		}
		t.nodes = append(t.nodes, int32(t.Node))
		t.nodes = append(t.nodes, sc.ss.st.G.Neighbors(t.Node)...)
	} else {
		for _, u := range t.Attach {
			t.nodes = append(t.nodes, int32(u))
		}
	}
	for _, u := range t.nodes {
		if o := sc.nodeOwner(int(u)); o != nil {
			return o
		}
		l := atomic.LoadUint64(&sc.ss.st.curID[u])
		if n := len(t.labels); n > 0 && t.labels[n-1] == l {
			continue
		}
		if id, ok := sc.labels[l]; ok {
			return sc.owner(id)
		}
		t.labels = append(t.labels, l)
	}
	return nil
}

// nodeOwner returns the in-flight ticket claiming v, or nil.
func (sc *ShardScheduler) nodeOwner(v int) *ShardTicket {
	if id := sc.stamp[v]; id != 0 {
		return sc.owner(id)
	}
	return nil
}

// owner finds the in-flight ticket with the given id.
func (sc *ShardScheduler) owner(id int32) *ShardTicket {
	for _, t := range sc.inflight {
		if t.id == id {
			return t
		}
	}
	panic(fmt.Sprintf("core: claim held by unknown ticket %d", id))
}

// sweep releases the claims of every in-flight ticket whose commit has
// completed. Receiving from the closed Done channel is what makes the
// commit's writes visible to admission.
func (sc *ShardScheduler) sweep() {
	live := sc.inflight[:0]
	for _, t := range sc.inflight {
		select {
		case <-t.done:
			for _, w := range t.nodes {
				sc.stamp[w] = 0
			}
			for _, l := range t.labels {
				delete(sc.labels, l)
			}
		default:
			live = append(live, t)
		}
	}
	clear(sc.inflight[len(live):])
	sc.inflight = live
}

func (sc *ShardScheduler) dispatch(t *ShardTicket) {
	sc.wg.Add(1)
	sc.tasks <- t
}

func (sc *ShardScheduler) worker() {
	for t := range sc.tasks {
		sc.ss.begin()
		if t.Kill {
			t.HR = sc.ss.CommitKill(t.Node, t.healer, t.hooks)
		} else {
			sc.ss.CommitJoin(t.Node, t.Attach)
		}
		sc.ss.end()
		if t.onDone != nil {
			t.onDone(t)
		}
		close(t.done)
		sc.wg.Done()
		// The close may have woken admission, which then waits in this
		// P's run queue; yield so it runs now rather than after the
		// next commit.
		runtime.Gosched()
	}
}
