package dist

// Mid-epoch crash recovery: the supervisor side of the chaos transport's
// fail-stop faults. The chaos transport asks the failure detector for
// permission before killing a node (tryCrash); the supervisor either
// defers the crash (the transport re-arms the crash point and tries
// again at the next matching delivery) or fail-stops the node and
// schedules a recovery epoch that restores the network to exactly the
// state the sequential oracle reaches.
//
// # What a crash may interrupt
//
// A crash is granted only when the victim v is involved in at most one
// incomplete epoch, and that epoch is a launched single-kill E that has
// not started its MINID flood. Everything else defers: joins and batch
// epochs have multi-stage supervisor machinery that cannot be unwound
// locally, a flood that has begun has already mutated labels, and a
// node inside two epochs' claims cannot attribute its partial state.
// The deferral is sound because the fault model is "crash at a named
// protocol step", not "crash at an exact instant" — the point simply
// fires at the next matching delivery.
//
// # Abort is exact because floods are the point of no return
//
// Before its flood, a kill epoch has only (a) removed the victim's
// edges at survivors that processed the death notice, (b) accumulated
// leader scratch state, and (c) wired healing edges recorded locally in
// node.roundWires. No label has changed. So msgEpochAbort can unwind
// the epoch exactly: endpoints drop the recorded healing edges (and
// gossip the retraction), the leader discards its scratchpad, and every
// claimed node ignores the epoch's residual coordination traffic
// (abortedEpochs guard in node.handle). The victim's death itself is
// NOT undone — x really died — its heal is simply re-run by the
// recovery epoch, which treats {x, v} as one batch deletion. The abort
// goes to the kill's claimed nodes, {x} ∪ N_G(x): the only nodes that
// can hold the epoch's state before its flood.
//
// # The recovery epoch R
//
// R is a supervisor-driven batch heal of W = {v} ∪ {E.victim if E was
// aborted}: crash notices (lenient tombstones) to W's surviving mirror
// neighbors, then cluster derivation on the pre-removal mirror with
// supervisor-appointed leaders (lowest candidate initial ID — the same
// rule the batch protocol's dying roots apply), then the existing
// epCluster child machinery: component probe, report collection,
// batch-DASH tree wiring, MINID flood. The sequential oracle for R is
// exactly core.DeleteBatchAndHeal(W).
//
// # Why the effective-op log stays an oracle
//
// effLog records, in oracle order, the operations that actually mutated
// the network. At crash time the aborted kill's entry is expunged (its
// heal never happened) and R's batch entry is appended at the END.
// R is universal and jumps the launch queue: it launches once every
// launched epoch has completed, so those commute trivially, and every
// queued epoch launches after R completes while keeping its pre-crash
// log position. That is sound only if each queued epoch commutes with
// R, so crashEligible refuses the crash unless every queued epoch's
// reach is disjoint from R's. Claims are computed at launch, and a
// launched epoch can still widen the claim of an epoch that conflicts
// with it (a flood relabels a neighbor, a heal adds an edge), so an
// epoch's reach is its claim on the current mirror plus the claims of
// the launched epochs it meets. A queued epoch behind another queued
// one inherits nothing the other's reach does not already cover, and
// R holds every label as a write, so plain overlap decides. Keeping
// queued joins in place also keeps slot indices and initial-ID draws
// aligned with issue order, which core replay depends on.

import (
	"fmt"
	"sort"
)

// EffOpKind discriminates EffectiveOp.
type EffOpKind uint8

const (
	// EffKill is a completed single deletion (core.DeleteAndHeal).
	EffKill EffOpKind = iota
	// EffJoin is a completed join (core.Join at NewID with InitID).
	EffJoin
	// EffBatch is a completed batch deletion — including crash
	// recoveries, whose oracle is core.DeleteBatchAndHeal over the
	// crashed set (an empty Batch is an empty round: rounds++ only).
	EffBatch
)

// EffectiveOp is one entry of the network's effective-operation log: the
// operation sequence that, replayed through the sequential core, must
// reproduce the drained network bit-for-bit. Crashes rewrite history —
// an aborted kill never appears, and the recovery appears as a batch
// deletion of the crashed set — so differential harnesses must replay
// EffectiveOps(), not the operations they issued.
type EffectiveOp struct {
	Kind   EffOpKind
	Victim int    // EffKill
	Batch  []int  // EffBatch, ascending
	NewID  int    // EffJoin: the slot index core.AddNode must yield
	Attach []int  // EffJoin, issue order
	InitID uint64 // EffJoin
}

// effEntry tags a log entry with the epoch that produced it, so a crash
// can expunge the aborted kill's entry.
type effEntry struct {
	epoch uint64
	op    EffectiveOp
}

// EffectiveOps snapshots the effective-operation log.
func (nw *Network) EffectiveOps() []EffectiveOp {
	pi := nw.pipe
	pi.mu.Lock()
	defer pi.mu.Unlock()
	out := make([]EffectiveOp, len(pi.effLog))
	for i, e := range pi.effLog {
		out[i] = e.op
	}
	return out
}

// Crashed returns the nodes the chaos transport has fail-stopped so
// far, ascending.
func (nw *Network) Crashed() []int {
	pi := nw.pipe
	pi.mu.Lock()
	defer pi.mu.Unlock()
	out := make([]int, 0, len(pi.crashed))
	for v := range pi.crashed {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// CrashCount reports how many crash points have actually fired.
func (nw *Network) CrashCount() int {
	pi := nw.pipe
	pi.mu.Lock()
	defer pi.mu.Unlock()
	return len(pi.crashed)
}

// noteFloodStarted marks an epoch's MINID flood as begun and reports
// whether the leader may proceed. A false return means the epoch was
// aborted by crash recovery while the last attach ack was in flight;
// the leader must not send a single flood message (the abort guarantee
// is "no label has changed").
func (nw *Network) noteFloodStarted(epoch uint64) bool {
	if epoch == 0 {
		return true
	}
	pi := nw.pipe
	pi.mu.Lock()
	defer pi.mu.Unlock()
	es := pi.epochs[epoch]
	if es == nil {
		return true // already completed; nothing can abort it now
	}
	if es.aborted {
		return false
	}
	es.floodStarted = true
	return true
}

// storeCrashStats archives a crashed node's counters without marking
// its goroutine exited — the black-holed actor keeps draining its
// mailbox until the recovery epoch's msgStop.
func (nw *Network) storeCrashStats(v int, fs finalStats) {
	nw.mu.Lock()
	nw.deadStats[v] = fs
	nw.mu.Unlock()
}

// tryCrash is the chaos transport's request to fail-stop node v. It
// returns false when the failure detector defers the crash (the caller
// re-arms its crash point). On success the node is black-holed, any
// torn kill epoch is aborted, and a recovery epoch is scheduled.
func (nw *Network) tryCrash(v int) bool {
	pi := nw.pipe
	pi.mu.Lock()
	es, ok := pi.crashEligible(v)
	if !ok {
		pi.mu.Unlock()
		return false
	}
	pi.performCrash(v, es)
	pi.mu.Unlock()
	pi.flush()
	return true
}

// crashable reports whether tryCrash(v) would currently be granted,
// with no side effects. The deterministic fault simulator uses it to
// enable crash events only where they would actually fire.
func (nw *Network) crashable(v int) bool {
	pi := nw.pipe
	pi.mu.Lock()
	_, ok := pi.crashEligible(v)
	pi.mu.Unlock()
	return ok
}

// crashEligible decides (under pi.mu) whether v may crash right now,
// returning the launched kill epoch that must be aborted (nil for a
// standalone crash).
func (pi *pipeline) crashEligible(v int) (*epochState, bool) {
	if pi.recovering {
		return nil, false
	}
	nw := pi.nw
	nw.mu.Lock()
	bad := v < 0 || v >= nw.n || nw.dead[v] || nw.exited[v]
	nw.mu.Unlock()
	if bad || pi.crashed[v] {
		return nil, false
	}
	if _, doomed := pi.pendingVictim[v]; doomed {
		return nil, false
	}

	// v must appear in at most one incomplete epoch (cluster children
	// included), and that epoch must be an abortable kill: launched —
	// so its claim is final and its messages identifiable — but
	// pre-flood, so no label has changed yet. A queued epoch counts
	// with the claim it would launch with now.
	var hit *epochState
	for _, es := range pi.epochs {
		if !es.universal {
			c := es.claim
			if c == nil {
				c = pi.claimOf(es)
			}
			if !c.touches(v, pi.lab[v]) {
				continue
			}
		}
		if hit != nil {
			return nil, false
		}
		hit = es
	}
	if hit != nil && (hit.kind != epKill || !hit.launched || hit.universal ||
		hit.floodStarted || hit.aborted) {
		return nil, false
	}

	// Every queued epoch's reach must be disjoint from the recovery's
	// (see the package comment): queued epochs will execute after the
	// recovery but keep their pre-crash position in the effective-op
	// log, which is only sound when they commute with it.
	W := []int{v}
	if hit != nil {
		W = append(W, hit.victim)
	}
	rec := pi.reach(pi.writeClaim(pi.closedNbhd(W)))
	for _, es := range pi.queue {
		if es.universal {
			return nil, false
		}
		if rec.meets(pi.reach(pi.claimOf(es))) {
			return nil, false
		}
	}
	return hit, true
}

// reach returns c widened by the claims of the launched top-level
// epochs it meets, every label held as a write: an over-approximation
// of what the epoch holding c touches once those epochs complete.
// crashEligible calls it only when no epoch is universal.
func (pi *pipeline) reach(c *claim) *claim {
	nodes := append([]int(nil), c.nodes...)
	labels := append(append([]uint64(nil), c.writes...), c.reads...)
	for _, id := range pi.order {
		o := pi.epochs[id]
		if !o.launched || o.universal || !o.claim.meets(c) {
			continue
		}
		nodes = append(nodes, o.claim.nodes...)
		labels = append(append(labels, o.claim.writes...), o.claim.reads...)
	}
	return &claim{nodes: sortedSet(nodes), writes: sortedSet(labels)}
}

// performCrash (pi.mu held) fail-stops v, aborts the torn kill epoch es
// (nil for a standalone crash), and schedules the recovery epoch.
// Caller must flush() after unlocking.
func (pi *pipeline) performCrash(v int, es *epochState) {
	nw := pi.nw
	nw.node(v).crashed.Store(true)
	pi.crashed[v] = true
	pi.recovering = true

	W := []int{v}
	if es != nil {
		W = append(W, es.victim)
		sort.Ints(W)
	}
	set := make(map[int]struct{}, len(W))
	for _, w := range W {
		set[w] = struct{}{}
	}

	r := &epochState{
		id:        pi.nextEpoch,
		kind:      epRecover,
		batch:     W,
		batchSet:  set,
		universal: true,
	}
	pi.nextEpoch++
	r.handle = &Epoch{
		id: r.id, nw: nw, done: make(chan struct{}),
		desc: fmt.Sprintf("crash recovery of %v", W),
	}
	// R waits for everything in flight, and everything queued waits for
	// R: it goes to the head of the launch queue.
	pi.epochs[r.id] = r
	pi.order = append(pi.order, r.id)
	pi.queue = append([]*epochState{r}, pi.queue...)
	for _, w := range W {
		pi.pendingVictim[w] = r.id
	}

	// Rewrite the effective-op log: the aborted kill's heal never
	// happened; the recovery is a batch deletion of W ordered after
	// every launched epoch (see the package comment for why appending
	// at the end is sound).
	if es != nil {
		for i, e := range pi.effLog {
			if e.epoch == es.id {
				pi.effLog = append(pi.effLog[:i], pi.effLog[i+1:]...)
				break
			}
		}
	}
	pi.effLog = append(pi.effLog, effEntry{
		epoch: r.id,
		op:    EffectiveOp{Kind: EffBatch, Batch: append([]int(nil), W...)},
	})

	if es != nil {
		es.aborted = true
		r.adopts = append(r.adopts, es.handle)
		// Tear the epoch down at every claimed node except the kill
		// victim (its goroutine exited in die) and the crashed node
		// (black-holed; its state is discarded anyway).
		x := es.victim
		members := make([]int, 0, len(es.claim.nodes))
		nw.mu.Lock()
		for _, u := range es.claim.nodes {
			if u == x || u == v || nw.dead[u] || nw.exited[u] {
				continue
			}
			members = append(members, u)
		}
		nw.mu.Unlock()
		pi.stageSend(es, func() {
			for _, u := range members {
				nw.send(u, message{kind: msgEpochAbort, from: srcSupervisor, epoch: es.id, victim: x})
			}
		})
	}

	pi.admit()
}

// abortFinish retires an aborted kill epoch once its traffic (including
// the abort orders and their retraction gossip) has drained. The
// epoch's handle stays open — the recovery epoch adopted it — and the
// victim stays doomed (pendingVictim now points at the recovery).
func (pi *pipeline) abortFinish(es *epochState) {
	pi.retire(es)
	// Discard the torn heal's recorded attach orders (undone node-side;
	// they must never reach the mirror) and any stray flood-depth
	// records (there can be none: the epoch never flooded).
	pi.takeAttach(es.id)
	pi.nw.mu.Lock()
	delete(pi.nw.epochHops, es.id)
	pi.nw.mu.Unlock()
	pi.admit()
}

// launchRecover opens the recovery epoch: lenient tombstones for every
// member of W to its surviving pre-removal mirror neighbors. The stage
// drains when every survivor has dropped its edges to W and finished
// the resulting NoN gossip.
func (pi *pipeline) launchRecover(es *epochState) {
	es.stage = "notice"
	type notice struct{ to, of int }
	var notices []notice
	for _, w := range es.batch {
		for _, u32 := range pi.mirG.Neighbors(w) {
			u := int(u32)
			if _, dead := es.batchSet[u]; !dead {
				notices = append(notices, notice{to: u, of: w})
			}
		}
	}
	// Per recipient, order notices about exited members of W (an aborted
	// kill's victim) before notices about crashed ones. Dropping an edge
	// to w makes the survivor gossip NoNRemove(w) to its remaining
	// G-neighbors, and those may still include other members of W: the
	// aborted epoch's death notice was discarded by the abort guard, so
	// the edge to the kill victim can outlive it. Gossip to a crashed
	// member lands in its black hole and drains; gossip to the exited
	// victim would queue forever (its goroutine is gone, with no black
	// hole). Removing the exited members' edges first makes them
	// unreachable before any gossip fires. Supervisor sends are
	// per-recipient FIFO, so this order is the processing order.
	sort.Slice(notices, func(i, j int) bool {
		if notices[i].to != notices[j].to {
			return notices[i].to < notices[j].to
		}
		ci, cj := pi.crashed[notices[i].of], pi.crashed[notices[j].of]
		if ci != cj {
			return cj
		}
		return notices[i].of < notices[j].of
	})
	pi.stageSend(es, func() {
		for _, nt := range notices {
			pi.nw.send(nt.to, message{kind: msgCrashNotice, from: srcSupervisor, epoch: es.id, victim: nt.of})
		}
	})
}

// advanceRecover is the recovery epoch's stage machine.
func (pi *pipeline) advanceRecover(es *epochState) {
	switch es.stage {
	case "notice":
		// Survivors are consistent. Derive the dead clusters and their
		// candidates from the pre-removal mirror (the supervisor-side
		// analogue of core.ClusterDeletions), appoint each cluster's
		// leader, then mark W dead and drop it from the mirror.
		pi.prepareRecoveryClusters(es)
		pi.nw.mu.Lock()
		for _, w := range es.batch {
			pi.nw.dead[w] = true
		}
		pi.nw.mu.Unlock()
		for _, w := range es.batch {
			pi.mirG.RemoveNode(w)
		}
		es.stage = "lead"
		pi.stageSend(es, func() {
			for _, child := range es.clusters {
				// The supervisor plays the dying root: hand the leader
				// its cluster's candidate set.
				pi.nw.send(child.leader, message{
					kind: msgBatchLead, from: srcSupervisor, epoch: es.id,
					victim: child.root, nonNbrs: child.attachInfo,
				})
			}
			// Stop the crashed black holes: every frame they will ever
			// have to consume has drained. (An aborted kill's victim is
			// not sent a stop — its goroutine already exited in die.)
			for _, w := range es.batch {
				if pi.crashed[w] {
					pi.nw.send(w, message{kind: msgStop, from: srcSupervisor, epoch: es.id})
				}
			}
		})
	case "lead":
		// Leaders are primed and zombie mailboxes drained: run each
		// cluster's heal under the usual child-epoch machinery.
		pi.scheduleClusters(es)
	}
}

// prepareRecoveryClusters derives W's dead clusters, candidate sets,
// and supervisor-appointed leaders (lowest candidate initial ID, the
// batch protocol's own election rule) from the pre-removal mirror.
func (pi *pipeline) prepareRecoveryClusters(es *epochState) {
	parent := make(map[int]int, len(es.batch))
	var find func(int) int
	find = func(v int) int {
		for parent[v] != v {
			parent[v] = parent[parent[v]]
			v = parent[v]
		}
		return v
	}
	for _, v := range es.batch {
		parent[v] = v
	}
	for _, v := range es.batch {
		for _, u32 := range pi.mirG.Neighbors(v) {
			u := int(u32)
			if _, dead := es.batchSet[u]; !dead {
				continue
			}
			a, b := find(v), find(u)
			if a != b {
				if a > b {
					a, b = b, a
				}
				parent[b] = a
			}
		}
	}
	cands := make(map[int]map[int]struct{})
	for _, v := range es.batch {
		r := find(v)
		set := cands[r]
		if set == nil {
			set = make(map[int]struct{})
			cands[r] = set
		}
		for _, u32 := range pi.mirG.Neighbors(v) {
			u := int(u32)
			if _, dead := es.batchSet[u]; !dead {
				set[u] = struct{}{}
			}
		}
	}
	roots := make([]int, 0, len(cands))
	for r := range cands {
		roots = append(roots, r)
	}
	sort.Ints(roots)
	for _, r := range roots {
		if len(cands[r]) == 0 {
			continue // no surviving candidate: nothing to heal
		}
		cs := make([]int, 0, len(cands[r]))
		candIDs := make(map[int]uint64, len(cands[r]))
		leader := -1
		var best uint64
		for u := range cands[r] {
			cs = append(cs, u)
			id := pi.nw.initIDs[u]
			candIDs[u] = id
			if leader < 0 || id < best {
				leader, best = u, id
			}
		}
		sort.Ints(cs)
		child := &epochState{
			id:         pi.nextEpoch,
			kind:       epCluster,
			parent:     es,
			root:       r,
			leader:     leader,
			attach:     cs,      // candidate set doubles as the claim's node set
			attachInfo: candIDs, // payload for the supervisor's msgBatchLead
		}
		pi.nextEpoch++
		es.clusters = append(es.clusters, child)
	}
	es.clustersLeft = len(es.clusters)
}
