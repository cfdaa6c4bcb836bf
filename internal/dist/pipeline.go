package dist

// The epoch pipeline: the supervisor-side scheduler that replaced the
// global quiescence barrier. Every operation (kill, join, batch kill)
// becomes an epoch with a fresh ID; all of an epoch's messages carry
// that ID (handlers stamp their sends with the epoch of the message
// they are processing), so the per-epoch conservation counters in the
// tracker tell the scheduler exactly when one epoch's current stage has
// drained — without ever requiring the whole network to go quiet.
//
// # Why overlapping epochs stay bit-identical to the sequential engine
//
// The scheduler mirrors G (mirG) and every node's G′ component label
// (lab). Both change only when an epoch completes: mirG from the
// operation itself plus the attach orders the transport recorded for
// the epoch, lab from the adopters of the epoch's MINID flood. When an
// epoch launches, the scheduler computes its claim from the mirror in
// O(deg), walking nothing: a node set, the labels the epoch only
// reads, and the labels it writes.
//
//	claim(kill x)       nodes {x} ∪ N_G(x); reads min lab(N_G(x)); writes the other labels of N_G(x)
//	claim(join A, v)    nodes A ∪ {v};      reads lab(A)
//	claim(batch V)      nodes V ∪ N_G(V);   writes all their labels
//	claim(cluster C)    nodes C;            writes lab(C)   (C: the cluster's healing candidates)
//
// A label stands for every G′ component carrying it. A kill's MINID
// flood travels the merged post-heal component of its reconnection set
// RT, and RT's labels are labels of N_G(x). The flood's minimum is
// therefore at least min lab(N_G(x)), and only components labeled
// strictly above it are rewritten: the minimum's component is read
// (the wave stops at its border) but never written. Every other state
// an epoch touches — adjacency, δ, NoN tables, leader scratch — lives
// at nodes of its node set. A join only reads its targets' labels, but
// it must read them: an adopter's Lemma 8 notifications go to every G
// neighbor, so a flood through a target has to see the join edge
// exactly when the sequential order does. Batch and cluster epochs
// probe whole G′ components, so they hold every label as a write.
//
// Two claims conflict iff they share a node, share a write label, or
// one's write label is the other's read label. So kills that only read
// the giant component's label run together, while a kill that would
// rewrite it waits.
//
// Admission launches queued epochs in issue order. The oldest queued
// epoch computes its claim against the mirror and launches only if the
// claim meets no launched epoch's claim; otherwise it and everything
// behind it wait for the next completion. Because a launched epoch
// changes only the adjacency of its node set and the labels it writes,
// a claim that meets none of the launched claims is computed from the
// mirror exactly as it would be after those epochs completed, and it
// commutes with all of them. Every epoch issued earlier has launched,
// so each epoch observes precisely the state the sequential engine
// reaches at its position in the issue order.
//
// The only messages that land outside a claim are one-hop "ring"
// writes — the Lemma 8 label notifications and NoN gossip to neighbors
// of claimed nodes — and flood messages that die at the border of the
// read component. Ring writes update the recipient's view of the
// *sender*, a claimed node; any epoch that later reads that view (a
// leader reading a dead neighbor's label and neighborhood) claims the
// sender itself. The node-side victim/floodRound stale checks (see
// node.onLabelFlood) remain as the compensation backstop and are what
// the model checker exercises.
//
// Universal epochs conflict with everything: they launch only into an
// empty pipeline and nothing launches beside them. SetSerial makes
// every epoch universal (the old barrier, for baselines), and crash
// recovery epochs are always universal (recovery.go).
//
// Batch epochs stage as before (die → cluster probe → collect → commit
// → stop), but each dead cluster's heal then runs under its own child
// epoch. Clusters are admitted by the same rule, in ascending root
// order — the sequential engine's order — with claims computed on the
// post-deletion mirror at launch, so disjoint clusters heal
// concurrently. The batch's own claim covers every cluster's, so no
// other epoch needs to look at the children.

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/graph"
)

type epochKind uint8

const (
	epKill epochKind = iota
	epJoin
	epBatch
	epCluster // one batch cluster's heal, a child of an epBatch epoch
	epRecover // crash recovery: heals around a crashed node (+ an aborted kill's victim)
)

func (k epochKind) String() string {
	switch k {
	case epKill:
		return "kill"
	case epJoin:
		return "join"
	case epBatch:
		return "batch"
	case epCluster:
		return "cluster-heal"
	case epRecover:
		return "crash-recovery"
	}
	return "unknown"
}

// Epoch is the caller-facing handle for one scheduled operation.
type Epoch struct {
	id   uint64
	desc string
	nw   *Network
	done chan struct{}
}

// ID returns the epoch's network-unique identifier (the value carried
// in the epoch field of all its messages).
func (ep *Epoch) ID() uint64 { return ep.id }

// Done reports whether the epoch has completed.
func (ep *Epoch) Done() bool {
	select {
	case <-ep.done:
		return true
	default:
		return false
	}
}

// Wait blocks until the epoch completes or the timeout elapses. The
// timeout error carries the network's diagnostic dump — per-epoch
// in-flight counters, epoch stages, and mailbox backlogs.
func (ep *Epoch) Wait(timeout time.Duration) error {
	return ep.waitDeadline(time.Now().Add(timeout))
}

func (ep *Epoch) waitDeadline(deadline time.Time) error {
	select {
	case <-ep.done:
		return nil
	default:
	}
	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	select {
	case <-ep.done:
		return nil
	case <-timer.C:
		return ep.nw.stallError(ep.id, ep.desc, 0)
	}
}

// epochState is the scheduler's record of one epoch.
type epochState struct {
	id     uint64
	kind   epochKind
	stage  string // current stage, for diagnostics and dispatch
	handle *Epoch

	// Conflict scheduling. claim is computed at launch (nil before, and
	// always nil for a universal epoch).
	claim     *claim
	universal bool
	launched  bool
	completed bool

	// Crash recovery (recovery.go). aborted marks a kill epoch torn by a
	// mid-epoch crash: when its in-flight traffic drains it abort-
	// finishes (cleanup, no heal) instead of completing. floodStarted is
	// set — under pi.mu, before the first flood message is sent — once
	// the epoch's MINID wave has begun, the point of no return past
	// which the crash machinery must defer rather than abort. adopts
	// are the handles of aborted epochs a recovery epoch completes on
	// behalf of (a Kill blocked on an aborted epoch returns when the
	// recovery that subsumed it finishes).
	aborted      bool
	floodStarted bool
	adopts       []*Epoch

	// Kill payload.
	victim int

	// Join payload.
	newID      int
	joinInitID uint64
	attach     []int
	attachInfo map[int]uint64
	joinNode   *node

	// Batch payload. nextCluster indexes the first cluster not yet
	// launched.
	batch        []int
	batchSet     map[int]struct{}
	clusters     []*epochState // epCluster children, ascending root order
	clustersLeft int
	nextCluster  int

	// Cluster-child payload.
	parent *epochState
	root   int
	leader int
}

// claim is an epoch's conflict footprint (see the package comment):
// the nodes it touches and the G′ component labels it only reads or
// also writes. Each slice is sorted and duplicate-free.
type claim struct {
	nodes  []int
	writes []uint64
	reads  []uint64
}

// meets reports whether two claims conflict: they share a node, share
// a write label, or one writes a label the other reads.
func (c *claim) meets(o *claim) bool {
	return overlap(c.nodes, o.nodes) || overlap(c.writes, o.writes) ||
		overlap(c.writes, o.reads) || overlap(c.reads, o.writes)
}

// touches reports whether node v, whose mirror label is l, lies inside
// the claim: claimed itself, or in a component the claim reads or
// writes.
func (c *claim) touches(v int, l uint64) bool {
	_, in := slices.BinarySearch(c.nodes, v)
	if !in {
		_, in = slices.BinarySearch(c.writes, l)
	}
	if !in {
		_, in = slices.BinarySearch(c.reads, l)
	}
	return in
}

func (c *claim) String() string {
	return fmt.Sprintf("claim %d nodes, %d write labels, %d read labels",
		len(c.nodes), len(c.writes), len(c.reads))
}

// overlap reports whether two sorted slices share an element.
func overlap[T cmp.Ordered](a, b []T) bool {
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			return true
		}
	}
	return false
}

// sortedSet sorts xs in place and drops duplicates.
func sortedSet[T cmp.Ordered](xs []T) []T {
	slices.Sort(xs)
	return slices.Compact(xs)
}

// pipeline is the epoch scheduler.
type pipeline struct {
	mu sync.Mutex
	nw *Network

	serial bool // every epoch universal: the old barrier, for baselines

	nextEpoch uint64
	epochs    map[uint64]*epochState // incomplete epochs (incl. cluster children)
	order     []uint64               // incomplete top-level epochs, issue order
	queue     []*epochState          // unlaunched top-level epochs, launch order

	// pendingVictim maps a node to the incomplete epoch that will kill
	// it, so double-kills and joins to doomed nodes panic at issue time
	// exactly as they would against the sequential engine's state.
	pendingVictim map[int]uint64

	// mirG mirrors G and lab every node's G′ component label as of the
	// completed epochs: the state the sequential engine reaches by
	// applying exactly those operations in issue order.
	mirG *graph.Graph
	lab  []uint64

	// releases holds supervisor counter holds to drop once the current
	// caller leaves the lock; flushing marks a flush loop in progress.
	releases []uint64
	flushing bool

	// effLog is the effective-operation log: the sequence of operations
	// that actually mutated the network, in oracle order. Issue paths
	// append; a crash expunges the aborted kill's entry and appends the
	// recovery batch (see recovery.go for why appending is sound).
	// crashed marks nodes fail-stopped by the chaos transport;
	// recovering is true while a recovery epoch is incomplete (at most
	// one recovery is ever in flight).
	effLog     []effEntry
	crashed    map[int]bool
	recovering bool

	attachMu  sync.Mutex
	attachRec map[uint64][][2]int // per-epoch attach edges seen by transport
}

// newPipeline starts the mirror at g with every label equal to the
// node's initial ID, as core.NewState does.
func newPipeline(nw *Network, g *graph.Graph, ids []uint64) *pipeline {
	return &pipeline{
		nw:            nw,
		nextEpoch:     1, // epoch 0 is the untracked-traffic sentinel
		epochs:        make(map[uint64]*epochState),
		pendingVictim: make(map[int]uint64),
		mirG:          g.Clone(),
		lab:           append([]uint64(nil), ids...),
		attachRec:     make(map[uint64][][2]int),
		crashed:       make(map[int]bool),
	}
}

// labels returns a copy of the label mirror.
func (pi *pipeline) labels() []uint64 {
	pi.mu.Lock()
	defer pi.mu.Unlock()
	return append([]uint64(nil), pi.lab...)
}

// recordAttach notes a healing edge ordered under an epoch; replayed
// into the mirror when the epoch completes. Called from node goroutines
// via the transport, so it uses its own small lock.
func (pi *pipeline) recordAttach(epoch uint64, a, b int) {
	if epoch == 0 {
		return // raw test traffic; nothing schedules against it
	}
	pi.attachMu.Lock()
	pi.attachRec[epoch] = append(pi.attachRec[epoch], [2]int{a, b})
	pi.attachMu.Unlock()
}

// takeAttach removes and returns an epoch's recorded healing edges.
func (pi *pipeline) takeAttach(epoch uint64) [][2]int {
	pi.attachMu.Lock()
	rec := pi.attachRec[epoch]
	delete(pi.attachRec, epoch)
	pi.attachMu.Unlock()
	return rec
}

// ---- claims (pi.mu held) ----

// killClaim is {x} ∪ N_G(x), reading the least label of N_G(x) and
// writing the others.
func (pi *pipeline) killClaim(x int) *claim {
	nodes := pi.mirG.AppendNeighbors(make([]int, 0, pi.mirG.Degree(x)+1), x)
	labels := make([]uint64, len(nodes))
	for i, u := range nodes {
		labels[i] = pi.lab[u]
	}
	labels = sortedSet(labels)
	c := &claim{nodes: sortedSet(append(nodes, x))}
	if len(labels) > 0 {
		c.reads, c.writes = labels[:1], labels[1:]
	}
	return c
}

// writeClaim claims nodes (reordered in place) and writes all of their
// labels.
func (pi *pipeline) writeClaim(nodes []int) *claim {
	nodes = sortedSet(nodes)
	labels := make([]uint64, len(nodes))
	for i, u := range nodes {
		labels[i] = pi.lab[u]
	}
	return &claim{nodes: nodes, writes: sortedSet(labels)}
}

// closedNbhd returns vs ∪ N_G(vs) on the mirror, unsorted.
func (pi *pipeline) closedNbhd(vs []int) []int {
	out := append([]int(nil), vs...)
	for _, v := range vs {
		out = pi.mirG.AppendNeighbors(out, v)
	}
	return out
}

// claimOf computes es's claim against the current mirror. Universal
// epochs have none.
func (pi *pipeline) claimOf(es *epochState) *claim {
	switch es.kind {
	case epKill:
		return pi.killClaim(es.victim)
	case epJoin:
		labels := make([]uint64, len(es.attach))
		for i, u := range es.attach {
			labels[i] = pi.lab[u]
		}
		return &claim{
			nodes: sortedSet(append([]int{es.newID}, es.attach...)),
			reads: sortedSet(labels),
		}
	case epBatch:
		return pi.writeClaim(pi.closedNbhd(es.batch))
	case epCluster:
		return pi.writeClaim(append([]int(nil), es.attach...))
	}
	return nil
}

// blocked reports whether es (with claim c, nil when universal) must
// wait for a launched top-level epoch.
func (pi *pipeline) blocked(es *epochState, c *claim) bool {
	for _, id := range pi.order {
		o := pi.epochs[id]
		if o.launched && (es.universal || o.universal || o.claim.meets(c)) {
			return true
		}
	}
	return false
}

// admit launches queued epochs in launch order for as long as the head
// of the queue is not blocked. Caller must flush() after unlocking.
func (pi *pipeline) admit() {
	for len(pi.queue) > 0 {
		es := pi.queue[0]
		var c *claim
		if !es.universal {
			c = pi.claimOf(es)
		}
		if pi.blocked(es, c) {
			return
		}
		es.claim = c
		pi.queue[0] = nil
		pi.queue = pi.queue[1:]
		pi.launch(es)
	}
}

// enqueue registers a new top-level epoch at the tail of the issue
// order and admits what it can. Caller must flush() after unlocking.
func (pi *pipeline) enqueue(es *epochState) {
	es.universal = pi.serial
	pi.epochs[es.id] = es
	pi.order = append(pi.order, es.id)
	pi.queue = append(pi.queue, es)
	pi.admit()
}

// ---- supervisor counter holds ----

// stageSend performs a stage's supervisor sends while holding an extra
// count on the epoch's conservation counter, so the counter cannot hit
// zero (and re-enter the scheduler) until the hold is released by
// flush() — after the caller has left pi.mu. This also makes stages
// with zero sends (an empty join) complete through the normal path.
func (pi *pipeline) stageSend(es *epochState, send func()) {
	pi.nw.track.add(es.id, 1)
	send()
	pi.releases = append(pi.releases, es.id)
}

// flush drops queued supervisor holds outside pi.mu. Dropping a hold
// can synchronously re-enter onEpochZero and queue further holds; the
// outermost flush drains them all, and nested calls return immediately.
func (pi *pipeline) flush() {
	pi.mu.Lock()
	if pi.flushing {
		pi.mu.Unlock()
		return
	}
	pi.flushing = true
	for len(pi.releases) > 0 {
		id := pi.releases[0]
		pi.releases = pi.releases[1:]
		pi.mu.Unlock()
		pi.nw.track.done(id)
		pi.mu.Lock()
	}
	pi.flushing = false
	pi.mu.Unlock()
}

// ---- issue paths ----

func (pi *pipeline) issueKill(v int) *Epoch {
	ep := pi.tryIssueKill(v)
	if ep == nil {
		panic(fmt.Sprintf("dist: killing dead node %d", v))
	}
	return ep
}

// tryIssueKill is issueKill returning nil instead of panicking on an
// invalid victim; validity and issue are atomic under pi.mu so chaos
// crashes cannot invalidate the check mid-issue.
func (pi *pipeline) tryIssueKill(v int) *Epoch {
	pi.mu.Lock()
	pi.nw.mu.Lock()
	bad := v < 0 || v >= pi.nw.n || pi.nw.dead[v]
	pi.nw.mu.Unlock()
	if _, doomed := pi.pendingVictim[v]; bad || doomed || pi.crashed[v] {
		pi.mu.Unlock()
		return nil
	}
	es := &epochState{
		id:     pi.nextEpoch,
		kind:   epKill,
		victim: v,
	}
	pi.nextEpoch++
	es.handle = &Epoch{id: es.id, desc: fmt.Sprintf("kill %d", v), nw: pi.nw, done: make(chan struct{})}
	pi.pendingVictim[v] = es.id
	pi.effLog = append(pi.effLog, effEntry{epoch: es.id, op: EffectiveOp{Kind: EffKill, Victim: v}})
	pi.enqueue(es)
	pi.mu.Unlock()
	pi.flush()
	return es.handle
}

func (pi *pipeline) issueJoin(attachTo []int, id uint64) (int, *Epoch) {
	v, ep := pi.tryIssueJoin(attachTo, id)
	if ep == nil {
		panic("dist: joining to dead node")
	}
	return v, ep
}

// tryIssueJoin is issueJoin returning (-1, nil) instead of panicking on
// a dead, crashed, or doomed attach target (atomic with the issue, see
// tryIssueKill).
func (pi *pipeline) tryIssueJoin(attachTo []int, id uint64) (int, *Epoch) {
	// Dedupe while preserving order (core.Join tolerates duplicates
	// too: the second AddEdge is a no-op).
	attach := make([]int, 0, len(attachTo))
	for _, u := range attachTo {
		dup := false
		for _, w := range attach {
			dup = dup || w == u
		}
		if !dup {
			attach = append(attach, u)
		}
	}

	pi.mu.Lock()
	nw := pi.nw
	nw.mu.Lock()
	for _, u := range attach {
		_, doomed := pi.pendingVictim[u]
		if u < 0 || u >= nw.n || nw.dead[u] || doomed || pi.crashed[u] {
			nw.mu.Unlock()
			pi.mu.Unlock()
			return -1, nil
		}
	}
	// Allocate the slot at issue time so indices follow issue order —
	// the sequential engine's AddNode order — even while earlier epochs
	// are still draining.
	v := nw.n
	nw.n++
	nw.dead = append(nw.dead, false)
	nw.exited = append(nw.exited, false)
	nw.deadStats = append(nw.deadStats, finalStats{})
	nw.initIDs = append(nw.initIDs, id)
	attachInfo := make(map[int]uint64, len(attach))
	nd := &node{
		nw:           nw,
		id:           v,
		initID:       id,
		curID:        id,
		initDeg:      len(attach),
		inbox:        newMailbox(),
		gNbrs:        make(map[int]*nbrInfo, len(attach)),
		gpNbrs:       make(map[int]struct{}),
		pendingHello: make(map[int]map[int]uint64),
		heals:        make(map[int]*healState),
		floodRound:   -1,
		probeRoot:    -1,
	}
	for _, u := range attach {
		attachInfo[u] = nw.initIDs[u]
		// The target's current label and neighborhood arrive with its
		// msgJoinAck; until then only the immutable ID is known.
		nd.gNbrs[u] = &nbrInfo{initID: nw.initIDs[u]}
	}
	nw.appendNode(nd)
	nw.mu.Unlock()

	if got := pi.mirG.AddNode(); got != v {
		panic(fmt.Sprintf("dist: mirror slot %d for node %d", got, v))
	}
	pi.lab = append(pi.lab, id) // a fresh singleton G′ component

	es := &epochState{
		id:         pi.nextEpoch,
		kind:       epJoin,
		newID:      v,
		joinInitID: id,
		attach:     attach,
		attachInfo: attachInfo,
		joinNode:   nd,
	}
	pi.nextEpoch++
	es.handle = &Epoch{id: es.id, desc: fmt.Sprintf("join %d", v), nw: nw, done: make(chan struct{})}
	pi.effLog = append(pi.effLog, effEntry{epoch: es.id, op: EffectiveOp{
		Kind: EffJoin, NewID: v, InitID: id, Attach: append([]int(nil), attach...),
	}})
	pi.enqueue(es)
	pi.mu.Unlock()
	pi.flush()
	return v, es.handle
}

func (pi *pipeline) issueBatch(vs []int) *Epoch {
	set := make(map[int]struct{}, len(vs))
	batch := make([]int, 0, len(vs))

	pi.mu.Lock()
	nw := pi.nw
	nw.mu.Lock()
	for _, v := range vs {
		if _, dup := set[v]; dup {
			continue
		}
		_, doomed := pi.pendingVictim[v]
		if v < 0 || v >= nw.n || nw.dead[v] || doomed {
			nw.mu.Unlock()
			pi.mu.Unlock()
			panic(fmt.Sprintf("dist: batch-killing dead node %d", v))
		}
		set[v] = struct{}{}
		batch = append(batch, v)
	}
	nw.mu.Unlock()
	if len(batch) == 0 {
		// An empty batch is still a round, as in the sequential engine.
		pi.effLog = append(pi.effLog, effEntry{op: EffectiveOp{Kind: EffBatch}})
		pi.mu.Unlock()
		nw.mu.Lock()
		nw.rounds++
		nw.mu.Unlock()
		done := make(chan struct{})
		close(done)
		return &Epoch{desc: "empty batch", nw: nw, done: done}
	}

	es := &epochState{
		id:       pi.nextEpoch,
		kind:     epBatch,
		batch:    batch,
		batchSet: set,
	}
	pi.nextEpoch++
	es.handle = &Epoch{id: es.id, desc: fmt.Sprintf("batch kill of %d nodes", len(batch)), nw: nw, done: make(chan struct{})}
	for _, v := range batch {
		pi.pendingVictim[v] = es.id
	}
	pi.effLog = append(pi.effLog, effEntry{epoch: es.id, op: EffectiveOp{
		Kind: EffBatch, Batch: append([]int(nil), batch...),
	}})
	pi.enqueue(es)
	pi.mu.Unlock()
	pi.flush()
	return es.handle
}

// ---- launch & stage machine (pi.mu held throughout) ----

func (pi *pipeline) launch(es *epochState) {
	es.launched = true
	switch es.kind {
	case epKill:
		es.stage = "heal"
		pi.stageSend(es, func() {
			pi.nw.send(es.victim, message{kind: msgDie, from: srcSupervisor, epoch: es.id})
		})
	case epJoin:
		es.stage = "join"
		if !pi.nw.manual {
			pi.nw.wg.Add(1)
			go es.joinNode.run()
		}
		pi.stageSend(es, func() {
			for _, u := range es.attach {
				pi.nw.send(u, message{
					kind: msgJoinReq, from: es.newID, epoch: es.id,
					nonPeerInitID: es.joinInitID, nonNbrs: es.attachInfo,
				})
			}
		})
	case epBatch:
		// The die stage is separate from the probe stage so that no
		// victim can receive a cluster probe before it has learned the
		// victim set.
		es.stage = "die"
		pi.stageSend(es, func() { pi.broadcastBatch(es, msgBatchDie) })
	case epCluster:
		es.stage = fmt.Sprintf("probe[%d]", es.root)
		pi.stageSend(es, func() {
			pi.nw.send(es.leader, message{kind: msgBatchHealStart, from: srcSupervisor, epoch: es.id, victim: es.root})
		})
	case epRecover:
		pi.launchRecover(es)
	}
}

func (pi *pipeline) broadcastBatch(es *epochState, kind msgKind) {
	for _, v := range es.batch {
		pi.nw.send(v, message{kind: kind, from: srcSupervisor, epoch: es.id, batch: es.batchSet})
	}
}

// onEpochZero is the tracker's callback: the epoch's conservation
// counter hit zero, i.e. its current stage fully drained.
func (pi *pipeline) onEpochZero(epoch uint64) {
	pi.mu.Lock()
	es := pi.epochs[epoch]
	if es == nil || !es.launched || es.completed {
		// Epoch 0 (untracked traffic), an already-completed epoch's
		// stray zero, or a not-yet-launched epoch: nothing to advance.
		pi.mu.Unlock()
		return
	}
	pi.advance(es)
	pi.mu.Unlock()
	pi.flush()
}

func (pi *pipeline) advance(es *epochState) {
	if es.aborted {
		// A kill epoch torn by a crash: its traffic (abort orders and
		// retraction gossip included) has drained; retire it unhealed.
		pi.abortFinish(es)
		return
	}
	switch es.kind {
	case epKill:
		pi.completeKill(es)
	case epJoin:
		pi.completeJoin(es)
	case epBatch:
		pi.advanceBatch(es)
	case epCluster:
		pi.advanceCluster(es)
	case epRecover:
		pi.advanceRecover(es)
	}
}

func (pi *pipeline) completeKill(es *epochState) {
	pi.foldFlood(es.id)
	pi.nw.mu.Lock()
	pi.nw.dead[es.victim] = true
	pi.nw.rounds++
	pi.nw.mu.Unlock()
	pi.mirG.RemoveNode(es.victim)
	pi.applyAttach(es.id)
	pi.finish(es)
}

func (pi *pipeline) completeJoin(es *epochState) {
	for _, u := range es.attach {
		if !pi.mirG.HasEdge(es.newID, u) {
			pi.mirG.AddEdge(es.newID, u)
		}
	}
	pi.finish(es)
}

// foldFlood folds a completed heal's Lemma 9 accounting and gives
// every adopter of its MINID wave the wave's label in the mirror.
func (pi *pipeline) foldFlood(epoch uint64) {
	label, adopters := pi.nw.foldFloodDepth(epoch)
	for v := range adopters {
		pi.lab[v] = label
	}
}

// applyAttach replays an epoch's healing edges into the mirror: each
// attach order whose real edge is absent wires G.
func (pi *pipeline) applyAttach(epoch uint64) {
	for _, e := range pi.takeAttach(epoch) {
		a, b := e[0], e[1]
		if !pi.mirG.Alive(a) || !pi.mirG.Alive(b) {
			continue // an endpoint died in a later-completed epoch
		}
		if !pi.mirG.HasEdge(a, b) {
			pi.mirG.AddEdge(a, b)
		}
	}
}

func (pi *pipeline) advanceBatch(es *epochState) {
	switch es.stage {
	case "die":
		es.stage = "cluster-probe"
		pi.stageSend(es, func() { pi.broadcastBatch(es, msgBatchProbe) })
	case "cluster-probe":
		es.stage = "collect"
		pi.stageSend(es, func() { pi.broadcastBatch(es, msgBatchCollect) })
	case "collect":
		es.stage = "commit"
		pi.stageSend(es, func() { pi.broadcastBatch(es, msgBatchCommit) })
	case "commit":
		// Survivors have processed every tombstone. Mark the victims
		// dead, derive the clusters (which needs the pre-removal
		// mirror), drop the victims from the mirror, and reap zombies.
		pi.prepareClusters(es)
		pi.nw.mu.Lock()
		for _, v := range es.batch {
			pi.nw.dead[v] = true
		}
		pi.nw.mu.Unlock()
		for _, v := range es.batch {
			pi.mirG.RemoveNode(v)
		}
		es.stage = "stop"
		pi.stageSend(es, func() { pi.broadcastBatch(es, msgStop) })
	case "stop":
		pi.scheduleClusters(es)
	}
}

// prepareClusters derives the batch's dead clusters and their healing
// candidates from the pre-removal mirror — the supervisor-side analogue
// of core.ClusterDeletions — and pairs each cluster with the surviving
// leader the protocol elected during the commit stage.
func (pi *pipeline) prepareClusters(es *epochState) {
	// Union-find over victim-victim mirror edges.
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
				parent[b] = a // root = smallest member index
			}
		}
	}
	// Candidates per cluster: surviving mirror neighbors of any member.
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
	// Leaders recorded by the dying roots during commit.
	pi.nw.mu.Lock()
	recorded := pi.nw.batchClusters[es.id]
	delete(pi.nw.batchClusters, es.id)
	pi.nw.lastClusters = recorded
	pi.nw.mu.Unlock()
	leaders := make(map[int]int, len(recorded))
	for _, c := range recorded {
		leaders[c.root] = c.leader
	}

	roots := make([]int, 0, len(cands))
	for r := range cands {
		roots = append(roots, r)
	}
	sort.Ints(roots)
	for _, r := range roots {
		leader, ok := leaders[r]
		if !ok {
			continue // no surviving candidate: nothing to heal
		}
		cs := make([]int, 0, len(cands[r]))
		for u := range cands[r] {
			cs = append(cs, u)
		}
		sort.Ints(cs) // deterministic across runs (map iteration order)
		child := &epochState{
			id:     pi.nextEpoch,
			kind:   epCluster,
			parent: es,
			root:   r,
			leader: leader,
			attach: cs, // candidate set doubles as the claim's node set
		}
		pi.nextEpoch++
		es.clusters = append(es.clusters, child)
	}
	es.clustersLeft = len(es.clusters)
}

// scheduleClusters runs after the zombies are reaped: register the
// clusters and admit them against the post-removal mirror.
func (pi *pipeline) scheduleClusters(es *epochState) {
	if len(es.clusters) == 0 {
		pi.completeBatch(es)
		return
	}
	for _, child := range es.clusters {
		child.handle = es.handle // children report into the parent's handle
		pi.epochs[child.id] = child
	}
	pi.admitClusters(es)
}

// admitClusters launches the parent's clusters in ascending root order
// for as long as the next one's claim meets no launched sibling's —
// admit's rule, one level down. The parent's claim covers every
// cluster's, so no other epoch takes part.
func (pi *pipeline) admitClusters(parent *epochState) {
	for parent.nextCluster < len(parent.clusters) {
		child := parent.clusters[parent.nextCluster]
		c := pi.claimOf(child)
		for _, sib := range parent.clusters[:parent.nextCluster] {
			if !sib.completed && sib.claim.meets(c) {
				return
			}
		}
		child.claim = c
		parent.nextCluster++
		pi.launch(child)
	}
}

func (pi *pipeline) advanceCluster(es *epochState) {
	switch {
	case strings.HasPrefix(es.stage, "probe"):
		es.stage = fmt.Sprintf("wire[%d]", es.root)
		pi.stageSend(es, func() {
			pi.nw.send(es.leader, message{kind: msgBatchHealWire, from: srcSupervisor, epoch: es.id, victim: es.root})
		})
	default: // wire stage drained: the cluster is healed
		// Per-cluster Lemma 9 accounting, mirroring the sequential
		// engine's one PropagateMinID call per cluster.
		pi.foldFlood(es.id)
		pi.applyAttach(es.id)
		es.completed = true
		delete(pi.epochs, es.id)
		pi.nw.track.release(es.id)
		parent := es.parent
		parent.clustersLeft--
		pi.admitClusters(parent)
		if parent.clustersLeft == 0 {
			pi.completeBatch(parent)
		}
	}
}

func (pi *pipeline) completeBatch(es *epochState) {
	// The whole epoch is one round, however many clusters it healed.
	pi.nw.mu.Lock()
	pi.nw.rounds++
	pi.nw.mu.Unlock()
	pi.finish(es)
}

// retire drops a top-level epoch from the scheduler's incomplete set.
func (pi *pipeline) retire(es *epochState) {
	es.completed = true
	delete(pi.epochs, es.id)
	pi.nw.track.release(es.id)
	if i := slices.Index(pi.order, es.id); i >= 0 {
		pi.order = slices.Delete(pi.order, i, i+1)
	}
}

// finish marks a top-level epoch complete, closes its handle, and
// admits whatever its claim was holding back.
func (pi *pipeline) finish(es *epochState) {
	pi.retire(es)
	close(es.handle.done)
	switch es.kind {
	case epKill:
		delete(pi.pendingVictim, es.victim)
	case epBatch:
		for _, v := range es.batch {
			delete(pi.pendingVictim, v)
		}
	case epRecover:
		for _, v := range es.batch {
			delete(pi.pendingVictim, v)
		}
		// Aborted kills whose heal this recovery re-ran: their callers'
		// handles resolve now.
		for _, h := range es.adopts {
			close(h.done)
		}
		pi.recovering = false
	}
	pi.admit()
}

// oldestIncomplete returns the handle of the earliest-issued incomplete
// epoch, or nil when the pipeline is empty (Drain's loop condition).
func (pi *pipeline) oldestIncomplete() *Epoch {
	pi.mu.Lock()
	defer pi.mu.Unlock()
	if len(pi.order) == 0 {
		return nil
	}
	return pi.epochs[pi.order[0]].handle
}

// dumpEpochs renders the scheduler's view of every incomplete epoch for
// DumpState: its kind, stage, and claim, and for a queued epoch its
// place in the launch queue — so a stalled network is attributed to a
// specific epoch rather than an anonymous count.
func (pi *pipeline) dumpEpochs() string {
	pi.mu.Lock()
	defer pi.mu.Unlock()
	if len(pi.epochs) == 0 {
		return "  no incomplete epochs\n"
	}
	ids := make([]uint64, 0, len(pi.epochs))
	for id := range pi.epochs {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	var b strings.Builder
	for _, id := range ids {
		es := pi.epochs[id]
		state, fp := "launched", "universal claim"
		if !es.universal {
			fp = "claim computed at launch"
			if es.claim != nil {
				fp = es.claim.String()
			}
		}
		if !es.launched {
			state = "queued behind its earlier sibling clusters"
			if i := slices.Index(pi.queue, es); i >= 0 {
				state = fmt.Sprintf("queued at launch position %d", i)
			}
		}
		fmt.Fprintf(&b, "  epoch %d: %s stage %q, %s, %s\n", id, es.kind, es.stage, state, fp)
	}
	return b.String()
}
