package dist

// Sim is the deterministic single-threaded harness behind the model
// checker (internal/dist/modelcheck): the same Network, nodes, message
// handlers, and epoch pipeline as the concurrent runtime — assemble()d
// without goroutines — with the test in control of which queued message
// is delivered next.
//
// The unit of scheduling is a channel (receiver, sender): the transport
// guarantees per-sender FIFO into each mailbox, so the only freedom a
// real execution has is how the channels interleave at each receiver.
// Enabled() lists every non-empty channel; Deliver() hands the
// channel's oldest message to the receiver's handler on the calling
// goroutine, then ticks the quiescence tracker — which pumps the epoch
// pipeline inline, so supervisor stage transitions happen synchronously
// and deterministically. Every schedule the enumerator produces this
// way is one the concurrent scheduler could legally produce, and
// together they are all of them.
//
// Fingerprint() hashes the complete behavior-relevant state — node
// protocol state, per-channel mailbox contents, tracker counters, and
// the pipeline's scheduling state — so an enumerator can prune
// schedules that reach a state it has already explored. Two delivery
// prefixes that commute reach the identical state and collapse into
// one subtree, which is what makes exhaustive enumeration of small
// configurations tractable (a partial-order reduction keyed on state
// identity rather than on a static independence relation). Traffic
// counters (per-node and per-kind totals) are deliberately excluded:
// they never feed back into protocol behavior, and excluding them
// merges schedules that differ only in accounting.

import (
	"fmt"
	"hash/fnv"
	"io"
	"sort"

	"repro/internal/graph"
)

// Sim drives an unstarted network deterministically.
type Sim struct {
	nw *Network
	// gone marks nodes whose handler returned true — in the goroutine
	// runtime their loop has returned, so messages queued at them can
	// never be consumed. Enabled stops scheduling their mailboxes;
	// anything still queued there is a wedge the terminal check reports,
	// exactly as a Drain timeout would in the concurrent runtime.
	gone map[int]bool
}

// SimEvent names one deliverable event: the oldest undelivered message
// on the (To, From) channel. From is srcSupervisor for supervisor
// traffic.
type SimEvent struct {
	To, From int
}

func (ev SimEvent) String() string {
	return fmt.Sprintf("%d<-%d", ev.To, ev.From)
}

// NewSim builds a simulated network over g (no goroutines are started).
func NewSim(g *graph.Graph, ids []uint64, kind HealerKind) *Sim {
	return &Sim{nw: assemble(g, ids, kind), gone: make(map[int]bool)}
}

// Network exposes the underlying network (snapshots, flood stats, and
// the async operation API all live there).
func (s *Sim) Network() *Network { return s.nw }

// Enabled returns every deliverable event, sorted by (To, From). The
// order is deterministic across replays of the same delivery prefix,
// which is what lets an enumerator identify a branch by its index.
func (s *Sim) Enabled() []SimEvent {
	var evs []SimEvent
	for to, nd := range s.nw.nodeSlice() {
		if nd == nil || s.gone[to] {
			continue
		}
		seen := make(map[int]struct{})
		for _, m := range nd.inbox.peekAll() {
			if _, dup := seen[m.from]; !dup {
				seen[m.from] = struct{}{}
				evs = append(evs, SimEvent{To: to, From: m.from})
			}
		}
	}
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].To != evs[j].To {
			return evs[i].To < evs[j].To
		}
		return evs[i].From < evs[j].From
	})
	return evs
}

// Deliver handles the oldest queued message on ev's channel, then ticks
// the tracker — running any resulting epoch-pipeline transitions (stage
// advances, newly unblocked epoch launches) synchronously before
// returning. It panics when the channel is empty.
func (s *Sim) Deliver(ev SimEvent) {
	nd := s.nw.node(ev.To)
	idx := -1
	for i, m := range nd.inbox.peekAll() {
		if m.from == ev.From {
			idx = i
			break
		}
	}
	if idx < 0 {
		panic(fmt.Sprintf("dist: no queued message on channel %v", ev))
	}
	msg := nd.inbox.takeAt(idx)
	if nd.handle(msg) {
		s.gone[ev.To] = true
	}
	s.nw.track.done(msg.epoch)
}

// Quiet reports whether no message is in flight anywhere.
func (s *Sim) Quiet() bool { return s.nw.track.pending() == 0 }

// Fingerprint hashes the complete behavior-relevant state into 16
// bytes (FNV-128a over a canonical serialization).
func (s *Sim) Fingerprint() [16]byte {
	h := fnv.New128a()
	s.writeState(h)
	var fp [16]byte
	copy(fp[:], h.Sum(nil))
	return fp
}

// ---- canonical serialization ----

func sortedKeys[V any](m map[int]V) []int {
	ks := make([]int, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	return ks
}

func writeIDMap(w io.Writer, tag string, m map[int]uint64) {
	fmt.Fprintf(w, "%s{", tag)
	for _, k := range sortedKeys(m) {
		fmt.Fprintf(w, "%d:%d,", k, m[k])
	}
	fmt.Fprint(w, "}")
}

func writeMessage(w io.Writer, m message) {
	fmt.Fprintf(w, "m(%d f%d e%d v%d p%d/%d/%d l%d lb%d h%d np%d/%d r%d rep(%d,%d,%d,%d,%t)",
		m.kind, m.from, m.epoch, m.victim, m.peer, m.peerInitID, m.peerCurID,
		m.leader, m.label, m.hops, m.nonPeer, m.nonPeerInitID, m.root,
		m.report.from, m.report.initID, m.report.curID, m.report.delta, m.report.wasGpNbr)
	if m.nonNbrs != nil {
		writeIDMap(w, "nn", m.nonNbrs)
	}
	if m.batch != nil {
		fmt.Fprint(w, "b{")
		bs := make([]int, 0, len(m.batch))
		for v := range m.batch {
			bs = append(bs, v)
		}
		sort.Ints(bs)
		for _, v := range bs {
			fmt.Fprintf(w, "%d,", v)
		}
		fmt.Fprint(w, "}")
	}
	fmt.Fprint(w, ")")
}

func writeGraph(w io.Writer, tag string, g *graph.Graph) {
	fmt.Fprintf(w, "%s[", tag)
	for v := 0; v < g.N(); v++ {
		if !g.Alive(v) {
			fmt.Fprintf(w, "!%d,", v)
			continue
		}
		nbrs := g.AppendNeighbors(nil, v)
		sort.Ints(nbrs)
		for _, u := range nbrs {
			if u > v {
				fmt.Fprintf(w, "%d-%d,", v, u)
			}
		}
	}
	fmt.Fprint(w, "]")
}

func (nd *node) writeState(w io.Writer) {
	fmt.Fprintf(w, "n%d(id%d cur%d deg%d fr%d fh%d dy%t z%t cr%t br%d pr%d pb%d ",
		nd.id, nd.initID, nd.curID, nd.initDeg, nd.floodRound, nd.floodHops,
		nd.dying, nd.zombie, nd.crashed.Load(), nd.batchRoot, nd.probeRoot, nd.probeBest)
	if len(nd.abortedEpochs) > 0 {
		fmt.Fprintf(w, "ab%v ", sortedKeysU64(nd.abortedEpochs))
	}
	for _, victim := range sortedKeys(nd.roundWires) {
		fmt.Fprintf(w, "rw%d[", victim)
		for _, rec := range nd.roundWires[victim] {
			fmt.Fprintf(w, "(%d,%t,%t)", rec.peer, rec.addedG, rec.addedGp)
		}
		fmt.Fprint(w, "]")
	}
	for _, u := range sortedKeys(nd.gNbrs) {
		info := nd.gNbrs[u]
		fmt.Fprintf(w, "g%d(%d,%d", u, info.initID, info.curID)
		if info.nbrs != nil {
			writeIDMap(w, "v", info.nbrs)
		}
		fmt.Fprint(w, ")")
	}
	for _, u := range sortedKeys(nd.gpNbrs) {
		fmt.Fprintf(w, "p%d,", u)
	}
	for _, u := range sortedKeys(nd.pendingHello) {
		writeIDMap(w, fmt.Sprintf("ph%d", u), nd.pendingHello[u])
	}
	if nd.batchSet != nil {
		bs := sortedKeys(nd.batchSet)
		fmt.Fprintf(w, "bs%v", bs)
	}
	if nd.batchCand != nil {
		writeIDMap(w, "bc", nd.batchCand)
	}
	for _, victim := range sortedKeys(nd.heals) {
		hs := nd.heals[victim]
		fmt.Fprintf(w, "heal%d(vc%d ack%d w%t b%t ", victim, hs.victimCurID, hs.acksLeft, hs.wired, hs.batch)
		if hs.expect != nil {
			fmt.Fprintf(w, "ex%v", sortedKeys(hs.expect))
		}
		for _, from := range sortedKeys(hs.reports) {
			r := hs.reports[from]
			fmt.Fprintf(w, "r(%d,%d,%d,%d,%t)", r.from, r.initID, r.curID, r.delta, r.wasGpNbr)
		}
		for _, r := range hs.rt {
			fmt.Fprintf(w, "rt(%d,%d,%d,%d,%t)", r.from, r.initID, r.curID, r.delta, r.wasGpNbr)
		}
		if hs.cands != nil {
			writeIDMap(w, "c", hs.cands)
		}
		if hs.compMin != nil {
			writeIDMap(w, "cm", hs.compMin)
		}
		fmt.Fprint(w, ")")
	}
	// Mailbox as channels: per sender in FIFO order. The cross-sender
	// arrival order in the backing queue is scheduling noise (handlers
	// iterate maps when broadcasting), so it must not enter the hash.
	bySender := make(map[int][]message)
	for _, m := range nd.inbox.peekAll() {
		bySender[m.from] = append(bySender[m.from], m)
	}
	for _, from := range sortedKeys(bySender) {
		fmt.Fprintf(w, "ch%d[", from)
		for _, m := range bySender[from] {
			writeMessage(w, m)
		}
		fmt.Fprint(w, "]")
	}
	fmt.Fprint(w, ")")
}

func (pi *pipeline) writeState(w io.Writer) {
	pi.mu.Lock()
	defer pi.mu.Unlock()
	fmt.Fprintf(w, "pi(next%d serial%t rec%t order%v q[", pi.nextEpoch, pi.serial, pi.recovering, pi.order)
	for _, es := range pi.queue {
		fmt.Fprintf(w, "%d,", es.id)
	}
	fmt.Fprint(w, "] ")
	for _, v := range sortedKeys(pi.pendingVictim) {
		fmt.Fprintf(w, "pv%d:%d,", v, pi.pendingVictim[v])
	}
	if len(pi.crashed) > 0 {
		fmt.Fprintf(w, "cr%v ", sortedKeys(pi.crashed))
	}
	for _, ent := range pi.effLog {
		op := ent.op
		fmt.Fprintf(w, "ef(%d k%d v%d b%v id%d at%v in%d)",
			ent.epoch, op.Kind, op.Victim, op.Batch, op.NewID, op.Attach, op.InitID)
	}
	ids := make([]uint64, 0, len(pi.epochs))
	for id := range pi.epochs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		es := pi.epochs[id]
		fmt.Fprintf(w, "e%d(%d %q l%t c%t ab%t ff%t v%d new%d at%v b%v root%d ld%d u%t ",
			id, es.kind, es.stage, es.launched, es.completed, es.aborted,
			es.floodStarted, es.victim, es.newID, es.attach, es.batch,
			es.root, es.leader, es.universal)
		if c := es.claim; c != nil {
			fmt.Fprintf(w, "cn%v cw%v cr%v ", c.nodes, c.writes, c.reads)
		}
		fmt.Fprintf(w, "cl%d nc%d)", es.clustersLeft, es.nextCluster)
	}
	writeGraph(w, "mg", pi.mirG)
	fmt.Fprintf(w, "lab%v", pi.lab)
	pi.attachMu.Lock()
	recEpochs := make([]uint64, 0, len(pi.attachRec))
	for e := range pi.attachRec {
		recEpochs = append(recEpochs, e)
	}
	sort.Slice(recEpochs, func(i, j int) bool { return recEpochs[i] < recEpochs[j] })
	for _, e := range recEpochs {
		fmt.Fprintf(w, "ar%d%v", e, pi.attachRec[e])
	}
	pi.attachMu.Unlock()
	fmt.Fprint(w, ")")
}

func (s *Sim) writeState(w io.Writer) {
	nw := s.nw
	nw.mu.Lock()
	fmt.Fprintf(w, "nw(n%d rounds%d fs%d fm%d dead%v ", nw.n, nw.rounds, nw.floodSum, nw.floodMax, nw.dead)
	if len(s.gone) > 0 {
		fmt.Fprintf(w, "gone%v ", sortedKeys(s.gone))
	}
	for _, e := range sortedKeysU64(nw.epochHops) {
		writeFloodRecord(w, e, nw.epochHops[e])
	}
	for _, e := range sortedKeysU64(nw.batchClusters) {
		cs := append([]batchCluster(nil), nw.batchClusters[e]...)
		sort.Slice(cs, func(i, j int) bool { return cs[i].root < cs[j].root })
		fmt.Fprintf(w, "bc%d%v", e, cs)
	}
	nw.mu.Unlock()

	for _, l := range nw.track.epochLoads() {
		fmt.Fprintf(w, "if%d:%d,", l.epoch, l.count)
	}

	nw.pipe.writeState(w)
	for _, nd := range nw.nodeSlice() {
		if nd != nil {
			nd.writeState(w)
		}
	}
	fmt.Fprint(w, ")")
}

func sortedKeysU64[V any](m map[uint64]V) []uint64 {
	ks := make([]uint64, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	return ks
}

func writeFloodRecord(w io.Writer, epoch uint64, rec *floodRecord) {
	fmt.Fprintf(w, "hops%d/%d{", epoch, rec.label)
	for _, v := range sortedKeys(rec.hops) {
		fmt.Fprintf(w, "%d:%d,", v, rec.hops[v])
	}
	fmt.Fprint(w, "}")
}
