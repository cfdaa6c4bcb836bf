package scenario

import "repro/internal/graph"

// ConnTracker answers "has the network stayed connected through every
// event so far?" without paying a full O(n+m) sweep per event.
//
// The soundness argument is local: suppose the graph was connected
// before a deletion (single or batch) of the node set D. Every original
// path that crossed D enters and leaves D through its surviving boundary
// B = N(D) \ D, so the post-deletion graph is connected if and only if
// all of B lies in one component of it (when B is empty, D was the whole
// graph and the empty remainder is trivially connected). The tracker
// therefore checks only the mutual reachability of B.
//
// It does so with one search per distinct boundary witness, grown in
// turn one expanded node each. A node belongs to the search that first
// claimed it; when a search reaches a node another search owns, the two
// are connected and merge into one (union-find over the searches). The
// check passes as soon as one search is left. If a search runs out of
// nodes to expand while others remain, everything it claimed is closed
// under adjacency — a whole component that misses some witness — so the
// graph is split. Since turns are equal, a split costs at most the
// smaller side's size in expansions per search, and a connected check
// ends when the searches meet: a self-healer reconnects B with edges
// among B itself, so they meet within the wound's neighborhood. A
// single search from one witness is not local: in a scale-free graph,
// reaching a witness a few hops away sweeps a ball that holds most of
// the graph.
//
// For long schedules with very many deletions, even a local search per
// event adds up, so the tracker supports a check cadence: witnesses
// accumulate and one search verifies a whole window of events. Deferral
// is still sound for the latched "always connected" verdict — any path
// in the window-start graph reroutes around each dead node via that
// node's own deletion-time boundary, and a boundary member that itself
// died later contributes its own boundary, recursing to strictly later
// deletions until an alive witness is reached; so if every alive
// witness of the window sits in one component at flush time, the whole
// graph does. What deferral gives up is granularity: a transient
// partition healed within the window is not observed, and FirstBreak
// reports the flush event, not the breaking one. Cadence 1 checks every
// event and has neither caveat.
//
// Insertions keep connectivity whenever the newcomer attaches to at
// least one alive node; they are checked immediately (no search needed).
//
// Once a disconnection is observed the tracker latches: like
// sim.Trial.AlwaysConnected, it reports whether the network has remained
// connected at every (observed) step, so later re-merges do not reset
// it, and no further search work is done.
type ConnTracker struct {
	ok         bool
	firstBreak int // event index of the first observed disconnection, -1
	every      int // check cadence; <= 1 checks at every observation

	pending    []int32 // accumulated boundary witnesses (may repeat, may die)
	sinceCheck int

	// Epoch-stamped scratch: seen[v]==epoch means some search claimed v
	// this check, and owner[v] is then the slot of the search that
	// claimed it (resolve through searches[].parent). Stamps make
	// per-check resets O(1) instead of O(n).
	epoch int32
	seen  []int32
	owner []int32

	// One search slot per distinct alive witness of the current check;
	// slots and their queues are reused across checks.
	searches []connSearch
	turns    []int32 // slots still searching, in round-robin order

	visited int // nodes claimed over all checks; read by tests and benchmarks
}

// connSearch is one witness's search within a check.
type connSearch struct {
	parent int32 // union-find link; parent == own slot while the search is live
	head   int   // queue[head:] is claimed but not yet expanded
	queue  []int32
}

// NewConnTracker starts tracking g, paying one full connectivity check
// to anchor the induction. every is the check cadence: 1 (or less)
// verifies after every deletion event, k > 1 batches witnesses and
// verifies every k-th observation (and on Flush).
func NewConnTracker(g *graph.Graph, every int) *ConnTracker {
	return &ConnTracker{ok: g.Connected(), firstBreak: -1, every: every}
}

// StillConnected reports whether the graph has stayed connected through
// every event observed so far. Call Flush first if deferred witnesses
// may be pending.
func (t *ConnTracker) StillConnected() bool { return t.ok }

// FirstBreak returns the event index passed to the observation (or
// flush) that first found the graph disconnected, or -1.
func (t *ConnTracker) FirstBreak() int { return t.firstBreak }

// grow resizes the scratch to the graph's current slot count.
func (t *ConnTracker) grow(n int) {
	for len(t.seen) < n {
		t.seen = append(t.seen, 0)
		t.owner = append(t.owner, 0)
	}
}

// AfterDelete observes a healed single deletion: survivors is the dead
// node's surviving G neighborhood (the Deletion snapshot's GNbrs).
func (t *ConnTracker) AfterDelete(g *graph.Graph, survivors []int, event int) {
	t.observe(g, survivors, event)
}

// AfterBatch observes a healed batch kill: boundary is the union of the
// dead set's surviving G neighbors.
func (t *ConnTracker) AfterBatch(g *graph.Graph, boundary []int, event int) {
	t.observe(g, boundary, event)
}

// AfterJoin observes an insertion that attached the newcomer with the
// given number of edges.
func (t *ConnTracker) AfterJoin(g *graph.Graph, attached, event int) {
	if !t.ok {
		return
	}
	if attached == 0 && g.NumAlive() > 1 {
		t.ok = false
		t.firstBreak = event
	}
}

func (t *ConnTracker) observe(g *graph.Graph, witnesses []int, event int) {
	if !t.ok {
		return
	}
	for _, w := range witnesses {
		t.pending = append(t.pending, int32(w))
	}
	t.sinceCheck++
	if t.every <= 1 || t.sinceCheck >= t.every {
		t.Flush(g, event)
	}
}

// Flush verifies all pending witnesses now (one multi-source search) and
// clears the backlog. The runner calls it at trial end; callers using a
// cadence > 1 get it automatically every cadence-th observation.
func (t *ConnTracker) Flush(g *graph.Graph, event int) {
	if !t.ok || len(t.pending) == 0 {
		t.pending = t.pending[:0]
		t.sinceCheck = 0
		return
	}
	t.grow(g.N())
	t.epoch++
	t.turns = t.turns[:0]
	for _, w := range t.pending {
		// Witnesses that died later in the window contributed their own
		// deletion-time boundary to pending; skipping them is what the
		// rerouting argument above licenses.
		if !g.Alive(int(w)) || t.seen[w] == t.epoch {
			continue
		}
		s := int32(len(t.turns))
		if int(s) == len(t.searches) {
			t.searches = append(t.searches, connSearch{})
		}
		t.searches[s] = connSearch{parent: s, queue: append(t.searches[s].queue[:0], w)}
		t.seen[w] = t.epoch
		t.owner[w] = s
		t.turns = append(t.turns, s)
	}
	t.pending = t.pending[:0]
	t.sinceCheck = 0
	t.visited += len(t.turns)
	if len(t.turns) > 1 && t.split(g) {
		t.ok = false
		t.firstBreak = event
	}
}

// split runs this check's searches in round-robin turns, one expanded
// node each, until one is left (false) or one runs out of nodes to
// expand while others remain (true).
func (t *ConnTracker) split(g *graph.Graph) bool {
	left := len(t.turns)
	for {
		next := 0
		for _, slot := range t.turns {
			if t.searches[slot].parent != slot {
				continue // absorbed since its last turn
			}
			cur := &t.searches[slot]
			if cur.head == len(cur.queue) {
				return true
			}
			x := cur.queue[cur.head]
			cur.head++
			s := slot
			for _, u := range g.Neighbors(int(x)) {
				if t.seen[u] != t.epoch {
					t.seen[u] = t.epoch
					t.owner[u] = s
					t.searches[s].queue = append(t.searches[s].queue, u)
					t.visited++
				} else if r := t.find(t.owner[u]); r != s {
					// x's remaining neighbors feed the survivor.
					s = t.merge(s, r)
					if left--; left == 1 {
						return false
					}
				}
			}
			if t.searches[slot].parent == slot {
				t.turns[next] = slot
				next++
			}
		}
		t.turns = t.turns[:next]
	}
}

// find returns the live search that slot s has been merged into.
func (t *ConnTracker) find(s int32) int32 {
	for p := t.searches[s].parent; p != s; p = t.searches[s].parent {
		t.searches[s].parent = t.searches[p].parent // path splitting
		s = p
	}
	return s
}

// merge joins live searches a and b: the one with fewer nodes left to
// expand hands them to the other, which survives and is returned.
func (t *ConnTracker) merge(a, b int32) int32 {
	sa, sb := &t.searches[a], &t.searches[b]
	if len(sa.queue)-sa.head > len(sb.queue)-sb.head {
		a, b, sa, sb = b, a, sb, sa
	}
	sb.queue = append(sb.queue, sa.queue[sa.head:]...)
	sa.head = len(sa.queue)
	sa.parent = b
	return b
}
