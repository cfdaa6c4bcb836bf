package graph

// MaxDegreeIndex answers MaxDegreeNode-style queries — "which alive node
// has the largest degree, smallest index on ties?" — without the O(n)
// scan, so MaxDegree-style adversaries can drive 10⁵–10⁶-node scenario
// runs where one scan per event would dominate the profile.
//
// Nodes are filed in degree buckets, each a min-heap on node index. The
// index is deliberately lazy about degree *drops* (a deletion's
// neighbors quietly lose edges, and no one tells us): a node may sit
// filed above its true degree and is demoted on discovery when the
// top-down scan reaches it. Degree *rises* must be reported eagerly via
// NoteRise — in the self-healing setting those are exactly the healed-
// edge endpoints and a join's attach targets, which the caller already
// has in hand — because a node filed below its true degree would be
// invisible to the scan. Under that contract every alive node v
// satisfies filed(v) ≥ degree(v), so when the scan finds its first
// exact match all higher buckets are empty and the match is the true
// maximum, with the heap delivering the smallest index among equals:
// bit-identical to the naive MaxDegreeNode scan.
//
// Costs are amortized: every demotion strictly lowers a node's filed
// degree (bounded by total degree decrements), every stale duplicate
// discarded was paid for by one NoteRise, and the top-bucket cursor
// only rises with filed degrees. The structure never mutates the graph
// and tolerates dead nodes silently (they are discarded on discovery).
//
// Ownership contract: the index is single-owner. NoteRise, NoteJoin,
// and Max all mutate the unsynchronized buckets and read live degrees
// from the graph, so exactly one goroutine may call them, and only
// while no other goroutine is mutating the graph. That is why degree-
// aware victim policies are not offered on the sharded commit path.
type MaxDegreeIndex struct {
	g       *Graph
	buckets [][]int32 // buckets[d]: min-heap of node indices filed at degree d
	filed   []int32   // node -> degree it is currently filed under, -1 none
	maxDeg  int       // highest possibly-non-empty bucket
}

// NewMaxDegreeIndex indexes the alive nodes of g at their current
// degrees. The graph is retained for degree/liveness validation; all
// later mutations must be either degree drops (handled lazily) or rises
// reported through NoteRise/NoteJoin.
func NewMaxDegreeIndex(g *Graph) *MaxDegreeIndex {
	ix := &MaxDegreeIndex{g: g, filed: make([]int32, g.N())}
	for i := range ix.filed {
		ix.filed[i] = -1
	}
	for v, n := 0, g.N(); v < n; v++ {
		if g.Alive(v) {
			ix.file(v, g.Degree(v))
		}
	}
	return ix
}

// file pushes v into bucket d and records it as v's filed degree. Any
// entry v left in another bucket becomes a stale duplicate, discarded
// when the scan reaches it.
func (ix *MaxDegreeIndex) file(v, d int) {
	for len(ix.buckets) <= d {
		ix.buckets = append(ix.buckets, nil)
	}
	heapPush(&ix.buckets[d], int32(v))
	ix.filed[v] = int32(d)
	if d > ix.maxDeg {
		ix.maxDeg = d
	}
}

// NoteRise re-files v at its current degree after the caller added an
// edge incident to it. Calling it for a node whose degree did not rise
// (or that is dead) is harmless.
func (ix *MaxDegreeIndex) NoteRise(v int) {
	if v < 0 || !ix.g.Alive(v) {
		return
	}
	if d := ix.g.Degree(v); int32(d) != ix.filed[v] {
		ix.file(v, d)
	}
}

// NoteJoin files a node that did not exist when the index was built.
func (ix *MaxDegreeIndex) NoteJoin(v int) {
	for len(ix.filed) <= v {
		ix.filed = append(ix.filed, -1)
	}
	ix.NoteRise(v)
}

// Max returns the alive node with the largest degree, ties broken by
// smallest index — exactly MaxDegreeNode — or -1 when no alive node is
// filed. The returned node stays filed (callers typically kill it next;
// its entry is then discarded as dead on a later scan).
func (ix *MaxDegreeIndex) Max() int {
	for ix.maxDeg >= 0 {
		if len(ix.buckets) <= ix.maxDeg || len(ix.buckets[ix.maxDeg]) == 0 {
			ix.maxDeg--
			continue
		}
		b := ix.buckets[ix.maxDeg]
		v := int(b[0])
		if !ix.g.Alive(v) {
			heapPop(&ix.buckets[ix.maxDeg])
			if ix.filed[v] == int32(ix.maxDeg) {
				ix.filed[v] = -1
			}
			continue
		}
		if ix.filed[v] != int32(ix.maxDeg) {
			// Stale duplicate left behind by a NoteRise.
			heapPop(&ix.buckets[ix.maxDeg])
			continue
		}
		if d := ix.g.Degree(v); d != ix.maxDeg {
			// Degree dropped since filing; demote and keep scanning.
			heapPop(&ix.buckets[ix.maxDeg])
			ix.file(v, d)
			continue
		}
		return v
	}
	ix.maxDeg = 0
	return -1
}

// heapPush / heapPop implement a plain min-heap on []int32 (by node
// index), open-coded to keep the hot path free of interface calls.
func heapPush(h *[]int32, x int32) {
	*h = append(*h, x)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if s[p] <= s[i] {
			break
		}
		s[p], s[i] = s[i], s[p]
		i = p
	}
}

func heapPop(h *[]int32) int32 {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	*h = s
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < len(s) && s[l] < s[m] {
			m = l
		}
		if r < len(s) && s[r] < s[m] {
			m = r
		}
		if m == i {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	return top
}
