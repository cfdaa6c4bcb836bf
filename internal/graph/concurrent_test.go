package graph

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/rng"
)

// ownerStream is one owner's random mutation stream for the
// row-ownership tests below. Owner k of m holds the nodes
// {v : v % m == k}, so neighboring rows and alive bytes belong to
// different owners, and an owner's edges never leave its node set.
type ownerStream struct {
	r    *rng.RNG
	k, m int
}

func newOwnerStream(k, m int) *ownerStream {
	return &ownerStream{r: rng.New(uint64(0xabc + k)), k: k, m: m}
}

// step applies one mutation to owner k's part of g. g.N() must be a
// multiple of the owner count.
func (s *ownerStream) step(g *Graph) {
	per := g.N() / s.m
	u := s.r.Intn(per)*s.m + s.k
	v := s.r.Intn(per)*s.m + s.k
	if u == v || !g.Alive(u) || !g.Alive(v) {
		return
	}
	switch x := s.r.Intn(64); {
	case x == 0:
		// u's neighbors are all owner k's by construction.
		g.RemoveNode(u)
	case x < 16:
		g.RemoveEdge(u, v)
	default:
		g.AddEdge(u, v)
	}
}

// checkCounters demands that g's alive and edge counters equal a
// recount of its rows.
func checkCounters(t *testing.T, g *Graph) {
	t.Helper()
	if g.NumAlive() != len(g.AliveNodes()) || g.NumEdges() != len(g.Edges()) {
		t.Fatalf("counters inexact: alive %d (recount %d), edges %d (recount %d)",
			g.NumAlive(), len(g.AliveNodes()), g.NumEdges(), len(g.Edges()))
	}
}

// TestShardedSequentialDifferential checks the property the sharded
// commit path relies on: mutations by owners of disjoint node sets
// commute. For several owner counts it interleaves the owner streams
// step by step in one goroutine, growing the graph between rounds the
// way joins do, and demands the result equal a replay that runs each
// owner's steps of a round as one block, with exact counters.
func TestShardedSequentialDifferential(t *testing.T) {
	const perOwner = 16
	const rounds = 20
	const stepsPerRound = 40
	for _, owners := range []int{1, 2, 8} {
		interleaved, blocked := New(owners*perOwner), New(owners*perOwner)
		is := make([]*ownerStream, owners)
		bs := make([]*ownerStream, owners)
		for k := range is {
			is[k], bs[k] = newOwnerStream(k, owners), newOwnerStream(k, owners)
		}
		for round := 0; round < rounds; round++ {
			for i := 0; i < stepsPerRound; i++ {
				for _, s := range is {
					s.step(interleaved)
				}
			}
			for _, s := range bs {
				for i := 0; i < stepsPerRound; i++ {
					s.step(blocked)
				}
			}
			// One fresh node per owner keeps N a multiple of owners.
			for k := 0; k < owners; k++ {
				if v, w := interleaved.AddNode(), blocked.AddNode(); v != w {
					t.Fatalf("owners=%d: AddNode diverged: %d vs %d", owners, v, w)
				}
			}
		}
		if !interleaved.Equal(blocked) {
			t.Fatalf("owners=%d: interleaved owner streams diverged from the blocked replay", owners)
		}
		checkCounters(t, interleaved)
		checkCounters(t, blocked)
		if interleaved.NumAlive() == interleaved.N() || interleaved.NumEdges() == 0 {
			t.Fatalf("owners=%d: stream exercised too little: alive %d of %d, edges %d",
				owners, interleaved.NumAlive(), interleaved.N(), interleaved.NumEdges())
		}
	}
}

// TestShardedConcurrentDisjointRegions mutates one plain Graph from
// several goroutines at once, each owning a disjoint node set, which is
// the access pattern internal/core's claims guarantee. The result must
// equal a sequential replay of the same per-owner streams, with exact
// alive and edge counters. Under -race this is the memory-model check
// for the counters: plain int counters fail it.
func TestShardedConcurrentDisjointRegions(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const owners = 4
	const perOwner = 256
	const n = owners * perOwner
	const rounds = 40

	ref := New(n)
	for k := 0; k < owners; k++ {
		s := newOwnerStream(k, owners)
		for i := 0; i < rounds*perOwner; i++ {
			s.step(ref)
		}
	}

	g := New(n)
	var wg sync.WaitGroup
	for k := 0; k < owners; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			s := newOwnerStream(k, owners)
			for i := 0; i < rounds*perOwner; i++ {
				s.step(g)
			}
		}(k)
	}
	wg.Wait()

	if !g.Equal(ref) {
		t.Fatal("concurrent disjoint mutation diverged from the sequential replay")
	}
	checkCounters(t, g)
	if g.NumAlive() == n || g.NumEdges() == 0 {
		t.Fatalf("stream exercised too little: alive %d of %d, edges %d", g.NumAlive(), n, g.NumEdges())
	}
}
