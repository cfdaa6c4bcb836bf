package dist

import (
	"testing"

	"repro/internal/graph"
)

// claimGraph is the topology behind the claim tests. Killing hub 0
// first merges {1, 2, 9} into one G′ component labeled 10 (node 9's
// initial ID). After that:
//
//	kill 3: N = {1, 5}  labels {10, 50}: reads 10, writes 50
//	kill 4: N = {2, 6}  labels {10, 60}: reads 10, writes 60
//	kill 7: N = {9, 8}  labels {10, 5}:  reads 5,  writes 10
//
// The three node sets are pairwise disjoint, so only labels decide.
func claimGraph() (*graph.Graph, []uint64) {
	g := graph.New(10)
	for _, e := range [][2]int{{0, 1}, {0, 2}, {0, 9}, {3, 1}, {3, 5}, {4, 2}, {4, 6}, {7, 9}, {7, 8}} {
		g.AddEdge(e[0], e[1])
	}
	return g, []uint64{100, 20, 30, 110, 120, 50, 60, 130, 5, 10}
}

// claimSim builds a Sim over claimGraph, kills the hub, and drains, so
// the label 10 component exists before the test issues anything.
func claimSim(t *testing.T, serial bool) *Sim {
	t.Helper()
	g, ids := claimGraph()
	s := NewSim(g, ids, HealDASH)
	s.Network().SetSerial(serial)
	s.Network().KillAsync(0)
	deliverAll(s)
	if got := s.Network().Snapshot().CurID[1]; got != 10 {
		t.Fatalf("setup: node 1 label %d after killing the hub, want 10", got)
	}
	return s
}

// deliverAll drives a Sim to quiescence in FIFO channel order.
func deliverAll(s *Sim) {
	for evs := s.Enabled(); len(evs) > 0; evs = s.Enabled() {
		s.Deliver(evs[0])
	}
}

func launched(nw *Network, ep *Epoch) bool {
	pi := nw.pipe
	pi.mu.Lock()
	defer pi.mu.Unlock()
	es := pi.epochs[ep.ID()]
	return es == nil || es.launched // completed epochs launched long ago
}

// assertSameAsSerial drains s and compares it with the same operations
// run under SetSerial, the one-epoch-at-a-time baseline, including the
// flood accounting and the scheduler's label mirror.
func assertSameAsSerial(t *testing.T, s *Sim, issue func(nw *Network)) {
	t.Helper()
	deliverAll(s)
	ref := claimSim(t, true)
	issue(ref.Network())
	deliverAll(ref)
	got, want := s.Network().Snapshot(), ref.Network().Snapshot()
	if !got.G.Equal(want.G) || !got.Gp.Equal(want.Gp) {
		t.Fatal("pipelined topology diverged from the serial run")
	}
	for v := range want.CurID {
		if got.CurID[v] != want.CurID[v] || got.Delta[v] != want.Delta[v] {
			t.Fatalf("node %d: label/δ (%d,%d), serial (%d,%d)", v, got.CurID[v], got.Delta[v], want.CurID[v], want.Delta[v])
		}
		if got.G.Alive(v) && got.LabelMirror[v] != got.CurID[v] {
			t.Fatalf("node %d: label %d, scheduler's mirror %d", v, got.CurID[v], got.LabelMirror[v])
		}
	}
	gs, gm, gr := s.Network().FloodStats()
	ws, wm, wr := ref.Network().FloodStats()
	if gs != ws || gm != wm || gr != wr {
		t.Fatalf("flood stats (%d,%d,%d), serial (%d,%d,%d)", gs, gm, gr, ws, wm, wr)
	}
}

// TestKillsSharingOnlyTheirMinimumLabelLaunchTogether: kills 3 and 4
// both reach the label 10 component, but it is the minimum of both
// neighborhoods, so neither flood rewrites it and both launch at once.
func TestKillsSharingOnlyTheirMinimumLabelLaunchTogether(t *testing.T) {
	s := claimSim(t, false)
	nw := s.Network()
	ep3, ep4 := nw.KillAsync(3), nw.KillAsync(4)
	if !launched(nw, ep3) || !launched(nw, ep4) {
		t.Fatalf("kills that only read a shared label did not launch together:\n%s", nw.DumpState())
	}
	assertSameAsSerial(t, s, func(nw *Network) { nw.KillAsync(3); nw.KillAsync(4) })
}

// TestKillWritingASharedLabelWaits: kill 7's neighborhood holds label 5
// below 10, so its flood rewrites the component kill 3 reads. It must
// wait for kill 3, and launch when kill 3 completes.
func TestKillWritingASharedLabelWaits(t *testing.T) {
	s := claimSim(t, false)
	nw := s.Network()
	ep3, ep7 := nw.KillAsync(3), nw.KillAsync(7)
	if !launched(nw, ep3) {
		t.Fatal("kill 3 did not launch into an idle pipeline")
	}
	if launched(nw, ep7) {
		t.Fatalf("kill 7 writes label 10, which running kill 3 reads, yet it launched:\n%s", nw.DumpState())
	}
	for !ep3.Done() {
		s.Deliver(s.Enabled()[0])
	}
	if !launched(nw, ep7) {
		t.Fatalf("kill 7 still queued after kill 3 completed:\n%s", nw.DumpState())
	}
	assertSameAsSerial(t, s, func(nw *Network) { nw.KillAsync(3); nw.KillAsync(7) })
}

// TestJoinReadClaimsTargetLabels: a join reads its targets' labels. A
// join to node 9 (label 10) runs beside kill 3, which only reads 10,
// but a join to node 2 (label 10, outside kill 7's node set) waits for
// kill 7, which rewrites 10.
func TestJoinReadClaimsTargetLabels(t *testing.T) {
	t.Run("beside a reader", func(t *testing.T) {
		s := claimSim(t, false)
		nw := s.Network()
		ep3 := nw.KillAsync(3)
		_, epJ := nw.JoinAsync([]int{9}, 200)
		if !launched(nw, ep3) || !launched(nw, epJ) {
			t.Fatalf("join reading label 10 did not launch beside a kill that reads it:\n%s", nw.DumpState())
		}
		assertSameAsSerial(t, s, func(nw *Network) { nw.KillAsync(3); nw.JoinAsync([]int{9}, 200) })
	})
	t.Run("behind a writer", func(t *testing.T) {
		s := claimSim(t, false)
		nw := s.Network()
		ep7 := nw.KillAsync(7)
		_, epJ := nw.JoinAsync([]int{2}, 200)
		if !launched(nw, ep7) {
			t.Fatal("kill 7 did not launch into an idle pipeline")
		}
		if launched(nw, epJ) {
			t.Fatalf("join reading label 10 launched beside kill 7, which rewrites it:\n%s", nw.DumpState())
		}
		assertSameAsSerial(t, s, func(nw *Network) { nw.KillAsync(7); nw.JoinAsync([]int{2}, 200) })
	})
}

// TestEpochOverlapProtocolRounds pins the protocol-round makespans
// BenchmarkEpochOverlap reports. They are deterministic (the Sim
// delivers every channel's head once per round), so any scheduler
// change that costs overlap shows up here as a changed count.
func TestEpochOverlapProtocolRounds(t *testing.T) {
	for _, tc := range []struct {
		serial      bool
		kills, want int
	}{
		{true, 8, 97},
		{true, 32, 477},
		{false, 8, 27},
		{false, 32, 237},
	} {
		if got := measureProtocolRounds(tc.serial, 600, tc.kills); got != tc.want {
			t.Errorf("serial=%t, %d kills: %d protocol rounds, want %d", tc.serial, tc.kills, got, tc.want)
		}
	}
}
