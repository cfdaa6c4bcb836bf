package modelcheck

import (
	"testing"

	"repro/internal/dist"
	"repro/internal/graph"
)

// bridgedTriangles is the canonical small overlap topology: two
// triangles {0,1,2} and {3,4,5} joined by the bridge 2–3. Killing 0
// and killing 5 have disjoint claims (nodes {0,1,2} and {3,4,5}),
// so the pipeline genuinely overlaps their epochs and the enumeration
// covers every cross-epoch interleaving.
func bridgedTriangles() *graph.Graph {
	g := graph.New(6)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(1, 2)
	g.AddEdge(3, 4)
	g.AddEdge(3, 5)
	g.AddEdge(4, 5)
	g.AddEdge(2, 3)
	return g
}

func run(t *testing.T, cfg Config) Result {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Terminals == 0 {
		t.Fatal("enumeration reached no terminal state")
	}
	t.Logf("states=%d terminals=%d deliveries=%d maxDepth=%d",
		res.States, res.Terminals, res.Deliveries, res.MaxDepth)
	return res
}

// TestTwoOverlappingKills enumerates every delivery order of two
// concurrent single-kill epochs with disjoint claims on the
// 6-node bridged-triangle graph — the first acceptance configuration:
// a second deletion's epoch starts while the first heal (including its
// MINID flood) is still draining, in every possible relative order.
func TestTwoOverlappingKills(t *testing.T) {
	for _, healer := range []dist.HealerKind{dist.HealDASH, dist.HealSDASH} {
		cfg := Config{
			Graph:  bridgedTriangles,
			Seed:   1,
			Healer: healer,
			Ops:    []Op{{Kind: OpKill, Victim: 0}, {Kind: OpKill, Victim: 5}},
		}
		res := run(t, cfg)
		if res.MaxDepth < 8 {
			t.Fatalf("suspiciously shallow enumeration (maxDepth=%d): epochs did not overlap?", res.MaxDepth)
		}
	}
}

// TestBatchKillOverlappingJoin is the second acceptance configuration:
// one batch kill (a connected two-victim cluster) overlapping one join
// attached to the far triangle. The batch epoch's staged protocol —
// die, cluster probe, collect, commit, zombie reaping, cluster heal —
// interleaves freely with the join's request/ack exchange.
func TestBatchKillOverlappingJoin(t *testing.T) {
	cfg := Config{
		Graph:  bridgedTriangles,
		Seed:   2,
		Healer: dist.HealDASH,
		Ops: []Op{
			{Kind: OpBatch, Batch: []int{0, 1}},
			{Kind: OpJoin, Attach: []int{4, 5}},
		},
	}
	run(t, cfg)
}

// TestConflictingKillsSerialize kills both bridge endpoints: their
// claims share nodes 2 and 3, so the pipeline must chain the epochs in
// issue order. Every interleaving of the first epoch's tail with the
// second epoch's head must still match core applied in issue order —
// this is the dependency-chaining path of the scheduler.
func TestConflictingKillsSerialize(t *testing.T) {
	cfg := Config{
		Graph:  bridgedTriangles,
		Seed:   3,
		Healer: dist.HealDASH,
		Ops:    []Op{{Kind: OpKill, Victim: 2}, {Kind: OpKill, Victim: 3}},
	}
	run(t, cfg)
}

// TestThreeOverlappingEpochs pushes to three concurrent epochs: two
// disjoint kills plus a join on a third, detached part of a larger
// 8-node configuration.
func TestThreeOverlappingEpochs(t *testing.T) {
	if testing.Short() {
		t.Skip("large enumeration; run without -short")
	}
	g := func() *graph.Graph {
		gr := bridgedTriangles()
		gr.AddNode() // 6
		gr.AddNode() // 7
		gr.AddEdge(6, 7)
		gr.AddEdge(5, 6) // hang the pair off the second triangle
		return gr
	}
	cfg := Config{
		Graph:  g,
		Seed:   4,
		Healer: dist.HealDASH,
		Ops: []Op{
			{Kind: OpKill, Victim: 0},
			{Kind: OpKill, Victim: 7},
			{Kind: OpJoin, Attach: []int{3, 4}},
		},
	}
	run(t, cfg)
}

// TestBudgetExceededIsAnError pins that a truncated search reports an
// error instead of silently passing as if it were exhaustive.
func TestBudgetExceededIsAnError(t *testing.T) {
	cfg := Config{
		Graph:  bridgedTriangles,
		Seed:   1,
		Healer: dist.HealDASH,
		Ops:    []Op{{Kind: OpKill, Victim: 0}, {Kind: OpKill, Victim: 5}},
		Budget: 10,
	}
	if _, err := Run(cfg); err == nil {
		t.Fatal("budget-truncated run must return an error")
	}
}
