package modelcheck

import (
	"testing"

	"repro/internal/dist"
	"repro/internal/graph"
)

func runFaulty(t *testing.T, cfg FaultConfig) FaultResult {
	t.Helper()
	res, err := RunFaulty(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Terminals == 0 {
		t.Fatal("enumeration reached no terminal state")
	}
	t.Logf("states=%d terminals=%d crashedTerminals=%d oracles=%d deliveries=%d maxDepth=%d",
		res.States, res.Terminals, res.CrashedTerminals, res.Oracles,
		res.Deliveries, res.MaxDepth)
	return res
}

// TestMessageLossExhaustive is the message-loss acceptance
// configuration: one kill on a 4-node graph with a drop budget of 2 and
// a dup budget of 1, enumerated exhaustively. Every interleaving of
// frame loss, duplication, and retransmission with the heal protocol
// must still converge to the exact sequential result — the reliable
// channel makes the faults invisible above the mailbox. Short mode
// shrinks the budgets to one drop (the full budgets multiply the state
// space past what the repo-wide -race -short run can afford).
func TestMessageLossExhaustive(t *testing.T) {
	diamond := func() *graph.Graph {
		g := graph.New(4)
		g.AddEdge(0, 1)
		g.AddEdge(0, 2)
		g.AddEdge(1, 3)
		g.AddEdge(2, 3)
		return g
	}
	cfg := FaultConfig{
		Config: Config{
			Graph:  diamond,
			Seed:   11,
			Healer: dist.HealDASH,
			Ops:    []Op{{Kind: OpKill, Victim: 0}},
		},
		Drops: 2,
		Dups:  1,
	}
	if testing.Short() {
		cfg.Drops, cfg.Dups = 1, 0
	}
	res := runFaulty(t, cfg)
	if res.Oracles != 1 {
		t.Fatalf("loss-only run saw %d distinct effective logs, want 1 (faults must not change the oracle)", res.Oracles)
	}
	if res.CrashedTerminals != 0 {
		t.Fatalf("loss-only run recorded %d crashed terminals", res.CrashedTerminals)
	}
}

// TestLeaderCrashExhaustive is the leader-crash acceptance
// configuration: one kill on the 6-node bridged-triangle graph with a
// crash budget of 1 aimed at the victim's orphans — so the enumeration
// fail-stops the round leader (and the non-leader orphan) at every
// eligible instant, including mid-heal with reports already collected.
// Schedules where the crash fires must match the effective-op oracle
// (the kill aborted, {orphan, victim} healed as one batch); schedules
// where it never fires must match the plain kill oracle.
func TestLeaderCrashExhaustive(t *testing.T) {
	if testing.Short() {
		t.Skip("large enumeration; run without -short")
	}
	cfg := FaultConfig{
		Config: Config{
			Graph:  bridgedTriangles,
			Seed:   12,
			Healer: dist.HealDASH,
			Ops:    []Op{{Kind: OpKill, Victim: 0}},
		},
		Crashes:      1,
		CrashTargets: []int{1, 2}, // victim 0's orphans: leader + reporter
	}
	res := runFaulty(t, cfg)
	if res.CrashedTerminals == 0 {
		t.Fatal("no terminal state crashed: the schedule space never exercised recovery")
	}
	if res.CrashedTerminals == res.Terminals {
		t.Fatal("every terminal crashed: the no-fault baseline was never enumerated")
	}
	if res.Oracles < 2 {
		t.Fatalf("saw %d effective logs, want ≥2 (crash must rewrite history)", res.Oracles)
	}
}

// TestStandaloneCrashExhaustive crashes a node that is in no epoch's
// claim: the supervisor must run a pure recovery epoch (batch heal of
// the singleton) with no abort, concurrently with an unrelated kill on
// the other triangle.
func TestStandaloneCrashExhaustive(t *testing.T) {
	if testing.Short() {
		t.Skip("large enumeration; run without -short")
	}
	cfg := FaultConfig{
		Config: Config{
			Graph:  bridgedTriangles,
			Seed:   13,
			Healer: dist.HealDASH,
			Ops:    []Op{{Kind: OpKill, Victim: 5}},
		},
		Crashes:      1,
		CrashTargets: []int{1}, // not in kill(5)'s claim
	}
	res := runFaulty(t, cfg)
	if res.CrashedTerminals == 0 {
		t.Fatal("no terminal state crashed")
	}
	if res.CrashedTerminals == res.Terminals {
		t.Fatal("every terminal crashed: the no-fault baseline was never enumerated")
	}
}

// TestCrashNoticeOrderExhaustive pins the recovery's notice ordering:
// with the crashed node's index below the victim's (W = {4, 5}), a
// survivor that discarded the victim's death notice (abort processed
// first) still holds the edge to the exited victim when the crash
// notices arrive. Unless edges to exited members are dropped before
// crashed ones, its NoNRemove gossip wedges in the victim's dead
// mailbox — found by fuzzing, locked in here exhaustively.
func TestCrashNoticeOrderExhaustive(t *testing.T) {
	if testing.Short() {
		t.Skip("large enumeration; run without -short")
	}
	cfg := FaultConfig{
		Config: Config{
			Graph:  bridgedTriangles,
			Seed:   14,
			Healer: dist.HealDASH,
			Ops:    []Op{{Kind: OpKill, Victim: 5}},
		},
		Crashes:      1,
		CrashTargets: []int{4}, // victim 5's orphan, with a smaller index
	}
	res := runFaulty(t, cfg)
	if res.CrashedTerminals == 0 {
		t.Fatal("no terminal state crashed: the schedule space never exercised recovery")
	}
	if res.Oracles < 2 {
		t.Fatalf("saw %d effective logs, want ≥2", res.Oracles)
	}
}

// TestFaultyMatchesFaultFree pins that RunFaulty with zero budgets
// degenerates to exactly the fault-free enumeration (same oracle, same
// verification), so the faulty harness itself adds no behavior.
func TestFaultyMatchesFaultFree(t *testing.T) {
	cfg := FaultConfig{
		Config: Config{
			Graph:  bridgedTriangles,
			Seed:   1,
			Healer: dist.HealDASH,
			Ops:    []Op{{Kind: OpKill, Victim: 0}, {Kind: OpKill, Victim: 5}},
		},
	}
	res := runFaulty(t, cfg)
	if res.Oracles != 1 {
		t.Fatalf("fault-free run saw %d effective logs, want 1", res.Oracles)
	}
}

// TestQueuedBehindLaunchedCrashExhaustive pins the crash rule for an
// epoch queued behind a conflicting launched one. Kill 0 launches and
// claims {0, 1, 2}; kill 1 shares nodes 0 and 1 with it, so it queues.
// Node 3's recovery would heal {3} ∪ N(3) = {2, 3, 5}, which misses
// kill 1's own claim {0, 1, 4} but meets kill 0's. Once kill 0 heals,
// node 2 is wired to node 1, so kill 1's heal reaches the recovery's
// nodes: the two do not commute. The recovery jumps the queue while
// kill 1 keeps its earlier log position, so the crash must be refused
// until kill 1 has launched. Checking only the queued epoch's own claim
// granted it, and the flood accounting diverged from the effective-op
// replay in this configuration.
func TestQueuedBehindLaunchedCrashExhaustive(t *testing.T) {
	g := func() *graph.Graph {
		gr := graph.New(6)
		for _, e := range [][2]int{{0, 1}, {0, 2}, {1, 4}, {2, 3}, {3, 5}} {
			gr.AddEdge(e[0], e[1])
		}
		return gr
	}
	cfg := FaultConfig{
		Config: Config{
			Graph:  g,
			Seed:   1,
			Healer: dist.HealDASH,
			Ops:    []Op{{Kind: OpKill, Victim: 0}, {Kind: OpKill, Victim: 1}},
		},
		Crashes:      1,
		CrashTargets: []int{3},
	}
	res := runFaulty(t, cfg)
	if res.CrashedTerminals == 0 {
		t.Fatal("no terminal state crashed: the schedule space never exercised recovery")
	}
}

// TestRecoveryReachCrashExhaustive pins the other half of that rule:
// the recovery's own reach is widened by the launched epochs it meets.
// Kill 0 merges {1, 2} under label A; kill 3 then launches, reading A
// and rewriting node 4's label B. Kill 5 reads A too and is queued
// behind kill 7, which shares its nodes. Node 8's recovery heals {4, 9}
// where node 9's label is below A (seed 51's IDs): its claim misses kill
// 5's reach (kill 5 plus kill 7), yet once kill 3 relabels node 4 to A,
// the recovery floods A's component — which kill 5 reads. Without the
// widening the crash was granted and the flood accounting diverged.
func TestRecoveryReachCrashExhaustive(t *testing.T) {
	if testing.Short() {
		t.Skip("large enumeration; run without -short")
	}
	g := func() *graph.Graph {
		gr := graph.New(10)
		for _, e := range [][2]int{{0, 1}, {0, 2}, {1, 3}, {3, 4}, {2, 5}, {5, 6}, {5, 7}, {4, 8}, {8, 9}} {
			gr.AddEdge(e[0], e[1])
		}
		return gr
	}
	cfg := FaultConfig{
		Config: Config{
			Graph:  g,
			Seed:   51,
			Healer: dist.HealDASH,
			Ops: []Op{
				{Kind: OpKill, Victim: 0}, {Kind: OpKill, Victim: 3},
				{Kind: OpKill, Victim: 7}, {Kind: OpKill, Victim: 5},
			},
		},
		Crashes:      1,
		CrashTargets: []int{8},
	}
	res := runFaulty(t, cfg)
	if res.CrashedTerminals == 0 {
		t.Fatal("no terminal state crashed: the schedule space never exercised recovery")
	}
}
