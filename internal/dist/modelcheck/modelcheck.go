// Package modelcheck exhaustively enumerates message delivery orders of
// the pipelined distributed healer on small configurations and asserts
// that every interleaving converges to the exact sequential core result
// — the correctness foundation under the epoch pipeline's argument
// that epochs whose claims do not conflict commute.
//
// The unit of nondeterminism is the same one the runtime has: which
// non-empty (receiver, sender) channel delivers its oldest message next
// (per-sender FIFO is a transport guarantee; cross-sender interleaving
// at each receiver is not). All of a configuration's operations are
// issued up front, so the enumeration covers maximal epoch overlap —
// including every schedule where a second deletion's epoch runs while a
// prior MINID flood is still draining.
//
// The search is a depth-first walk of the schedule tree with
// state-identity pruning: Sim.Fingerprint hashes the complete
// behavior-relevant network state, and a schedule prefix that reaches
// an already-visited state is cut off. Commuting deliveries reach the
// same state by definition, so this is a partial-order reduction in
// effect (keyed on reached states rather than a static independence
// relation) — without it even six-node configurations are intractable;
// with it they enumerate in seconds.
//
// What a passing run proves, and what it does not: every delivery
// order of the given operations on the given graph — up to Budget
// distinct states, and the run errors out rather than passing if the
// budget truncates the search — reaches the bit-identical G, G′,
// labels, δ, and Lemma 9 flood accounting of core applied in issue
// order. It says nothing about other graphs, other operation mixes, or
// configurations larger than enumeration reaches; the randomized
// differential harness (scenario.ReplayDifferential in Pipelined mode)
// covers that scale, with this package as the ground truth for why its
// oracle is the sequential engine.
package modelcheck

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/rng"
)

// DefaultBudget is the distinct-state ceiling when Config.Budget is 0.
const DefaultBudget = 2_000_000

// OpKind selects an operation type.
type OpKind int

const (
	// OpKill deletes one node and heals.
	OpKill OpKind = iota
	// OpJoin attaches a new node to Attach.
	OpJoin
	// OpBatch deletes Batch simultaneously and heals per cluster.
	OpBatch
)

// Op is one operation of a configuration, applied to the sequential
// engine in slice order and issued to the pipelined network up front.
type Op struct {
	Kind   OpKind
	Victim int   // OpKill
	Batch  []int // OpBatch
	Attach []int // OpJoin
}

func (op Op) String() string {
	switch op.Kind {
	case OpKill:
		return fmt.Sprintf("kill(%d)", op.Victim)
	case OpJoin:
		return fmt.Sprintf("join(%v)", op.Attach)
	case OpBatch:
		return fmt.Sprintf("batch(%v)", op.Batch)
	}
	return "unknown"
}

// Config is one model-checking run.
type Config struct {
	// Graph builds the (small!) starting topology. Called twice: once
	// for the sequential oracle, once per simulated replay.
	Graph func() *graph.Graph
	// Seed feeds the initial-ID assignment (drawn exactly as
	// core.NewState draws them, so the two engines agree on IDs).
	Seed uint64
	// Healer selects DASH or SDASH on both engines.
	Healer dist.HealerKind
	// Ops is the operation mix; all are issued up front.
	Ops []Op
	// Budget bounds the number of distinct states explored; 0 means
	// DefaultBudget. Exceeding the budget is an error — a truncated
	// search proves nothing and must not read as a pass.
	Budget int
}

// Result summarizes an exhaustive run.
type Result struct {
	States     int // distinct states visited
	Terminals  int // distinct terminal states, all verified against core
	Deliveries int // handler executions, including replay overhead
	MaxDepth   int // longest schedule
}

// Run enumerates every delivery order of cfg and verifies each terminal
// state against the sequential engine. A non-nil error either names the
// first diverging schedule or reports a truncated (budget-exceeded)
// search.
func Run(cfg Config) (Result, error) {
	c := &checker{cfg: cfg, budget: cfg.Budget}
	if c.budget == 0 {
		c.budget = DefaultBudget
	}
	switch cfg.Healer {
	case dist.HealDASH:
		c.healer = core.DASH{}
	case dist.HealSDASH:
		c.healer = core.SDASH{}
	}

	// Sequential oracle: apply the ops in issue order, capturing the
	// initial IDs (including each joiner's) the simulated runs must use.
	g := cfg.Graph()
	c.seq = core.NewState(g.Clone(), rng.New(cfg.Seed))
	c.ids = make([]uint64, g.N())
	for v := range c.ids {
		c.ids[v] = c.seq.InitID(v)
	}
	joinR := rng.New(cfg.Seed + 1)
	for _, op := range cfg.Ops {
		switch op.Kind {
		case OpKill:
			c.seq.DeleteAndHeal(op.Victim, c.healer)
		case OpJoin:
			v := c.seq.Join(op.Attach, joinR)
			c.joinIDs = append(c.joinIDs, c.seq.InitID(v))
		case OpBatch:
			c.seq.DeleteBatchAndHeal(op.Batch)
		}
	}

	c.visited = make(map[[16]byte]struct{})
	root, eps := c.build()
	err := c.dfs(root, eps, nil)
	return c.res, err
}

type checker struct {
	cfg     Config
	healer  core.Healer
	seq     *core.State
	ids     []uint64
	joinIDs []uint64
	visited map[[16]byte]struct{}
	budget  int
	res     Result
}

// build assembles a fresh simulated network with every op issued.
func (c *checker) build() (*dist.Sim, []*dist.Epoch) {
	s := dist.NewSim(c.cfg.Graph(), c.ids, c.cfg.Healer)
	nw := s.Network()
	eps := make([]*dist.Epoch, 0, len(c.cfg.Ops))
	ji := 0
	for _, op := range c.cfg.Ops {
		switch op.Kind {
		case OpKill:
			eps = append(eps, nw.KillAsync(op.Victim))
		case OpJoin:
			_, ep := nw.JoinAsync(op.Attach, c.joinIDs[ji])
			ji++
			eps = append(eps, ep)
		case OpBatch:
			eps = append(eps, nw.KillBatchAsync(op.Batch))
		}
	}
	return s, eps
}

// replay rebuilds the state a delivery prefix reaches. The search pays
// this rebuild when it branches; combined with fingerprint pruning it
// is far cheaper than deep-copying the full actor state at every node.
func (c *checker) replay(prefix []dist.SimEvent) (*dist.Sim, []*dist.Epoch) {
	s, eps := c.build()
	for _, ev := range prefix {
		s.Deliver(ev)
		c.res.Deliveries++
	}
	return s, eps
}

func (c *checker) dfs(s *dist.Sim, eps []*dist.Epoch, prefix []dist.SimEvent) error {
	fp := s.Fingerprint()
	if _, seen := c.visited[fp]; seen {
		return nil
	}
	if len(c.visited) >= c.budget {
		return fmt.Errorf("modelcheck: interleaving budget %d exceeded — enumeration is NOT exhaustive; raise Config.Budget", c.budget)
	}
	c.visited[fp] = struct{}{}
	c.res.States = len(c.visited)
	if len(prefix) > c.res.MaxDepth {
		c.res.MaxDepth = len(prefix)
	}

	evs := s.Enabled()
	if len(evs) == 0 {
		c.res.Terminals++
		return c.verify(s, eps, prefix)
	}
	for i, ev := range evs {
		child, ceps := s, eps
		if i < len(evs)-1 {
			// Branch: rebuild the prefix state. The final branch reuses
			// the live state, since nothing rereads it afterwards.
			child, ceps = c.replay(prefix)
		}
		child.Deliver(ev)
		c.res.Deliveries++
		next := make([]dist.SimEvent, len(prefix)+1)
		copy(next, prefix)
		next[len(prefix)] = ev
		if err := c.dfs(child, ceps, next); err != nil {
			return err
		}
	}
	return nil
}

// verify checks a terminal state bit-for-bit against the sequential
// oracle: topology, healing overlay, labels, δ, and flood accounting.
func (c *checker) verify(s *dist.Sim, eps []*dist.Epoch, prefix []dist.SimEvent) error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("modelcheck: schedule %v: %s", prefix, fmt.Sprintf(format, args...))
	}
	if !s.Quiet() {
		return fail("no deliverable message but traffic still tracked in flight:\n%s", s.Network().DumpState())
	}
	for i, ep := range eps {
		if !ep.Done() {
			return fail("op %d (%v, epoch %d) never completed:\n%s",
				i, c.cfg.Ops[i], ep.ID(), s.Network().DumpState())
		}
	}
	snap := s.Network().Snapshot()
	if !snap.G.Equal(c.seq.G) {
		return fail("G diverged from sequential")
	}
	if !snap.Gp.Equal(c.seq.Gp) {
		return fail("G′ diverged from sequential")
	}
	if !snap.Gp.IsSubgraphOf(snap.G) {
		return fail("G′ ⊄ G")
	}
	for _, v := range c.seq.G.AliveNodes() {
		if snap.CurID[v] != c.seq.CurID(v) {
			return fail("node %d label %d, sequential %d", v, snap.CurID[v], c.seq.CurID(v))
		}
		if snap.Delta[v] != c.seq.Delta(v) {
			return fail("node %d δ=%d, sequential %d", v, snap.Delta[v], c.seq.Delta(v))
		}
	}
	sum, max, rounds := s.Network().FloodStats()
	if sum != c.seq.FloodDepthSum() || max != c.seq.MaxFloodDepth() || rounds != c.seq.Rounds() {
		return fail("flood stats (sum=%d max=%d rounds=%d), sequential (%d, %d, %d)",
			sum, max, rounds, c.seq.FloodDepthSum(), c.seq.MaxFloodDepth(), c.seq.Rounds())
	}
	return nil
}
