package core

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/rng"
)

// shardOp is one operation of a pre-generated churn stream, so the
// sequential and sharded engines can apply bit-identical inputs.
type shardOp struct {
	kill   bool
	v      int   // kill victim
	attach []int // join targets
}

// genShardOps generates a kill/join stream against a simulated alive
// set (joins get deterministic indices n, n+1, ...), so the stream is
// a pure function of the seed.
func genShardOps(n, count int, joinEvery int, seed uint64) []shardOp {
	r := rng.New(seed)
	alive := make([]int, n)
	for i := range alive {
		alive[i] = i
	}
	next := n
	ops := make([]shardOp, 0, count)
	for i := 0; i < count && len(alive) > 4; i++ {
		if joinEvery > 0 && i%joinEvery == joinEvery-1 {
			k := 1 + r.Intn(3)
			attach := make([]int, 0, k)
			for len(attach) < k {
				u := alive[r.Intn(len(alive))]
				dup := false
				for _, w := range attach {
					if w == u {
						dup = true
					}
				}
				if !dup {
					attach = append(attach, u)
				}
			}
			ops = append(ops, shardOp{attach: attach, v: next})
			alive = append(alive, next)
			next++
			continue
		}
		j := r.Intn(len(alive))
		v := alive[j]
		alive[j] = alive[len(alive)-1]
		alive = alive[:len(alive)-1]
		ops = append(ops, shardOp{kill: true, v: v})
	}
	return ops
}

// buildPair constructs two bit-identical states from the same seeds.
func buildPair(n, m int, seed uint64) (*State, *State) {
	a := NewState(gen.BarabasiAlbert(n, m, rng.New(seed)), rng.New(seed+1))
	b := NewState(gen.BarabasiAlbert(n, m, rng.New(seed)), rng.New(seed+1))
	return a, b
}

// requireStateEqual demands bit-identical topology, labels, δ inputs,
// weights, message counts, and round/flood accounting.
func requireStateEqual(t *testing.T, want, got *State, ctx string) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("%s: %s", ctx, fmt.Sprintf(format, args...))
	}
	if !want.G.Equal(got.G) {
		fail("G diverged")
	}
	if !want.Gp.Equal(got.Gp) {
		fail("G' diverged")
	}
	if want.G.NumAlive() != got.G.NumAlive() || want.G.NumEdges() != got.G.NumEdges() {
		fail("G counters diverged")
	}
	if want.N() != got.N() {
		fail("node counts diverged: %d vs %d", want.N(), got.N())
	}
	for v := 0; v < want.N(); v++ {
		if want.initID[v] != got.initID[v] {
			fail("initID[%d]: %d vs %d", v, want.initID[v], got.initID[v])
		}
		if want.curID[v] != got.curID[v] {
			fail("curID[%d]: %d vs %d", v, want.curID[v], got.curID[v])
		}
		if want.initDeg[v] != got.initDeg[v] {
			fail("initDeg[%d]: %d vs %d", v, want.initDeg[v], got.initDeg[v])
		}
		if want.weight[v] != got.weight[v] {
			fail("weight[%d]: %d vs %d", v, want.weight[v], got.weight[v])
		}
		if want.idChanges[v] != got.idChanges[v] {
			fail("idChanges[%d]: %d vs %d", v, want.idChanges[v], got.idChanges[v])
		}
		if want.msgSent[v] != got.msgSent[v] {
			fail("msgSent[%d]: %d vs %d", v, want.msgSent[v], got.msgSent[v])
		}
		if want.msgRecv[v] != got.msgRecv[v] {
			fail("msgRecv[%d]: %d vs %d", v, want.msgRecv[v], got.msgRecv[v])
		}
	}
	if want.rounds != got.rounds {
		fail("rounds: %d vs %d", want.rounds, got.rounds)
	}
	if want.joined != got.joined {
		fail("joined: %d vs %d", want.joined, got.joined)
	}
	if want.droppedWeight != got.droppedWeight {
		fail("droppedWeight: %d vs %d", want.droppedWeight, got.droppedWeight)
	}
	if want.floodDepthSum != got.floodDepthSum {
		fail("floodDepthSum: %d vs %d", want.floodDepthSum, got.floodDepthSum)
	}
	if want.maxFloodDepth != got.maxFloodDepth {
		fail("maxFloodDepth: %d vs %d", want.maxFloodDepth, got.maxFloodDepth)
	}
	if want.TotalWeight() != got.TotalWeight() {
		fail("TotalWeight: %d vs %d", want.TotalWeight(), got.TotalWeight())
	}
}

// applySequential replays ops through the plain sequential engine.
func applySequential(st *State, h Healer, ops []shardOp, idSeed uint64) {
	idR := rng.New(idSeed)
	for _, op := range ops {
		if op.kill {
			st.DeleteAndHeal(op.v, h)
		} else {
			if got := st.Join(op.attach, idR); got != op.v {
				panic(fmt.Sprintf("join index diverged: %d vs %d", got, op.v))
			}
		}
	}
}

// TestShardedDifferentialConcurrent is the randomized differential
// property test of the tentpole: the same churn stream, committed
// concurrently through the scheduler at several worker counts and
// healers, must leave a State bit-identical to the sequential engine —
// topology, G′, labels, δ inputs, weights, Lemma 8 message counts, and
// Lemma 9 flood accounting. Run under -race this doubles as the memory-
// model check for the whole commit path.
func TestShardedDifferentialConcurrent(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const n, m = 400, 3
	ops := genShardOps(n, 300, 3, 0xabcde)
	for _, h := range []Healer{DASH{}, SDASH{}} {
		for _, workers := range []int{1, 4} {
			ctx := fmt.Sprintf("%s/workers=%d", h.Name(), workers)
			seq, conc := buildPair(n, m, 42)
			applySequential(seq, h, ops, 0x1d5eed)

			sched := NewShardScheduler(NewShardedState(conc, 0), h, workers)
			idR := rng.New(0x1d5eed)
			for i, op := range ops {
				if op.kill {
					sched.Kill(op.v, nil, nil)
				} else {
					if got, _ := sched.Join(op.attach, idR, nil, nil); got != op.v {
						t.Fatalf("%s: join index diverged: %d vs %d", ctx, got, op.v)
					}
				}
				if i%97 == 0 {
					// Mid-stream barrier: counters must already be exact.
					sched.Barrier()
					if conc.G.NumAlive() != len(conc.G.AliveNodes()) || conc.G.NumEdges() != len(conc.G.Edges()) {
						t.Fatalf("%s: barrier counters inexact", ctx)
					}
				}
			}
			sched.Close()
			requireStateEqual(t, seq, conc, ctx)
		}
	}
}

// TestShardedDifferentialKillsOnly hammers the pure-deletion path (no
// join mini-barriers), which maximizes in-flight commit overlap.
func TestShardedDifferentialKillsOnly(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const n, m = 500, 2
	ops := genShardOps(n, 400, 0, 0xf00d)
	seq, conc := buildPair(n, m, 7)
	applySequential(seq, DASH{}, ops, 1)

	ss := NewShardedState(conc, 0)
	sched := NewShardScheduler(ss, DASH{}, 4)
	for _, op := range ops {
		sched.Kill(op.v, nil, nil)
	}
	sched.Close()
	requireStateEqual(t, seq, conc, "kills-only")
}

// TestShardedDifferentialScale runs the differential at the size where
// G′ components grow past any small bound: BA(m=3), n=5·10⁴, 3·10⁴
// mixed ops (2:1 kill:join), DASH and SDASH, 2 and 4 workers. A
// region-walking scheduler sent most of these kills through
// a serialized fallback; label-keyed claims commit them all
// concurrently, and the State must still match the sequential engine
// bit for bit.
func TestShardedDifferentialScale(t *testing.T) {
	if testing.Short() {
		t.Skip("scale differential; run without -short")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const n, m = 50000, 3
	ops := genShardOps(n, 30000, 3, 0x5ca1e)
	for _, h := range []Healer{DASH{}, SDASH{}} {
		seq, _ := buildPair(n, m, 11)
		applySequential(seq, h, ops, 0x1d)
		for _, workers := range []int{2, 4} {
			ctx := fmt.Sprintf("scale/%s/workers=%d", h.Name(), workers)
			_, conc := buildPair(n, m, 11)
			sched := NewShardScheduler(NewShardedState(conc, 0), h, workers)
			idR := rng.New(0x1d)
			for _, op := range ops {
				if op.kill {
					sched.Kill(op.v, nil, nil)
				} else if got, _ := sched.Join(op.attach, idR, nil, nil); got != op.v {
					t.Fatalf("%s: join index diverged: %d vs %d", ctx, got, op.v)
				}
			}
			sched.Close()
			requireStateEqual(t, seq, conc, ctx)
		}
	}
}

// TestShardedConflictChain builds a line graph — every kill's claim
// overlaps its neighbors' — so admission must chain conflicting
// commits in issue order; the result must still be exact.
func TestShardedConflictChain(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	build := func() *State {
		g := gen.Line(64)
		return NewState(g, rng.New(5))
	}
	victims := []int{1, 3, 5, 2, 30, 31, 32, 33, 60, 58, 59, 10, 12, 11}
	seq := build()
	for _, v := range victims {
		seq.DeleteAndHeal(v, DASH{})
	}
	conc := build()
	ss := NewShardedState(conc, 0)
	sched := NewShardScheduler(ss, DASH{}, 4)
	for _, v := range victims {
		sched.Kill(v, nil, nil)
	}
	sched.Close()
	requireStateEqual(t, seq, conc, "conflict-chain")
}

// TestShardedCommitOrderExhaustive is the small-config interleaving
// check in the style of internal/dist/modelcheck: for small graphs and
// sets of claim-disjoint operations, EVERY commit completion order is
// enumerated (the scheduler's only nondeterminism — admission is
// serial) by applying the commit bodies (CommitKill, CommitJoin)
// in each permutation, and every ordering must produce a State
// bit-identical to the sequential engine applying issue order. This is
// the executable form of the commutativity argument: disjoint claims
// touch disjoint plain state, and all shared counters are commutative
// sums or max-merges.
func TestShardedCommitOrderExhaustive(t *testing.T) {
	const n = 24
	// Three well-separated victims on a ring: claims {v-1, v, v+1} are
	// pairwise disjoint, plus a join attached far from all of them.
	type cfg struct {
		name  string
		kills []int
		join  []int // attach set, nil = no join
	}
	configs := []cfg{
		{"two-kills", []int{2, 10}, nil},
		{"three-kills", []int{2, 10, 18}, nil},
		{"two-kills-join", []int{2, 10}, []int{14, 15}},
	}
	for _, c := range configs {
		nops := len(c.kills)
		if c.join != nil {
			nops++
		}
		perms := permutations(nops)
		for _, h := range []Healer{DASH{}, SDASH{}} {
			seq := NewState(gen.Ring(n), rng.New(3))
			idR := rng.New(77)
			for _, v := range c.kills {
				seq.DeleteAndHeal(v, h)
			}
			if c.join != nil {
				seq.Join(c.join, idR)
			}
			for _, perm := range perms {
				conc := NewState(gen.Ring(n), rng.New(3))
				ss := NewShardedState(conc, 0)
				// Admission effects in issue order (like the serial
				// admission goroutine): allocate the join node first so
				// RNG draws and indices match, then commit bodies in the
				// permuted completion order.
				idR2 := rng.New(77)
				joinNode := -1
				if c.join != nil {
					joinNode = ss.AdmitJoin(c.join, idR2)
				}
				ss.begin()
				for _, oi := range perm {
					if oi < len(c.kills) {
						ss.CommitKill(c.kills[oi], h, nil)
					} else {
						ss.CommitJoin(joinNode, c.join)
					}
				}
				ss.end()
				ss.Sync()
				requireStateEqual(t, seq, conc,
					fmt.Sprintf("%s/%s/perm=%v", c.name, h.Name(), perm))
			}
		}
	}
}

// ringWithHealedPair is Ring(12) after killing 3 with DASH: the heal
// wires 2–4 into G and G′, so {2,4} is one G′ component with one label.
func ringWithHealedPair(seed uint64) *State {
	st := NewState(gen.Ring(12), rng.New(seed))
	st.DeleteAndHeal(3, DASH{})
	return st
}

// TestShardedKillClaimIsNodesAndLabels pins the kill claim: killing 2
// claims the nodes {2} ∪ N_G(2) = {1, 2, 4} and exactly their labels,
// {curID(1), curID(2) = curID(4)} — no walk into G′ components.
func TestShardedKillClaimIsNodesAndLabels(t *testing.T) {
	st := ringWithHealedPair(1)
	sched := NewShardScheduler(NewShardedState(st, 0), DASH{}, 1)
	defer sched.Close()
	tk := &ShardTicket{Kill: true, Node: 2}
	if o := sched.collect(tk); o != nil {
		t.Fatalf("unexpected owner %d on an idle scheduler", o.id)
	}
	nodes := map[int]bool{}
	for _, w := range tk.nodes {
		nodes[int(w)] = true
	}
	if len(nodes) != 3 || !nodes[1] || !nodes[2] || !nodes[4] {
		t.Fatalf("claimed nodes %v, want {1,2,4}", tk.nodes)
	}
	if st.CurID(2) != st.CurID(4) || st.CurID(1) == st.CurID(2) {
		t.Fatalf("setup: labels 1=%d 2=%d 4=%d", st.CurID(1), st.CurID(2), st.CurID(4))
	}
	labels := map[uint64]bool{}
	for _, l := range tk.labels {
		labels[l] = true
	}
	if len(labels) != 2 || !labels[st.CurID(1)] || !labels[st.CurID(2)] {
		t.Fatalf("claimed labels %v, want {%d, %d}", tk.labels, st.CurID(1), st.CurID(2))
	}
}

// claimWaitCase submits first with its commit held at OnRemove until
// admission of second blocks on it, so the conflict is deterministic.
// It returns the scheduler's conflict count and the owner second
// waited on (nil if it never waited).
func claimWaitCase(t *testing.T, st *State, first int, second func(*ShardScheduler)) (int64, *ShardTicket) {
	t.Helper()
	sched := NewShardScheduler(NewShardedState(st, 0), DASH{}, 2)
	release := make(chan struct{})
	var waitedOn *ShardTicket
	sched.onWait = func(o *ShardTicket) {
		if waitedOn == nil {
			waitedOn = o
			close(release)
		}
	}
	// The timeout turns a missed conflict into a failure below rather
	// than a hang (a join's admission would block on the held commit).
	hold := &Hooks{OnRemove: func(int) {
		select {
		case <-release:
		case <-time.After(10 * time.Second):
		}
	}}
	tk := sched.Kill(first, hold, nil)
	second(sched)
	if waitedOn == nil {
		close(release) // unblock the held commit so Close can drain
	}
	sched.Close()
	if waitedOn != nil && waitedOn != tk {
		t.Fatalf("waited on ticket %d, want the first kill's %d", waitedOn.id, tk.id)
	}
	return sched.Conflicts(), waitedOn
}

// TestShardedSharedComponentConflict: killing 1 claims {0,1,2} and
// killing 5 claims {4,5,6} — disjoint nodes — but 2 and 4 share one G′
// component, so both kills claim its label and must serialize. The
// result must still match the sequential engine.
func TestShardedSharedComponentConflict(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	seq := ringWithHealedPair(1)
	seq.DeleteAndHeal(1, DASH{})
	seq.DeleteAndHeal(5, DASH{})
	conc := ringWithHealedPair(1)
	conflicts, owner := claimWaitCase(t, conc, 1, func(sc *ShardScheduler) { sc.Kill(5, nil, nil) })
	if owner == nil || conflicts == 0 {
		t.Fatalf("kills sharing a G′ component did not conflict (conflicts=%d)", conflicts)
	}
	requireStateEqual(t, seq, conc, "shared-component")
}

// TestShardedJoinWaitsOnRelabel: killing 1 merges {0} with {2,4} and
// floods the smaller label over the larger side. A join attaching to 4
// — not a node the kill claims, but in a component it relabels — must
// wait for the flood, or the flood's msgSent for 4 would depend on
// whether the join's edge landed first.
func TestShardedJoinWaitsOnRelabel(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	seed := uint64(1)
	for ringWithHealedPair(seed).CurID(4) < ringWithHealedPair(seed).CurID(0) {
		seed++ // want {2,4} to be the side the flood relabels
	}
	seq := ringWithHealedPair(seed)
	before := seq.IDChanges(4)
	seq.DeleteAndHeal(1, DASH{})
	if seq.IDChanges(4) == before {
		t.Fatal("setup: killing 1 did not relabel 4")
	}
	seq.Join([]int{4}, rng.New(9))
	conc := ringWithHealedPair(seed)
	conflicts, owner := claimWaitCase(t, conc, 1, func(sc *ShardScheduler) { sc.Join([]int{4}, rng.New(9), nil, nil) })
	if owner == nil || conflicts == 0 {
		t.Fatalf("join into a relabeling component did not wait (conflicts=%d)", conflicts)
	}
	requireStateEqual(t, seq, conc, "join-waits-on-relabel")
}

// permutations returns all permutations of [0, n).
func permutations(n int) [][]int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	var out [][]int
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			out = append(out, append([]int(nil), idx...))
			return
		}
		for i := k; i < n; i++ {
			idx[k], idx[i] = idx[i], idx[k]
			rec(k + 1)
			idx[k], idx[i] = idx[i], idx[k]
		}
	}
	rec(0)
	return out
}
