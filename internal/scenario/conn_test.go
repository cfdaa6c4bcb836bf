package scenario

import (
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// sameComponent is the oracle for one check: every alive witness
// carries the same ComponentLabels label.
func sameComponent(g *graph.Graph, witnesses []int) bool {
	labels := g.ComponentLabels()
	label := -1
	for _, w := range witnesses {
		if !g.Alive(w) {
			continue
		}
		if label == -1 {
			label = labels[w]
		} else if labels[w] != label {
			return false
		}
	}
	return true
}

// TestConnTrackerFlushOracle checks Flush's verdict against component
// labels on thousands of random sparse graphs (several components,
// isolated nodes, removed nodes) with witness multisets that repeat and
// include dead nodes, at cadence 1 and above. One tracker serves every
// case, so its epoch-stamped scratch and reused search slots are
// exercised across graphs of different sizes.
func TestConnTrackerFlushOracle(t *testing.T) {
	r := rng.New(13)
	tr := &ConnTracker{firstBreak: -1}
	splits := 0
	for c := 0; c < 6000; c++ {
		n := 1 + r.Intn(40)
		g := graph.New(n)
		for m := r.Intn(n + n/2 + 1); m > 0; m-- {
			if u, v := r.Intn(n), r.Intn(n); u != v {
				g.AddEdge(u, v)
			}
		}
		for k := r.Intn(n/4 + 1); k > 0; k-- {
			if v := r.Intn(n); g.Alive(v) {
				g.RemoveNode(v)
			}
		}
		ws := make([]int, r.Intn(9))
		for i := range ws {
			ws[i] = r.Intn(n)
		}
		if r.Intn(4) == 0 && len(ws) > 1 {
			ws[len(ws)-1] = ws[0]
		}
		want := sameComponent(g, ws)
		if !want {
			splits++
		}

		every := 1 + r.Intn(3)
		tr.ok, tr.firstBreak, tr.every = true, -1, every
		for i := 0; i < every; i++ {
			if !tr.StillConnected() {
				t.Fatalf("case %d: verdict before the cadence-th observation", c)
			}
			tr.AfterDelete(g, ws[i*len(ws)/every:(i+1)*len(ws)/every], 100+i)
		}
		if got := tr.StillConnected(); got != want {
			t.Fatalf("case %d (n=%d, cadence %d, witnesses %v): tracker %v, labels %v",
				c, n, every, ws, got, want)
		}
		wantBreak := -1
		if !want {
			wantBreak = 100 + every - 1
		}
		if tr.FirstBreak() != wantBreak {
			t.Fatalf("case %d: FirstBreak %d, want %d", c, tr.FirstBreak(), wantBreak)
		}
		if len(tr.pending) != 0 {
			t.Fatalf("case %d: %d witnesses left pending after the flush", c, len(tr.pending))
		}
	}
	if splits < 1000 {
		t.Fatalf("only %d of the cases were splits; the generator lost its negative side", splits)
	}
}

// TestConnTrackerMergeMidExpansion: witnesses a, b, c on the graph
//
//	b - a - z - p1 - p2 - p3 - p4 - c
//
// The search from a meets b's on its first neighbor and is absorbed
// into it (b has more left to expand), while a still has z to claim.
// z must land in the survivor's queue: if it went to the absorbed
// search, b's search would empty with c's still running, a false split.
func TestConnTrackerMergeMidExpansion(t *testing.T) {
	const a, b, z, c = 0, 1, 2, 7
	g := graph.New(8)
	g.AddEdge(a, b)
	g.AddEdge(a, z)
	for v := z; v < c; v++ {
		g.AddEdge(v, v+1)
	}
	conn := NewConnTracker(g, 1)
	conn.AfterDelete(g, []int{a, b, c}, 0)
	if !conn.StillConnected() {
		t.Fatalf("connected path reported split at event %d", conn.FirstBreak())
	}
}

// TestConnTrackerSmallFragmentSplit cuts a 4-node tail off a
// 2·10⁴-node BA graph. The tail's search empties after four
// expansions, which proves the split long before the other side is
// swept: the check must cost about the small side, not the graph.
func TestConnTrackerSmallFragmentSplit(t *testing.T) {
	const n = 20_000
	g := gen.BarabasiAlbert(n, 3, rng.New(5))
	cut := g.AddNode()
	g.AddEdge(n-1, cut)
	prev := cut
	for i := 0; i < 4; i++ {
		v := g.AddNode()
		g.AddEdge(prev, v)
		prev = v
	}
	conn := NewConnTracker(g, 1)
	if !conn.StillConnected() {
		t.Fatal("anchor graph disconnected")
	}
	survivors := g.AppendNeighbors(nil, cut)
	g.RemoveNode(cut)
	conn.AfterDelete(g, survivors, 3)
	if conn.StillConnected() || conn.FirstBreak() != 3 {
		t.Fatalf("tail cut off: connected=%v FirstBreak=%d, want split at 3",
			conn.StillConnected(), conn.FirstBreak())
	}
	if conn.visited > 200 {
		t.Fatalf("split found after claiming %d nodes; the fragment has 4", conn.visited)
	}
}

// TestConnTrackerFlushAllocs: a steady-state check reuses its scratch
// and search queues, so it allocates nothing.
func TestConnTrackerFlushAllocs(t *testing.T) {
	g := gen.BarabasiAlbert(2000, 3, rng.New(3))
	conn := NewConnTracker(g, 1)
	ws := []int{5, 600, 1999, 42, 42, 1000}
	if allocs := testing.AllocsPerRun(50, func() { conn.AfterDelete(g, ws, 0) }); allocs != 0 {
		t.Fatalf("check allocated %.1f times", allocs)
	}
	if !conn.StillConnected() {
		t.Fatal("connected BA graph reported split")
	}
}

// churnRun is DASH sustained churn (two kills to one 3-edge join) on
// BA(m=3) with connectivity checked after every deletion: the loop of
// the churn-verified benchmark workload.
func churnRun(tb testing.TB, n, events int, seed uint64) *trialRun {
	sc := Schedule{Name: "sustained-churn", Phases: []Phase{Churn(events, 3, 3)}}
	evs, err := sc.Compile()
	if err != nil {
		tb.Fatal(err)
	}
	cfg := Config{
		NewGraph:          func(r *rng.RNG) *graph.Graph { return gen.BarabasiAlbert(n, 3, r) },
		Schedule:          sc,
		Healer:            core.DASH{},
		Seed:              seed,
		MeasureEvery:      -1,
		TrackConnectivity: true,
		ConnectivityEvery: 1,
	}
	return newTrialRun(cfg, evs, Uniform{}, 0, rng.New(seed).Split())
}

// TestConnTrackerChurnWork bounds the work of a per-event check under
// DASH churn on BA(m=3) at n=4·10⁴ (seed 1, 2 000 events, 1 334
// checks). A single BFS from one witness that stops once it has seen
// the others claims 9 828 nodes per check here, because the farthest
// witness sits a few hops out in a scale-free graph; searches grown
// from every witness until they meet claim 210. (Over 10⁴ events the
// figures are 17 368 and 389.)
func TestConnTrackerChurnWork(t *testing.T) {
	run := churnRun(t, 40_000, 2_000, 1)
	for run.step() {
	}
	if !run.conn.StillConnected() {
		t.Fatalf("DASH churn disconnected at event %d", run.conn.FirstBreak())
	}
	per := float64(run.conn.visited) / float64(run.res.Deletes)
	t.Logf("%d checks, %.0f nodes claimed per check", run.res.Deletes, per)
	if per > 2_000 {
		t.Fatalf("%.0f nodes claimed per check, want at most 2000", per)
	}
}

// BenchmarkConnTrackerChurn times DASH churn events with a per-event
// connectivity check (the churn-verified loop, heal included) and
// reports the nodes each check claims. The network is rebuilt, off the
// clock, every 10⁴ events so it never churns down to nothing.
func BenchmarkConnTrackerChurn(b *testing.B) {
	const chunk = 10_000
	visited, checks := 0, 0
	b.ReportAllocs()
	for done := 0; done < b.N; done += chunk {
		b.StopTimer()
		run := churnRun(b, 40_000, min(chunk, b.N-done), 1)
		b.StartTimer()
		for run.step() {
		}
		visited += run.conn.visited
		checks += run.res.Deletes
	}
	if checks > 0 {
		b.ReportMetric(float64(visited)/float64(checks), "visited/check")
	}
}
