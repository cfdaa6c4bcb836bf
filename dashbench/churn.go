package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/scenario"
)

// Offline workload sizes. Event counts scale with --seconds so the timed
// phase lasts roughly that long on a 2-core x86 box; the inputs stay a
// pure function of (seed, seconds).
const (
	churnN           = 1_000_000
	churnEventsPerS  = 100_000 // sequential heal loop at n=10^6
	shardEventsPerS  = 20_000  // sharded commit path at n=10^6
	verifiedN        = 40_000
	verifiedEventsPS = 2_500 // ConnTracker-bound at n=4*10^4
	shardCount       = 16    // graph shards, as in CI's shard-scaling job
	sampleSources    = metrics.DefaultSampleSources
)

// events returns the workload's event count for the run length.
func events(perSecond, seconds int, tiny bool) int {
	if tiny {
		return 300
	}
	return perSecond * seconds
}

// churnSchedule is sustained churn with a 2:1 kill:join mix: every third
// event joins a node with 3 attach edges, the BA attachment parameter.
func churnSchedule(events int) scenario.Schedule {
	return scenario.Schedule{Name: "sustained-churn", Phases: []scenario.Phase{scenario.Churn(events, 3, 3)}}
}

// trialRNG mirrors scenario.Run's per-trial generator splits for trial
// 0, so a hand-driven loop draws exactly the inputs scenario.Run would.
type trialRNG struct{ graph, state, victim, op, measure *rng.RNG }

func splitTrial(seed uint64) trialRNG {
	tr := rng.New(seed).Split()
	return trialRNG{graph: tr.Split(), state: tr.Split(), victim: tr.Split(), op: tr.Split(), measure: tr.Split()}
}

// offline is one set-up network for a hand-driven loop.
type offline struct {
	r     trialRNG
	st    *core.State
	alive *scenario.AliveSet

	genS, stateS float64
}

// setUp builds the BA(m=3) network, its state and alive index — the
// same calls, in the same order, as scenario.Run's trial set-up — and
// returns the seconds it took.
func setUp(seed uint64, n int, rec *recorder, parent int32) (*offline, float64) {
	o := &offline{r: splitTrial(seed)}
	t0 := time.Now()
	g := gen.BarabasiAlbert(n, 3, o.r.graph)
	t1 := time.Now()
	o.st = core.NewState(g, o.r.state)
	t2 := time.Now()
	o.alive = scenario.NewAliveSet(o.st.G)
	t3 := time.Now()
	rec.add("gen.BarabasiAlbert", t0, t1, parent, -1)
	rec.add("core.NewState", t1, t2, parent, -1)
	rec.add("scenario.NewAliveSet", t2, t3, parent, -1)
	o.genS, o.stateS = since(t0, t1), since(t1, t2)
	return o, since(t0, t3)
}

// baseline snapshots the stretch baseline the final checkpoint measures
// against. It is measurement machinery, not set-up: ops do not need it,
// so only the attempt that takes the checkpoint builds it.
func (o *offline) baseline(out *outcome, rec *recorder, parent int32) *metrics.AutoStretch {
	t0 := time.Now()
	auto := metrics.NewAutoStretch(o.st.G, 0, sampleSources, o.r.measure)
	t1 := time.Now()
	rec.add("metrics.NewAutoStretch", t0, t1, parent, -1)
	out.layer("metrics.baseline_s", "s", since(t0, t1))
	return auto
}

// pickAttach draws size distinct alive attach targets exactly as the
// scenario runner does.
func (o *offline) pickAttach(size int) []int {
	size = min(size, o.alive.Len())
	attach := make([]int, 0, size)
	for len(attach) < size {
		u := o.alive.Random(o.r.op)
		dup := false
		for _, w := range attach {
			if w == u {
				dup = true
				break
			}
		}
		if !dup {
			attach = append(attach, u)
		}
	}
	return attach
}

// checkpoint measures g's stretch against the baseline and its sampled
// diameter, exactly like the scenario runner's checkpoint.
func checkpoint(out *outcome, g *graph.Graph, auto *metrics.AutoStretch, r *rng.RNG, rec *recorder, parent int32) {
	k := sampleSources
	if !auto.Sampled() {
		k = 0
	}
	runtime.GC() // measure the checkpoint, not the collection of the run's garbage
	t0 := time.Now()
	st := auto.Measure(g)
	d := metrics.SampledDiameter(g, k, r)
	t1 := time.Now()
	rec.add("metrics.Checkpoint", t0, t1, parent, -1)
	out.maxStretch = st.Max
	out.layer("metrics.final_s", "s", since(t0, t1))
	out.layer("metrics.bfs_sources", "count", float64(st.Sources+d.Sources))
}

// liveHeapMB forces a collection and returns the live heap.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// costModel reports the paper's cost-model counts of a sequential state:
// Lemma 8 label messages per heal, Lemma 9 amortized flood depth, and the
// largest number of label changes any node saw.
func costModel(out *outcome, st *core.State) {
	var msgs int64
	for v := 0; v < st.N(); v++ {
		msgs += st.Messages(v) // each message counts at sender and receiver
	}
	perHeal := 0.0
	if st.Rounds() > 0 {
		perHeal = float64(msgs) / 2 / float64(st.Rounds())
	}
	out.layer("core.label_msgs_per_heal", "msgs", perHeal)
	out.layer("core.flood_depth_amortized", "hops", st.AmortizedFloodDepth())
	out.layer("core.max_id_changes", "count", float64(st.MaxIDChanges()))
}

// checkOffline applies the offline correctness checks: the final graph is
// connected and peak δ stays within the paper's 2·log₂ n bound.
func checkOffline(out *outcome, g *graph.Graph, n int) {
	out.check(g.Connected(), "final graph is disconnected")
	bound := 2 * math.Log2(float64(n))
	out.check(out.peakDelta <= bound, "peak δ %.0f exceeds 2·log₂ n = %.1f", out.peakDelta, bound)
}

// sequential runs the schedule through scenario.Run with no
// measurement: the reference a hand-driven loop must match.
func sequential(seed uint64, n, evs int, h core.Healer) (scenario.TrialResult, error) {
	res, err := scenario.Run(scenario.Config{
		NewGraph:     func(r *rng.RNG) *graph.Graph { return gen.BarabasiAlbert(n, 3, r) },
		Schedule:     churnSchedule(evs),
		Healer:       h,
		Seed:         seed,
		Workers:      1,
		MeasureEvery: -1,
	})
	if err != nil {
		return scenario.TrialResult{}, fmt.Errorf("reference scenario.Run: %w", err)
	}
	return res.Trials[0], nil
}

// pass runs cfg.attempts attempts of one workload under a root span and
// records the pass's wall clock. Each attempt sets up a fresh network;
// with cfg.measure the last one also builds the stretch baseline, takes
// the final checkpoint and reports the per-layer metrics.
func pass(cfg runConfig, out *outcome, attempt func(measure bool, root int32)) *outcome {
	t0 := time.Now()
	root := cfg.rec.open("bench.Pass", t0, -1)
	for a := 0; a < cfg.attempts; a++ {
		runtime.GC() // free the previous attempt's network first
		s0, n := stolenSeconds(), len(out.attempts)
		attempt(cfg.measure && a == cfg.attempts-1, root)
		if len(out.attempts) > n {
			out.attempts[n].steal = stolenSeconds() - s0
		}
	}
	t1 := time.Now()
	cfg.rec.close(root, t1)
	out.passWall = since(t0, t1)
	return out
}

// runChurn1M is sequential scenario.Run: SDASH, sustained churn at
// n=10^6, connectivity tracking off, and (on a measuring attempt) one
// final sampled checkpoint. Set-up, op commits and checkpoint are timed
// through the NewGraph, Observe and ObserveLatency callbacks; the gaps
// between them are the scenario runner's own time.
func runChurn1M(cfg runConfig) *outcome {
	n, evs := churnN, events(churnEventsPerS, cfg.seconds, cfg.tiny)
	if cfg.tiny {
		n = 2000
	}
	kinds, _ := churnSchedule(evs).Compile()
	out := &outcome{}
	return pass(cfg, out, func(measure bool, root int32) { churnAttempt(cfg, out, n, kinds, measure, root) })
}

func churnAttempt(cfg runConfig, out *outcome, n int, kinds []scenario.Event, measure bool, root int32) {
	var (
		rec                     = cfg.rec
		st                      *core.State
		tGen0, tGen1, tObs, tOp time.Time
		firstOp, lastOp         time.Time
		kill, join              samples
		busy, heapDone          time.Duration
		i                       int
		at                      attempt
	)
	every := -1 // no baseline, no checkpoint
	if measure {
		every = 0 // one checkpoint, at the end
	}
	tRun := time.Now()
	runSpan := rec.open("scenario.Run", tRun, root)
	res, err := scenario.Run(scenario.Config{
		NewGraph: func(r *rng.RNG) *graph.Graph {
			tGen0 = time.Now()
			g := gen.BarabasiAlbert(n, 3, r)
			tGen1 = time.Now()
			return g
		},
		Schedule:      churnSchedule(len(kinds)),
		Healer:        core.SDASH{},
		Seed:          cfg.seed,
		Workers:       1,
		MeasureEvery:  every,
		SampleSources: sampleSources,
		Observe: func(_ int, s *core.State) {
			st = s
			tObs = time.Now()
		},
		ObserveLatency: func(d time.Duration) {
			tOp = time.Now()
			start := tOp.Add(-d)
			if i == 0 {
				firstOp = start
			}
			lastOp = tOp
			busy += d
			name := "core.DeleteAndHeal"
			if kinds[i].Kind == scenario.OpInsert {
				name = "core.Join"
				join.add(d)
			} else {
				kill.add(d)
			}
			at.lat.add(d)
			rec.add(name, start, tOp, runSpan, int64(i))
			i++
			if i == len(kinds) {
				// End of the timed phase: the trial's whole working set
				// (state, alive index and, when measuring, the stretch
				// baseline) is still live.
				h0 := time.Now()
				at.heapMB = liveHeapMB()
				heapDone = time.Since(h0)
				rec.add("bench.HeapCheck", h0, h0.Add(heapDone), runSpan, -1)
			}
		},
	})
	tEnd := time.Now()
	rec.close(runSpan, tEnd)
	out.attempted += len(kinds)
	out.failed += len(kinds) - i
	if err != nil {
		out.check(false, "scenario.Run: %v", err)
		return
	}
	tr := res.Trials[0]
	rec.add("gen.BarabasiAlbert", tGen0, tGen1, runSpan, -1)
	rec.add("core.NewState", tGen1, tObs, runSpan, -1)
	// Set-up ends when the state exists; building the alive index (~1% of
	// set-up) and, on a measuring attempt, the stretch baseline fill the
	// gap to the first op.
	gapName := "scenario.NewAliveSet"
	if measure {
		gapName = "metrics.NewAutoStretch"
	}
	rec.add(gapName, tObs, firstOp, runSpan, -1)
	at.setup = since(tRun, tObs)
	at.ops = i
	at.wall = since(firstOp, lastOp)
	out.attempts = append(out.attempts, at)
	out.check(i == len(kinds), "%d of %d ops reported a commit latency", i, len(kinds))
	out.check(!tr.Exhausted, "victim selection exhausted")
	out.peakDelta = float64(tr.PeakDelta)
	checkOffline(out, st.G, n)
	if !measure {
		return
	}
	cpStart := lastOp.Add(heapDone)
	rec.add("metrics.Checkpoint", cpStart, tEnd, runSpan, -1)
	out.maxStretch = tr.MaxStretch
	out.layer("gen.build_s", "s", since(tGen0, tGen1))
	out.layer("core.newstate_s", "s", since(tGen1, tObs))
	out.layer("metrics.baseline_s", "s", since(tObs, firstOp))
	out.layer("core.heal_busy_s", "s", busy.Seconds())
	out.layerQ("core.kill_p50_us", &kill, 0.50)
	out.layerQ("core.kill_p99_us", &kill, 0.99)
	out.layerQ("core.join_p50_us", &join, 0.50)
	out.layerQ("core.join_p99_us", &join, 0.99)
	out.layer("scenario.loop_self_s", "s", at.wall-busy.Seconds())
	out.layer("metrics.final_s", "s", since(cpStart, tEnd))
	if cps := tr.Checkpoints; len(cps) > 0 {
		cp := cps[len(cps)-1]
		out.layer("metrics.bfs_sources", "count", float64(cp.Stretch.Sources+cp.Diameter.Sources))
	}
	costModel(out, st)
}

// runChurnSharded drives churn-1m's graph and op stream through
// core.ShardScheduler with one commit worker per CPU, and checks every
// attempt against sequential scenario.Run on the same inputs.
func runChurnSharded(cfg runConfig) *outcome {
	n, evs := churnN, events(shardEventsPerS, cfg.seconds, cfg.tiny)
	if cfg.tiny {
		n = 2000
	}
	kinds, _ := churnSchedule(evs).Compile()
	out := &outcome{}
	want, err := sequential(cfg.seed, n, evs, core.SDASH{})
	if err != nil {
		out.check(false, "%v", err)
		return out
	}
	return pass(cfg, out, func(measure bool, root int32) { shardedAttempt(cfg, out, n, kinds, want, measure, root) })
}

func shardedAttempt(cfg runConfig, out *outcome, n int, kinds []scenario.Event, want scenario.TrialResult, measure bool, root int32) {
	rec := cfg.rec
	o, setupS := setUp(cfg.seed, n, rec, root)
	ts := time.Now()
	ss := core.NewShardedState(o.st, shardCount)
	sched := core.NewShardScheduler(ss, core.SDASH{}, runtime.NumCPU())
	ts1 := time.Now()
	rec.add("core.NewShardScheduler", ts, ts1, root, -1)
	at := attempt{setup: setupS + since(ts, ts1)}
	var auto *metrics.AutoStretch
	if measure {
		auto = o.baseline(out, rec, root)
	}

	var (
		admit, commit samples
		mu            sync.Mutex // guards commit and at.lat: onDone runs on commit workers
		edges         atomic.Int64
	)
	onDone := func(op int) func(*core.ShardTicket) {
		return func(tk *core.ShardTicket) {
			now := time.Now()
			d := now.Sub(tk.Start)
			if tk.Kill {
				edges.Add(int64(len(tk.HR.Added)))
			}
			mu.Lock()
			commit.add(d)
			at.lat.add(d)
			mu.Unlock()
			rec.add("core.Commit", tk.Start, now, root, int64(op))
		}
	}
	start := time.Now()
	for i, ev := range kinds {
		var a0 time.Time
		if ev.Kind == scenario.OpInsert {
			attach := o.pickAttach(ev.Size)
			a0 = time.Now()
			v, _ := sched.Join(attach, o.r.op, nil, onDone(i))
			o.alive.Add(v)
		} else {
			v := scenario.Uniform{}.Pick(o.st, o.alive, o.r.victim)
			o.alive.Remove(v)
			a0 = time.Now()
			sched.Kill(v, nil, onDone(i))
		}
		a1 := time.Now()
		admit.add(a1.Sub(a0))
		rec.add("core.Admit", a0, a1, root, int64(i))
	}
	b0 := time.Now()
	sched.Barrier()
	end := time.Now()
	rec.add("core.Barrier", b0, end, root, -1)
	at.heapMB = liveHeapMB()
	conflicts, universals := sched.Conflicts(), sched.Universals()
	sched.Close()
	at.ops = len(kinds)
	at.wall = since(start, end)
	out.attempts = append(out.attempts, at)
	out.attempted += len(kinds)
	out.peakDelta = float64(ss.PeakDelta())

	// The sharded commit path must end in exactly the network the
	// sequential engine builds from the same inputs.
	out.check(o.st.G.NumAlive() == want.FinalAlive, "final alive %d, sequential %d", o.st.G.NumAlive(), want.FinalAlive)
	out.check(int(edges.Load()) == want.EdgesAdded, "edges added %d, sequential %d", edges.Load(), want.EdgesAdded)
	out.check(int(out.peakDelta) == want.PeakDelta, "peak δ %.0f, sequential %d", out.peakDelta, want.PeakDelta)
	checkOffline(out, o.st.G, n)
	if !measure {
		return
	}
	checkpoint(out, o.st.G, auto, o.r.measure, rec, root)
	out.layer("gen.build_s", "s", o.genS)
	out.layer("core.newstate_s", "s", o.stateS)
	out.layerQ("core.admit_p50_us", &admit, 0.50)
	out.layerQ("core.admit_p99_us", &admit, 0.99)
	out.layerQ("core.commit_p50_us", &commit, 0.50)
	out.layer("core.heal_busy_s", "s", commit.sum()/1e6)
	out.layer("core.shard_conflicts", "count", float64(conflicts))
	out.layer("core.shard_universals", "count", float64(universals))
	costModel(out, o.st)
}

// runChurnVerified is DASH sustained churn at n=4*10^4 with connectivity
// verified after every event, hand-driven through core.State and
// scenario.ConnTracker so each ConnTracker call is timed on its own.
// Every attempt is checked against scenario.Run on the same inputs.
func runChurnVerified(cfg runConfig) *outcome {
	n, evs := verifiedN, events(verifiedEventsPS, cfg.seconds, cfg.tiny)
	if cfg.tiny {
		n = 2000
	}
	kinds, _ := churnSchedule(evs).Compile()
	out := &outcome{}
	want, err := sequential(cfg.seed, n, evs, core.DASH{})
	if err != nil {
		out.check(false, "%v", err)
		return out
	}
	return pass(cfg, out, func(measure bool, root int32) { verifiedAttempt(cfg, out, n, kinds, want, measure, root) })
}

func verifiedAttempt(cfg runConfig, out *outcome, n int, kinds []scenario.Event, want scenario.TrialResult, measure bool, root int32) {
	rec := cfg.rec
	o, setupS := setUp(cfg.seed, n, rec, root)
	c0 := time.Now()
	conn := scenario.NewConnTracker(o.st.G, 1)
	c1 := time.Now()
	rec.add("scenario.NewConnTracker", c0, c1, root, -1)
	at := attempt{setup: setupS + since(c0, c1)}
	var auto *metrics.AutoStretch
	if measure {
		auto = o.baseline(out, rec, root)
	}

	var (
		kill, join samples
		busy, cs   time.Duration
		checks     int
		edges      int
		peak       int
		nbrs       []int
	)
	healer := core.DASH{}
	start := time.Now()
	for i, ev := range kinds {
		var h0, h1, h2 time.Time
		name := "core.DeleteAndHeal"
		if ev.Kind == scenario.OpInsert {
			attach := o.pickAttach(ev.Size)
			h0 = time.Now()
			v := o.st.Join(attach, o.r.op)
			h1 = time.Now()
			o.alive.Add(v)
			for _, u := range attach {
				peak = max(peak, o.st.Delta(u))
			}
			conn.AfterJoin(o.st.G, len(attach), i)
			h2 = time.Now()
			name = "core.Join"
			join.add(h1.Sub(h0))
		} else {
			v := scenario.Uniform{}.Pick(o.st, o.alive, o.r.victim)
			nbrs = o.st.G.AppendNeighbors(nbrs[:0], v)
			o.alive.Remove(v)
			h0 = time.Now()
			hr := o.st.DeleteAndHeal(v, healer)
			h1 = time.Now()
			edges += len(hr.Added)
			for _, e := range hr.Added {
				peak = max(peak, o.st.Delta(e[0]), o.st.Delta(e[1]))
			}
			conn.AfterDelete(o.st.G, nbrs, i)
			h2 = time.Now()
			checks++
			kill.add(h1.Sub(h0))
		}
		at.lat.add(h1.Sub(h0))
		busy += h1.Sub(h0)
		cs += h2.Sub(h1)
		rec.add(name, h0, h1, root, int64(i))
		rec.add("scenario.ConnTracker", h1, h2, root, int64(i))
	}
	end := time.Now()
	at.heapMB = liveHeapMB()
	at.ops = len(kinds)
	at.wall = since(start, end)
	out.attempts = append(out.attempts, at)
	out.attempted += len(kinds)
	out.peakDelta = float64(peak)

	conn.Flush(o.st.G, len(kinds))
	out.check(conn.StillConnected(), "ConnTracker saw a disconnection at event %d", conn.FirstBreak())
	out.check(o.st.G.NumAlive() == want.FinalAlive, "final alive %d, scenario.Run %d", o.st.G.NumAlive(), want.FinalAlive)
	out.check(edges == want.EdgesAdded, "edges added %d, scenario.Run %d", edges, want.EdgesAdded)
	out.check(peak == want.PeakDelta, "peak δ %d, scenario.Run %d", peak, want.PeakDelta)
	checkOffline(out, o.st.G, n)
	if !measure {
		return
	}
	checkpoint(out, o.st.G, auto, o.r.measure, rec, root)
	out.layer("gen.build_s", "s", o.genS)
	out.layer("core.newstate_s", "s", o.stateS)
	out.layer("core.heal_busy_s", "s", busy.Seconds())
	out.layerQ("core.kill_p50_us", &kill, 0.50)
	out.layerQ("core.kill_p99_us", &kill, 0.99)
	out.layerQ("core.join_p50_us", &join, 0.50)
	out.layerQ("core.join_p99_us", &join, 0.99)
	out.layer("scenario.conn_s", "s", cs.Seconds())
	out.layer("scenario.conn_checks", "count", float64(checks))
	costModel(out, o.st)
}
