package main

import (
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/scenario"
)

const (
	distN         = 20_000
	distOpsPerS   = 2_500
	distInFlight  = 8
	epochDeadline = 60 * time.Second
)

// distOp is one mutation the sequential engine performed, replayed as an
// async epoch.
type distOp struct {
	kill   bool
	node   int
	attach []int
	id     uint64
}

// distReference runs the schedule through sequential scenario.Run (DASH)
// and captures, through core hooks, the initial network and every
// mutation in order. It is input generation plus the oracle, not part of
// any timed phase.
func distReference(seed uint64, n, evs int) (g0 *graph.Graph, ids []uint64, ops []distOp, st *core.State, peak int, err error) {
	res, err := scenario.Run(scenario.Config{
		NewGraph:     func(r *rng.RNG) *graph.Graph { return gen.BarabasiAlbert(n, 3, r) },
		Schedule:     churnSchedule(evs),
		Healer:       core.DASH{},
		Seed:         seed,
		Workers:      1,
		MeasureEvery: -1,
		Observe: func(_ int, s *core.State) {
			st = s
			g0 = s.G.Clone()
			ids = make([]uint64, s.N())
			for v := range ids {
				ids[v] = s.InitID(v)
			}
			s.SetHooks(&core.Hooks{
				OnRemove: func(x int) { ops = append(ops, distOp{kill: true, node: x}) },
				OnJoin: func(v int, attach []int) {
					ops = append(ops, distOp{node: v, attach: append([]int(nil), attach...), id: s.InitID(v)})
				},
			})
		},
	})
	if err != nil {
		return nil, nil, nil, nil, 0, err
	}
	return g0, ids, ops, st, res.Trials[0].PeakDelta, nil
}

// runDist replays the sequential engine's op stream on the
// goroutine-per-node network as async epochs, distInFlight at a time,
// and checks every drained network against the sequential reference.
func runDist(cfg runConfig) *outcome {
	n, evs := distN, events(distOpsPerS, cfg.seconds, cfg.tiny)
	if cfg.tiny {
		n = 2000
	}
	out := &outcome{}
	g0, ids, ops, ref, peak, err := distReference(cfg.seed, n, evs)
	if err != nil {
		out.check(false, "reference scenario.Run: %v", err)
		return out
	}
	out.peakDelta = float64(peak)
	return pass(cfg, out, func(measure bool, root int32) {
		g := g0.Clone() // input preparation, outside the timed set-up
		runtime.GC()
		distAttempt(cfg, out, g, g0, ids, ops, ref, measure, root)
	})
}

func distAttempt(cfg runConfig, out *outcome, g, g0 *graph.Graph, ids []uint64, ops []distOp, ref *core.State, measure bool, root int32) {
	rec := cfg.rec
	s0 := time.Now()
	nw := dist.NewKind(g, ids, dist.HealDASH)
	s1 := time.Now()
	defer nw.Close()
	rec.add("dist.NewKind", s0, s1, root, -1)
	at := attempt{setup: since(s0, s1)}
	measureR := splitTrial(cfg.seed).measure
	var auto *metrics.AutoStretch
	if measure {
		b0 := time.Now()
		auto = metrics.NewAutoStretch(g0, 0, sampleSources, measureR)
		b1 := time.Now()
		rec.add("metrics.NewAutoStretch", b0, b1, root, -1)
		out.layer("metrics.baseline_s", "s", since(b0, b1))
	}

	var (
		issue    samples
		mu       sync.Mutex // guards at.lat and failures
		failures int
		waiters  sync.WaitGroup
		slots    = make(chan struct{}, distInFlight) // in-flight window
	)
	start := time.Now()
	for i, op := range ops {
		slots <- struct{}{}
		a0 := time.Now()
		var ep *dist.Epoch
		name := "dist.KillAsync"
		if op.kill {
			ep = nw.KillAsync(op.node)
		} else {
			name = "dist.JoinAsync"
			var v int
			v, ep = nw.JoinAsync(op.attach, op.id)
			out.check(v == op.node, "op %d: join index %d, sequential %d", i, v, op.node)
		}
		a1 := time.Now()
		issue.add(a1.Sub(a0))
		rec.add(name, a0, a1, root, int64(i))
		waiters.Add(1)
		go func(i int, a0 time.Time) {
			defer waiters.Done()
			err := ep.Wait(epochDeadline)
			done := time.Now()
			<-slots
			mu.Lock()
			if err != nil {
				failures++
			} else {
				at.lat.add(done.Sub(a0))
			}
			mu.Unlock()
			rec.add("dist.Epoch.Wait", a0, done, root, int64(i))
		}(i, a0)
	}
	waiters.Wait()
	d0 := time.Now()
	drainErr := nw.Drain(epochDeadline)
	end := time.Now()
	rec.add("dist.Drain", d0, end, root, -1)
	at.heapMB = liveHeapMB()
	at.ops = at.lat.n()
	at.wall = since(start, end)
	out.attempts = append(out.attempts, at)
	out.attempted += len(ops)
	out.failed += failures
	out.check(drainErr == nil, "drain: %v", drainErr)

	s2 := time.Now()
	snap := nw.Snapshot()
	rec.add("dist.Snapshot", s2, time.Now(), root, -1)
	// The drained network must equal the sequential reference exactly.
	out.check(snap.G.Equal(ref.G), "distributed G diverged from the sequential reference")
	out.check(snap.Gp.Equal(ref.Gp), "distributed G′ diverged from the sequential reference")
	for _, v := range ref.G.AliveNodes() {
		if snap.CurID[v] != ref.CurID(v) || snap.Delta[v] != ref.Delta(v) {
			out.check(false, "node %d: label/δ (%d,%d), sequential (%d,%d)", v, snap.CurID[v], snap.Delta[v], ref.CurID(v), ref.Delta(v))
			break
		}
	}
	sum, maxDepth, rounds := nw.FloodStats()
	out.check(rounds == ref.Rounds() && sum == ref.FloodDepthSum() && maxDepth == ref.MaxFloodDepth(),
		"flood stats (%d,%d,%d), sequential (%d,%d,%d)", sum, maxDepth, rounds, ref.FloodDepthSum(), ref.MaxFloodDepth(), ref.Rounds())
	checkOffline(out, snap.G, len(ids))
	if !measure {
		return
	}
	checkpoint(out, snap.G, auto, measureR, rec, root)
	out.layerQ("dist.issue_p50_us", &issue, 0.50)
	out.layerQ("dist.issue_p99_us", &issue, 0.99)
	out.layer("dist.drain_s", "s", since(d0, end))
	var label, coord, non int64
	for v := range snap.MsgSent {
		label += snap.MsgSent[v]
		coord += snap.CoordMsgs[v]
		non += snap.NoNMsgs[v]
	}
	epochs := float64(max(len(ops), 1))
	out.layer("dist.label_msgs_per_epoch", "msgs", float64(label)/epochs)
	out.layer("dist.coord_msgs_per_epoch", "msgs", float64(coord)/epochs)
	out.layer("dist.non_msgs_per_epoch", "msgs", float64(non)/epochs)
	amortized := 0.0
	if rounds > 0 {
		amortized = float64(sum) / float64(rounds)
	}
	out.layer("dist.flood_depth_amortized", "hops", amortized)
}
