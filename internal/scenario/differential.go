package scenario

// The differential replay harness: one scenario schedule executed
// through the sequential engine (internal/core, driven by the scenario
// runner) and the distributed engine (internal/dist) in lockstep, with
// exact equivalence — topology G, healing forest G′, every component
// label, every δ, and the Lemma 9 flood accounting — asserted after
// every mutating event. Since the distributed engine gained KillBatch,
// schedules may contain Disaster phases: correlated batch kills replay
// through the staged batch epoch and must match core.DeleteBatchAndHeal
// bit for bit.
//
// The harness is a library (not test-only) so cmd/scenario can replay a
// preset differentially from the command line; the randomized-schedule
// tests in diff_test.go and the n=10k disaster gate CI runs are thin
// wrappers around ReplayDifferential.
//
// Two replay modes exist since the distributed engine dropped its
// global quiescence barrier: Lockstep (one blocking op at a time,
// checked after every event) and Pipelined (ops issued asynchronously
// in windows so disjoint heal epochs overlap, checked at every window
// flush) — see DiffMode.

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/rng"
)

// DiffReport summarizes one differential replay.
type DiffReport struct {
	Events     int // schedule events executed
	Kills      int // single deletions replayed
	Joins      int // arrivals replayed
	BatchKills int // batch-kill epochs replayed
	Killed     int // nodes removed by batch kills
	Rounds     int // healing rounds (each batch epoch counts once)
}

// seqOp is one concrete mutation the sequential runner performed,
// captured through core hooks and replayed against the distributed
// network.
type seqOp struct {
	kill   bool
	batch  []int // batch kill when non-nil
	node   int
	attach []int
	initID uint64
}

// healerKind maps a sequential healer to the distributed rule that
// mirrors it, or fails for healers with no distributed implementation.
func healerKind(h core.Healer) (dist.HealerKind, error) {
	switch h.(type) {
	case core.DASH:
		return dist.HealDASH, nil
	case core.SDASH:
		return dist.HealSDASH, nil
	default:
		return 0, fmt.Errorf("scenario: healer %q has no distributed counterpart (want DASH or SDASH)", h.Name())
	}
}

// DiffMode selects how mutations reach the distributed engine.
type DiffMode int

const (
	// Lockstep replays each mutation with a blocking call and asserts
	// full equivalence after every mutating event: maximal checking
	// density, no epoch overlap.
	Lockstep DiffMode = iota
	// Pipelined issues mutations asynchronously in windows of
	// DefaultDiffWindow ops, so disjoint heal epochs genuinely overlap
	// inside the window, then drains and asserts full equivalence at
	// each window boundary. The equivalence demanded at a flush point is
	// the same bit-exact one Lockstep demands — including the Lemma 9
	// flood accounting, which survives pipelining because no concurrent
	// epoch reads or writes the labels a flood rewrites.
	Pipelined
)

// DefaultDiffWindow is the number of mutations issued asynchronously
// between drain-and-check flush points in Pipelined mode.
const DefaultDiffWindow = 8

// ReplayDifferential executes one trial of cfg's schedule through the
// sequential engine and replays every mutation — single kills, joins,
// and batch-kill epochs — onto a distributed network of the matching
// healer kind in lockstep, verifying exact G/G′/label/δ equality after
// every mutating event and exact flood-depth accounting at the end.
// cfg.Observe is taken over by the harness (a caller-provided Observe is
// still invoked first); Trials and Workers are ignored — a differential
// replay is inherently one serial trial. The per-round timeout guards
// against a wedged distributed round.
func ReplayDifferential(cfg Config, timeout time.Duration) (DiffReport, error) {
	return ReplayDifferentialMode(cfg, Lockstep, timeout)
}

// ReplayDifferentialMode is ReplayDifferential with an explicit replay
// mode. Pipelined keeps up to DefaultDiffWindow heal epochs in flight
// before each drain-and-check flush, exercising the epoch scheduler's
// conflict chaining under the full scenario op mix at scale — the
// randomized, large-n complement to the modelcheck package's exhaustive
// small-config enumeration.
func ReplayDifferentialMode(cfg Config, mode DiffMode, timeout time.Duration) (DiffReport, error) {
	kind, err := healerKind(cfg.Healer)
	if err != nil {
		return DiffReport{}, err
	}
	events, err := cfg.Schedule.Compile()
	if err != nil {
		return DiffReport{}, err
	}
	if cfg.NewGraph == nil {
		return DiffReport{}, fmt.Errorf("scenario: Config needs NewGraph")
	}
	newVictim := cfg.NewVictim
	if newVictim == nil {
		newVictim = func() VictimPolicy { return Uniform{} }
	}

	var (
		seqState *core.State
		ops      []seqOp
		pending  map[int]bool // members of the batch op being captured
	)
	userObserve := cfg.Observe
	cfg.Observe = func(trial int, s *core.State) {
		if userObserve != nil {
			userObserve(trial, s)
		}
		seqState = s
		s.SetHooks(&core.Hooks{
			OnBatchKill: func(xs []int) {
				batch := append([]int(nil), xs...)
				ops = append(ops, seqOp{batch: batch})
				if pending == nil {
					pending = make(map[int]bool)
				}
				for _, x := range batch {
					pending[x] = true
				}
			},
			OnRemove: func(x int) {
				if pending[x] {
					// Constituent removal of the batch op just captured.
					delete(pending, x)
					return
				}
				ops = append(ops, seqOp{kill: true, node: x})
			},
			OnJoin: func(v int, attach []int) {
				ops = append(ops, seqOp{
					node:   v,
					attach: append([]int(nil), attach...),
					initID: s.InitID(v),
				})
			},
		})
	}

	master := rng.New(cfg.Seed)
	run := newTrialRun(cfg, events, newVictim(), 0, master.Split())
	if seqState == nil {
		return DiffReport{}, fmt.Errorf("scenario: Observe never fired")
	}
	ids := make([]uint64, seqState.N())
	for v := range ids {
		ids[v] = seqState.InitID(v)
	}
	nw := dist.NewKind(seqState.G.Clone(), ids, kind)
	defer nw.Close()

	var rep DiffReport
	inFlight := 0
	flush := func() error {
		if inFlight == 0 {
			return nil
		}
		if err := nw.Drain(timeout); err != nil {
			return fmt.Errorf("event %d (flush of %d in-flight epochs): %w", run.res.Events, inFlight, err)
		}
		inFlight = 0
		return diffCheck(run.res.Events, nw, seqState)
	}
	for {
		more := run.step()
		mutated := len(ops) > 0
		for _, op := range ops {
			switch {
			case op.batch != nil:
				rep.BatchKills++
				rep.Killed += len(op.batch)
				if mode == Pipelined {
					nw.KillBatchAsync(op.batch)
					inFlight++
				} else if err := nw.KillBatchWithTimeout(op.batch, timeout); err != nil {
					return rep, fmt.Errorf("event %d (batch kill %v): %w", run.res.Events, op.batch, err)
				}
			case op.kill:
				rep.Kills++
				if mode == Pipelined {
					nw.KillAsync(op.node)
					inFlight++
				} else if err := nw.KillWithTimeout(op.node, timeout); err != nil {
					return rep, fmt.Errorf("event %d (kill %d): %w", run.res.Events, op.node, err)
				}
			default:
				rep.Joins++
				var v int
				var err error
				if mode == Pipelined {
					v, _ = nw.JoinAsync(op.attach, op.initID)
					inFlight++
				} else if v, err = nw.JoinWithTimeout(op.attach, op.initID, timeout); err != nil {
					return rep, fmt.Errorf("event %d (join): %w", run.res.Events, err)
				}
				if v != op.node {
					return rep, fmt.Errorf("event %d: join index %d, sequential %d", run.res.Events, v, op.node)
				}
			}
		}
		ops = ops[:0]
		switch mode {
		case Pipelined:
			// Drain and verify only at window boundaries, so up to a
			// window's worth of heal epochs overlap in between.
			if inFlight >= DefaultDiffWindow {
				if err := flush(); err != nil {
					return rep, err
				}
			}
		default:
			if mutated {
				if err := diffCheck(run.res.Events, nw, seqState); err != nil {
					return rep, err
				}
			}
		}
		if !more {
			break
		}
	}
	if err := flush(); err != nil {
		return rep, err
	}
	rep.Events = run.finish().Events

	sum, maxDepth, rounds := nw.FloodStats()
	rep.Rounds = rounds
	if rounds != seqState.Rounds() {
		return rep, fmt.Errorf("distributed saw %d healing rounds, sequential %d", rounds, seqState.Rounds())
	}
	if sum != seqState.FloodDepthSum() || maxDepth != seqState.MaxFloodDepth() {
		return rep, fmt.Errorf("flood stats (%d,%d), sequential (%d,%d)",
			sum, maxDepth, seqState.FloodDepthSum(), seqState.MaxFloodDepth())
	}
	return rep, nil
}

// diffCheck asserts exact equality of the distributed snapshot and the
// sequential state, and that the epoch scheduler's label mirror matches
// the labels the nodes hold.
func diffCheck(event int, nw *dist.Network, seq *core.State) error {
	snap := nw.Snapshot()
	if !snap.G.Equal(seq.G) {
		return fmt.Errorf("event %d: distributed G diverged", event)
	}
	if !snap.Gp.Equal(seq.Gp) {
		return fmt.Errorf("event %d: distributed G′ diverged", event)
	}
	if !snap.Gp.IsSubgraphOf(snap.G) {
		return fmt.Errorf("event %d: G′ ⊄ G", event)
	}
	for _, v := range seq.G.AliveNodes() {
		if snap.CurID[v] != seq.CurID(v) {
			return fmt.Errorf("event %d: node %d label %d, sequential %d", event, v, snap.CurID[v], seq.CurID(v))
		}
		if snap.LabelMirror[v] != snap.CurID[v] {
			return fmt.Errorf("event %d: node %d label %d, scheduler's label mirror %d", event, v, snap.CurID[v], snap.LabelMirror[v])
		}
		if snap.Delta[v] != seq.Delta(v) {
			return fmt.Errorf("event %d: node %d δ %d, sequential %d", event, v, snap.Delta[v], seq.Delta(v))
		}
	}
	return nil
}
