package server

// End-to-end properties of the daemon, run under -race by CI:
//
//  1. Hammer the API from many concurrent sessions while a streaming
//     client consumes the event log live; afterwards the consumed prefix
//     must replay — via trace.Replay — to a topology bit-identical to
//     the daemon's own snapshot at that log position. This is the wire
//     format's whole promise: the stream IS the network.
//  2. Snapshot → restore → resume round-trips: a daemon restored from a
//     snapshot serves from exactly that state, streams a fresh
//     generation whose replay matches, and keeps healing correctly.

import (
	"context"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/graphio"
	"repro/internal/rng"
	"repro/internal/scenario"
	"repro/internal/trace"
)

// newHTTPServer fronts s with httptest. The tests shut the daemon down
// themselves (drain semantics are part of what they assert); cleanup
// just backstops with an idempotent Shutdown so a mid-test failure
// cannot leak the apply loop.
func newHTTPServer(t *testing.T, s *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
		ts.Close()
	})
	return ts
}

// scenarioPreset instantiates a named preset for size n.
func scenarioPreset(t *testing.T, name string, n int) (scenario.Schedule, error) {
	t.Helper()
	return scenario.Preset(name, n)
}

// collector accumulates streamed events under a lock so the test can
// poll for a prefix while the stream is still live.
type collector struct {
	mu     sync.Mutex
	events []trace.Event
}

func (c *collector) add(e trace.Event) error {
	c.mu.Lock()
	c.events = append(c.events, e)
	c.mu.Unlock()
	return nil
}

func (c *collector) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.events)
}

// prefix returns a copy of the first n events, blocking until they have
// arrived or the deadline passes.
func (c *collector) prefix(t *testing.T, n int, deadline time.Duration) []trace.Event {
	t.Helper()
	end := time.Now().Add(deadline)
	for c.len() < n {
		if time.Now().After(end) {
			t.Fatalf("stream delivered %d events, still waiting for %d", c.len(), n)
		}
		time.Sleep(2 * time.Millisecond)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]trace.Event(nil), c.events[:n]...)
}

// verifyReplay replays events over initial and demands bit-identical
// agreement with want (both G and G′).
func verifyReplay(t *testing.T, initial *graphio.Snapshot, events []trace.Event, want *graphio.Snapshot) {
	t.Helper()
	g, gp, err := trace.Replay(initial.G.Clone(), events)
	if err != nil {
		t.Fatalf("replaying %d events: %v", len(events), err)
	}
	if !g.Equal(want.G) {
		t.Fatalf("replayed G differs from the daemon's snapshot (alive %d vs %d, edges %d vs %d)",
			g.NumAlive(), want.G.NumAlive(), g.NumEdges(), want.G.NumEdges())
	}
	if !gp.Equal(want.Gp) {
		t.Fatalf("replayed G′ differs from the daemon's snapshot (edges %d vs %d)",
			gp.NumEdges(), want.Gp.NumEdges())
	}
}

func TestE2EHammerStreamReplay(t *testing.T) {
	s := New(Config{Seed: 21, QueueDepth: 64}, gen.BarabasiAlbert(400, 3, rng.New(21)))
	ts := newHTTPServer(t, s)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	c := &Client{BaseURL: ts.URL, RetryWaitCap: 2 * time.Millisecond}
	col := &collector{}
	streamDone := make(chan error, 1)
	go func() { streamDone <- c.StreamEvents(ctx, 0, col.add) }()

	// Hammer: many sessions issuing a join/kill/batch-kill mix. Totals
	// keep the graph comfortably alive (400 + 64 joins vs ~8·(14+2·3)
	// kills), so no session ever races an emptied network.
	const sessions = 8
	var wg sync.WaitGroup
	for w := 0; w < sessions; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				var err error
				switch {
				case i%5 == 1 && w%2 == 0:
					_, err = c.Join(ctx, nil, 3)
				case i%7 == 3:
					_, err = c.BatchKill(ctx, nil, 3, -1)
				default:
					_, err = c.Kill(ctx, -1)
				}
				if err != nil {
					t.Errorf("session %d op %d: %v", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	// Snapshot the served topology; its header pins the log prefix it is
	// consistent with, even if other traffic were still arriving.
	snap, events, gen, err := c.Snapshot(ctx, "current")
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if gen != 1 {
		t.Fatalf("generation %d, want 1 (no restore happened)", gen)
	}
	initial, initEvents, _, err := c.Snapshot(ctx, "initial")
	if err != nil {
		t.Fatalf("initial snapshot: %v", err)
	}
	if initEvents != 0 {
		t.Fatalf("fresh daemon's initial snapshot claims %d prologue events, want 0", initEvents)
	}
	verifyReplay(t, initial, col.prefix(t, events, 30*time.Second), snap)

	// Drain: the stream must end cleanly having delivered the whole log.
	st, err := c.Stats(ctx, false, true)
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-streamDone; err != nil {
		t.Fatalf("stream ended with %v, want clean EOF", err)
	}
	if col.len() != st.Events {
		t.Fatalf("stream delivered %d events, daemon logged %d", col.len(), st.Events)
	}
	if st.Kills == 0 || st.Joins == 0 || st.BatchKills == 0 || st.HealLatency.Count == 0 {
		t.Errorf("counters did not move: %+v", st)
	}
}

func TestE2ESnapshotRestoreResume(t *testing.T) {
	s := New(Config{Seed: 33}, gen.BarabasiAlbert(200, 3, rng.New(33)))
	ts := newHTTPServer(t, s)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	c := &Client{BaseURL: ts.URL}

	// Phase 1: damage the network so the snapshot carries a non-trivial
	// healing forest, then capture it.
	for i := 0; i < 30; i++ {
		if _, err := c.Kill(ctx, -1); err != nil {
			t.Fatalf("phase-1 kill %d: %v", i, err)
		}
	}
	if _, err := c.BatchKill(ctx, nil, 5, -1); err != nil {
		t.Fatalf("phase-1 batch kill: %v", err)
	}
	saved, _, gen1, err := c.Snapshot(ctx, "current")
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if saved.Gp.NumEdges() == 0 {
		t.Fatal("snapshot carries no healing edges; the restore path is untested")
	}

	// A pre-restore subscriber must end cleanly when the generation dies.
	// It must be subscribed before the restore: a request that reaches
	// the daemon afterwards follows the new generation instead. Its
	// first phase-1 event proves the subscription.
	oldStream := make(chan error, 1)
	subscribed := make(chan struct{})
	var once sync.Once
	go func() {
		oldStream <- c.StreamEvents(ctx, 0, func(trace.Event) error {
			once.Do(func() { close(subscribed) })
			return nil
		})
	}()
	select {
	case <-subscribed:
	case err := <-oldStream:
		t.Fatalf("pre-restore stream ended before its first event: %v", err)
	}

	// Phase 2: diverge, then restore the saved state over it.
	for i := 0; i < 20; i++ {
		if _, err := c.Kill(ctx, -1); err != nil {
			t.Fatalf("phase-2 kill %d: %v", i, err)
		}
	}
	if err := c.Restore(ctx, saved); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if err := <-oldStream; err != nil {
		t.Fatalf("pre-restore stream ended with %v, want clean EOF on generation change", err)
	}

	// The daemon now serves exactly the saved state.
	back, events, gen2, err := c.Snapshot(ctx, "current")
	if err != nil {
		t.Fatalf("post-restore snapshot: %v", err)
	}
	if gen2 <= gen1 {
		t.Fatalf("generation did not advance on restore: %d -> %d", gen1, gen2)
	}
	if !back.G.Equal(saved.G) || !back.Gp.Equal(saved.Gp) {
		t.Fatal("restored daemon does not serve the saved topology")
	}
	if events != saved.Gp.NumEdges() {
		t.Fatalf("post-restore log holds %d events, want the %d-edge G′ prologue", events, saved.Gp.NumEdges())
	}

	// Phase 3: resume — new traffic heals on top of the restored state,
	// and a fresh stream from 0 (prologue included) replays to the final
	// topology bit-identically.
	col := &collector{}
	streamDone := make(chan error, 1)
	go func() { streamDone <- c.StreamEvents(ctx, 0, col.add) }()
	for i := 0; i < 25; i++ {
		var err error
		if i%6 == 2 {
			_, err = c.Join(ctx, nil, 2)
		} else {
			_, err = c.Kill(ctx, -1)
		}
		if err != nil {
			t.Fatalf("phase-3 op %d: %v", i, err)
		}
	}
	final, finalEvents, _, err := c.Snapshot(ctx, "current")
	if err != nil {
		t.Fatalf("final snapshot: %v", err)
	}
	initial, _, _, err := c.Snapshot(ctx, "initial")
	if err != nil {
		t.Fatalf("initial snapshot: %v", err)
	}
	if !initial.G.Equal(saved.G) {
		t.Fatal("generation baseline is not the restored snapshot")
	}
	verifyReplay(t, initial, col.prefix(t, finalEvents, 30*time.Second), final)

	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-streamDone; err != nil {
		t.Fatalf("post-restore stream ended with %v, want clean EOF", err)
	}
}

// TestE2ELoadGenerator drives a real scenario preset through RunLoad
// against a small daemon and checks the report's arithmetic.
func TestE2ELoadGenerator(t *testing.T) {
	s := New(Config{Seed: 44, QueueDepth: 32}, gen.BarabasiAlbert(500, 3, rng.New(44)))
	ts := newHTTPServer(t, s)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	c := &Client{BaseURL: ts.URL, RetryWaitCap: 2 * time.Millisecond}

	sched, err := scenarioPreset(t, "sustained-churn", 120)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunLoad(ctx, c, LoadConfig{Schedule: sched, Sessions: 6})
	if err != nil {
		t.Fatalf("load run: %v", err)
	}
	if rep.Errors != 0 {
		t.Errorf("load run saw %d request errors", rep.Errors)
	}
	if rep.Requests == 0 || rep.RPS <= 0 {
		t.Errorf("empty report: %+v", rep)
	}
	if rep.P50 > rep.P95 || rep.P95 > rep.P99 {
		t.Errorf("quantiles out of order: p50 %v p95 %v p99 %v", rep.P50, rep.P95, rep.P99)
	}
	st, err := c.Stats(ctx, true, true)
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if got := rep.NodesJoined; got != st.Joins {
		t.Errorf("report joins %d, daemon counted %d", got, st.Joins)
	}
	if st.Stretch == nil || st.Stretch.MaxStretch < 1 {
		t.Errorf("stretch sample missing or degenerate: %+v", st.Stretch)
	}
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}
