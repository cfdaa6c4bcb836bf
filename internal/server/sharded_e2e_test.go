package server

// End-to-end coverage of the sharded apply loop (Config.CommitWorkers):
// the same hammer-stream-replay property as the sequential e2e test, but
// with region-disjoint kills and joins committing concurrently. The
// replay check is the strong one: whatever order concurrent commits
// publish in, the streamed log must still replay to a topology
// bit-identical to the daemon's own snapshot.

import (
	"context"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/rng"
)

func TestE2EShardedHammerStreamReplay(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	s := New(Config{Seed: 77, QueueDepth: 64, CommitWorkers: 4, Healer: core.SDASH{}},
		gen.BarabasiAlbert(400, 3, rng.New(77)))
	ts := newHTTPServer(t, s)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	c := &Client{BaseURL: ts.URL, RetryWaitCap: 2 * time.Millisecond}
	col := &collector{}
	streamDone := make(chan error, 1)
	go func() { streamDone <- c.StreamEvents(ctx, 0, col.add) }()

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
					// Batch kills exercise the exclusive (drain) path
					// between concurrent commits.
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

	snap, events, _, err := c.Snapshot(ctx, "current")
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	initial, _, _, err := c.Snapshot(ctx, "initial")
	if err != nil {
		t.Fatalf("initial snapshot: %v", err)
	}
	verifyReplay(t, initial, col.prefix(t, events, 30*time.Second), snap)

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
	if st.Kills == 0 || st.Joins == 0 || st.BatchKills == 0 || st.PeakDelta == 0 {
		t.Errorf("counters did not move: %+v", st)
	}

	// After drain, the final snapshot must be exact (all shard counters
	// folded) and agree with the alive/kill arithmetic.
	fin, err := s.FinalSnapshot()
	if err != nil {
		t.Fatalf("final snapshot: %v", err)
	}
	wantAlive := 400 + int(st.Joins) - int(st.NodesKilled)
	if got := fin.G.NumAlive(); got != wantAlive {
		t.Fatalf("final alive %d, want %d (400 + %d joins - %d killed)",
			got, wantAlive, st.Joins, st.NodesKilled)
	}
}

// TestE2EShardedRestore checks that restore tears down the old
// generation's scheduler and the daemon keeps healing concurrently on
// the new one.
func TestE2EShardedRestore(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	s := New(Config{Seed: 88, CommitWorkers: 2},
		gen.BarabasiAlbert(200, 3, rng.New(88)))
	ts := newHTTPServer(t, s)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	c := &Client{BaseURL: ts.URL}

	for i := 0; i < 25; i++ {
		if _, err := c.Kill(ctx, -1); err != nil {
			t.Fatalf("kill %d: %v", i, err)
		}
	}
	saved, _, _, err := c.Snapshot(ctx, "current")
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if err := c.Restore(ctx, saved); err != nil {
		t.Fatalf("restore: %v", err)
	}
	back, _, _, err := c.Snapshot(ctx, "current")
	if err != nil {
		t.Fatalf("post-restore snapshot: %v", err)
	}
	if !back.G.Equal(saved.G) || !back.Gp.Equal(saved.Gp) {
		t.Fatal("restored daemon does not serve the saved topology")
	}
	for i := 0; i < 25; i++ {
		var err error
		if i%4 == 1 {
			_, err = c.Join(ctx, nil, 2)
		} else {
			_, err = c.Kill(ctx, -1)
		}
		if err != nil {
			t.Fatalf("post-restore op %d: %v", i, err)
		}
	}
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestShardedConfigRejectsForeignHealer pins New's contract: a healer
// without a sharded commit path cannot be paired with CommitWorkers.
func TestShardedConfigRejectsForeignHealer(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("New with CommitWorkers and a non-DASH healer should panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "CommitWorkers") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	New(Config{CommitWorkers: 2, Healer: baseline.GraphHeal{}}, gen.Line(16))
}
