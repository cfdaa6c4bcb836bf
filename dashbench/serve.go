package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graphio"
	"repro/internal/server"
	"repro/internal/trace"
)

const (
	serveN        = 100_000
	serveSessions = 2
	serveOpsPerS  = 14_000 // requests per second of --seconds
)

// daemon is one served network: the server core behind a real loopback
// HTTP listener, and a client for it.
type daemon struct {
	srv    *server.Server
	hs     *http.Server
	served chan error
	c      *server.Client
}

// startDaemon builds BA(n, 3), hands it to server.New and serves its
// Handler on a loopback port. It returns the graph generation time.
func startDaemon(ctx context.Context, seed uint64, n int, rec *recorder, parent int32) (*daemon, float64, error) {
	r := splitTrial(seed)
	t0 := time.Now()
	g := gen.BarabasiAlbert(n, 3, r.graph)
	t1 := time.Now()
	srv := server.New(server.Config{Healer: core.DASH{}, Seed: seed, SampleSources: sampleSources}, g)
	t2 := time.Now()
	rec.add("gen.BarabasiAlbert", t0, t1, parent, -1)
	rec.add("server.New", t1, t2, parent, -1)
	d, err := listen(ctx, srv)
	return d, since(t0, t1), err
}

// listen serves srv's Handler on a loopback port and waits until it
// answers /healthz.
func listen(ctx context.Context, srv *server.Server) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Shutdown(ctx) // the listen error is the one worth reporting
		return nil, fmt.Errorf("listen: %w", err)
	}
	d := &daemon{srv: srv, hs: &http.Server{Handler: srv.Handler()}, served: make(chan error, 1)}
	go func() { d.served <- d.hs.Serve(ln) }()
	d.c = &server.Client{
		BaseURL: "http://" + ln.Addr().String(),
		HTTP:    &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveSessions + 2}},
	}
	if err := d.c.Healthz(ctx); err != nil {
		return nil, errors.Join(fmt.Errorf("healthz: %w", err), d.stop(ctx))
	}
	return d, nil
}

// stop drains the daemon and closes the listener, waiting for the serve
// goroutine to return.
func (d *daemon) stop(ctx context.Context) error {
	err := d.srv.Shutdown(ctx)
	if cerr := d.hs.Shutdown(ctx); cerr != nil {
		err = errors.Join(err, cerr)
	}
	if serr := <-d.served; serr != nil && !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	if t, ok := d.c.HTTP.Transport.(*http.Transport); ok {
		t.CloseIdleConnections()
	}
	return err
}

// runServe drives the daemon from serveSessions closed-loop client
// sessions with the sustained-churn mix (two uniform kills per join of
// three random attach targets), then verifies that the event stream from
// index 0 replays to the post-load snapshot bit for bit. A measuring
// attempt also takes the daemon's stretch checkpoint through /metrics.
func runServe(cfg runConfig) *outcome {
	n := serveN
	if cfg.tiny {
		n = 2000
	}
	out := &outcome{}
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	return pass(cfg, out, func(measure bool, root int32) {
		if err := serveAttempt(ctx, cfg, out, n, measure, root); err != nil {
			out.check(false, "%v", err)
		}
	})
}

func serveAttempt(ctx context.Context, cfg runConfig, out *outcome, n int, measure bool, root int32) (err error) {
	rec := cfg.rec
	s0 := time.Now()
	d, genS, err := startDaemon(ctx, cfg.seed, n, rec, root)
	s1 := time.Now()
	if err != nil {
		return fmt.Errorf("start daemon: %w", err)
	}
	defer func() {
		if serr := d.stop(ctx); serr != nil {
			err = errors.Join(err, fmt.Errorf("stop daemon: %w", serr))
		}
	}()
	at := attempt{setup: since(s0, s1)}

	// Subscribe before the first request so index 0 is the start. The
	// consumer spills events to a file, so the benchmark's own copy of
	// the stream stays out of the live-heap measurement.
	spill, err := os.Create(filepath.Join(cfg.scratch, fmt.Sprintf("serve-seed%d.stream.jsonl", cfg.seed)))
	if err != nil {
		return fmt.Errorf("stream spill file: %w", err)
	}
	defer spill.Close() // error-path close; the success path checks Close below
	var (
		streamed  atomic.Int64
		streamErr error
		streamWG  sync.WaitGroup
		bw        = bufio.NewWriter(spill)
	)
	streamCtx, stopStream := context.WithCancel(ctx)
	streamWG.Add(1)
	go func() {
		defer streamWG.Done()
		streamErr = d.c.StreamEvents(streamCtx, 0, func(e trace.Event) error {
			if err := trace.EncodeJSONL(bw, []trace.Event{e}); err != nil {
				return err
			}
			streamed.Add(1)
			return nil
		})
	}()
	// On every path the consumer stops and exits before the spill file
	// closes and the daemon stops (deferred calls run in reverse).
	defer func() {
		stopStream()
		streamWG.Wait()
	}()

	var (
		next   atomic.Int64
		failed atomic.Int64
		mu     sync.Mutex // guards the sample sets below
		edge   samples
		apply  samples
		wg     sync.WaitGroup
		total  = int64(events(serveOpsPerS, cfg.seconds, cfg.tiny))
		start  = time.Now()
	)
	for w := 0; w < serveSessions; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= total {
					return
				}
				var latUS int64
				var err error
				name := "server.Client.Kill"
				q0 := time.Now()
				if (i+1)%3 == 0 {
					name = "server.Client.Join"
					var res server.JoinResult
					res, err = d.c.Join(ctx, nil, 3)
					latUS = res.LatencyUS
				} else {
					var res server.KillResult
					res, err = d.c.Kill(ctx, -1)
					latUS = res.LatencyUS
				}
				q1 := time.Now()
				if err != nil {
					failed.Add(1)
					continue
				}
				clientUS := float64(q1.Sub(q0).Nanoseconds()) / 1e3
				mu.Lock()
				at.lat.addUS(clientUS)
				edge.addUS(clientUS - float64(latUS))
				apply.addUS(float64(latUS))
				mu.Unlock()
				// The server reports its own latency, measured inside the
				// handler; it is placed at the end of the request, where
				// the apply loop finishes just before the response.
				req := rec.add(name, q0, q1, root, i)
				rec.add("server.Apply", q1.Add(-time.Duration(latUS)*time.Microsecond), q1, req, i)
			}
		}()
	}
	wg.Wait()
	end := time.Now()
	at.heapMB = liveHeapMB()
	at.ops = at.lat.n()
	at.wall = since(start, end)
	out.attempts = append(out.attempts, at)
	out.attempted += int(total)
	out.failed += int(failed.Load())

	// On a measuring attempt this is the checkpoint: the daemon's on-demand
	// stretch measurement.
	c0 := time.Now()
	st, err := d.c.Stats(ctx, measure, measure)
	c1 := time.Now()
	if err != nil {
		return fmt.Errorf("stats: %w", err)
	}
	out.peakDelta = float64(st.PeakDelta)
	if measure {
		rec.add("server.Client.Stats", c0, c1, root, -1)
		if st.Stretch != nil {
			out.maxStretch = st.Stretch.MaxStretch
		}
		out.layer("gen.build_s", "s", genS)
		out.layerQ("server.edge_p50_us", &edge, 0.50)
		out.layerQ("server.edge_p99_us", &edge, 0.99)
		out.layerQ("server.apply_p50_us", &apply, 0.50)
		out.layerQ("server.apply_p99_us", &apply, 0.99)
		out.layer("server.retried_429", "count", float64(d.c.Retried429()))
		out.layer("server.log_events", "count", float64(st.Events))
		out.layer("metrics.final_s", "s", since(c0, c1))
	}

	// Verify: wait until the consumer has the snapshot's log prefix,
	// stop it, and replay the spilled prefix.
	snap, want, err := snapshots(ctx, d.c)
	if err == nil {
		err = waitFor(func() bool { return streamed.Load() >= int64(want) }, 30*time.Second)
	}
	stopStream()
	streamWG.Wait()
	if streamErr != nil && !errors.Is(streamErr, context.Canceled) {
		err = errors.Join(err, fmt.Errorf("event stream: %w", streamErr))
	}
	if ferr := errors.Join(bw.Flush(), spill.Close()); ferr != nil {
		err = errors.Join(err, fmt.Errorf("spill: %w", ferr))
	}
	if err == nil {
		err = replayPrefix(spill.Name(), want, snap)
	}
	if err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	checkOffline(out, snap.current.G, n)
	return nil
}

// served is the pair of snapshots stream verification needs.
type served struct{ current, initial *graphio.Snapshot }

// snapshots fetches the post-load snapshot with the log index it is
// consistent with, and the generation's initial snapshot.
func snapshots(ctx context.Context, c *server.Client) (served, int, error) {
	cur, want, gen, err := c.Snapshot(ctx, "current")
	if err != nil {
		return served{}, 0, fmt.Errorf("snapshot: %w", err)
	}
	initial, _, initGen, err := c.Snapshot(ctx, "initial")
	if err != nil {
		return served{}, 0, fmt.Errorf("initial snapshot: %w", err)
	}
	if gen != initGen {
		return served{}, 0, fmt.Errorf("generation changed mid-run (%d vs %d)", gen, initGen)
	}
	return served{current: cur, initial: initial}, want, nil
}

func waitFor(cond func() bool, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("gave up after %s", limit)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil
}

// replayPrefix replays the first want spilled events onto the initial
// snapshot and requires the result to equal the post-load snapshot, G
// and G′ alike.
func replayPrefix(path string, want int, snap served) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close() // read-only
	dec := trace.NewDecoder(bufio.NewReader(f))
	prefix := make([]trace.Event, 0, want)
	for len(prefix) < want {
		e, err := dec.Next()
		if err != nil {
			return fmt.Errorf("read event %d of %d: %w", len(prefix), want, err)
		}
		prefix = append(prefix, e)
	}
	g, gp, err := trace.Replay(snap.initial.G, prefix)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	if !g.Equal(snap.current.G) || !gp.Equal(snap.current.Gp) {
		return fmt.Errorf("replayed stream (%d events) diverges from the served G/G′", want)
	}
	return nil
}
