package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/scenario"
	"repro/internal/trace"
)

func TestMeasureCadence(t *testing.T) {
	for _, c := range []struct{ flag, events, want int }{
		{5, 100, 5},  // explicit
		{0, 100, 10}, // auto: ~10 checkpoints
		{0, 4, 1},    // auto never drops below 1
		{-1, 100, 0}, // final-only
	} {
		if got := measureCadence(c.flag, c.events); got != c.want {
			t.Errorf("measureCadence(%d, %d) = %d, want %d", c.flag, c.events, got, c.want)
		}
	}
}

func TestFinite(t *testing.T) {
	if finite(math.Inf(1)) != -1 || finite(math.NaN()) != -1 || finite(2.5) != 2.5 {
		t.Error("finite() sanitization wrong")
	}
}

// TestRunSmall drives the full command path — preset resolution, healer
// and attack-victim lookup, checkpoint JSONL, trace JSONL — at a test
// size, then re-decodes both outputs.
func TestRunSmall(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "cp.jsonl")
	tracePath := filepath.Join(dir, "trace.jsonl")
	var buf bytes.Buffer
	res, err := run(&buf, runOpts{
		preset: "flash-crowd", n: 64, heal: "SDASH", victim: "MaxNode",
		trials: 2, seed: 7, workers: 1, threshold: 32, sources: 4,
		conn: true, connEvery: 1, out: out, tracePath: tracePath,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.HealerName != "SDASH" || res.VictimName != "MaxNode" || len(res.Trials) != 2 {
		t.Fatalf("unexpected result header: %+v", res)
	}
	if !strings.Contains(buf.String(), "flash-crowd") || !strings.Contains(buf.String(), "SDASH") {
		t.Fatalf("summary missing pieces:\n%s", buf.String())
	}

	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) < 2 {
		t.Fatalf("expected several checkpoint records, got %d", len(lines))
	}
	trials := map[int]bool{}
	for _, line := range lines {
		var rec struct {
			Trial int     `json:"trial"`
			Event int     `json:"event"`
			Alive int     `json:"alive"`
			Max   float64 `json:"max_stretch"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
		if rec.Event <= 0 || rec.Alive <= 0 {
			t.Fatalf("implausible record %q", line)
		}
		trials[rec.Trial] = true
	}
	if len(trials) != 2 {
		t.Fatalf("records cover %d trials, want 2", len(trials))
	}

	f, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := trace.DecodeJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	joins, removes := 0, 0
	for _, e := range events {
		switch e.Kind {
		case trace.KindJoin:
			joins++
		case trace.KindRemove:
			removes++
		}
	}
	if joins == 0 || removes == 0 {
		t.Fatalf("trace should contain joins and removes, got %d/%d", joins, removes)
	}
}

// TestRunDifferential drives the -differential path: a small disaster
// preset replayed through both engines must agree on every event and
// say so.
func TestRunDifferential(t *testing.T) {
	var buf bytes.Buffer
	if err := runDifferential(&buf, "disaster", 256, "DASH", "MaxNode", 3, scenario.Lockstep); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "engines agreed in lockstep") || !strings.Contains(out, "batch epochs") ||
		!strings.Contains(out, "MaxNode victims") {
		t.Fatalf("unexpected differential summary:\n%s", out)
	}
	if err := runDifferential(&buf, "disaster", 64, "GraphHeal", "Uniform", 1, scenario.Lockstep); err == nil {
		t.Error("healers without a distributed counterpart must be rejected")
	}
	if err := runDifferential(&buf, "disaster", 64, "DASH", "NoSuchVictim", 1, scenario.Lockstep); err == nil {
		t.Error("unknown victim policies must be rejected")
	}
}

// TestRunDifferentialPipelined drives the -differential -pipelined
// path: the same preset with mutations issued asynchronously in
// windows, equivalence checked at every flush.
func TestRunDifferentialPipelined(t *testing.T) {
	var buf bytes.Buffer
	if err := runDifferential(&buf, "sustained-churn", 256, "DASH", "Uniform", 5, scenario.Pipelined); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "pipelined flush") {
		t.Fatalf("unexpected pipelined differential summary:\n%s", buf.String())
	}
}

func TestRunRejectsBadInputs(t *testing.T) {
	var buf bytes.Buffer
	if _, err := run(&buf, runOpts{preset: "no-such-preset", n: 64, heal: "DASH", victim: "Uniform", trials: 1, seed: 1, workers: 1, connEvery: 1}); err == nil {
		t.Error("unknown preset should fail")
	}
	if _, err := run(&buf, runOpts{preset: "disaster", n: 64, heal: "NoSuchHealer", victim: "Uniform", trials: 1, seed: 1, workers: 1, connEvery: 1}); err == nil {
		t.Error("unknown healer should fail")
	}
	if _, err := run(&buf, runOpts{preset: "disaster", n: 64, heal: "DASH", victim: "NoSuchAttack", trials: 1, seed: 1, workers: 1, connEvery: 1}); err == nil {
		t.Error("unknown victim policy should fail")
	}
	sharded := runOpts{preset: "sustained-churn", n: 64, heal: "DASH", trials: 1, seed: 1, workers: 1, commitWorkers: 2}
	bad := sharded
	bad.victim = "MaxNode"
	if _, err := run(&buf, bad); err == nil {
		t.Error("-commit-workers with a non-Uniform victim should fail")
	}
	bad = sharded
	bad.conn = true
	if _, err := run(&buf, bad); err == nil {
		t.Error("-commit-workers with connectivity tracking should fail")
	}
	bad = sharded
	bad.tracePath = "unused.jsonl"
	if _, err := run(&buf, bad); err == nil {
		t.Error("-commit-workers with -trace should fail")
	}
}

// TestRunShardedBench drives the -commit-workers path end to end: the sharded
// run must produce the same aggregate result as the sequential run for
// the same seed, and -bench-out must emit a well-formed record.
func TestRunShardedBench(t *testing.T) {
	dir := t.TempDir()
	benchPath := filepath.Join(dir, "BENCH_sustained-churn.json")
	base := runOpts{
		preset: "sustained-churn", n: 256, heal: "SDASH", victim: "Uniform",
		trials: 2, seed: 11, workers: 1, measure: -1,
	}
	var buf bytes.Buffer
	seq, err := run(&buf, base)
	if err != nil {
		t.Fatal(err)
	}
	sharded := base
	sharded.commitWorkers = 2
	sharded.benchOut = benchPath
	shr, err := run(&buf, sharded)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq.Trials, shr.Trials) {
		t.Fatalf("sharded CLI run diverged from sequential:\nseq %+v\nshr %+v", seq.Trials, shr.Trials)
	}

	raw, err := os.ReadFile(benchPath)
	if err != nil {
		t.Fatal(err)
	}
	var rec benchRecord
	if err := json.Unmarshal(raw, &rec); err != nil {
		t.Fatalf("bad bench record %q: %v", raw, err)
	}
	wantHeals := 0
	for _, tr := range shr.Trials {
		wantHeals += tr.Deletes + tr.Inserts + tr.Killed
	}
	if rec.Preset != "sustained-churn" || rec.N != 256 ||
		rec.CommitWorkers != 2 || rec.Heals != wantHeals {
		t.Fatalf("bench record fields wrong: %+v (want heals %d)", rec, wantHeals)
	}
	if rec.WallMS <= 0 || rec.HealsPerSec <= 0 || rec.Cores <= 0 || rec.Gomaxprocs <= 0 {
		t.Fatalf("bench record timing fields implausible: %+v", rec)
	}
	if rec.P50us > rec.P95us || rec.P95us > rec.P99us {
		t.Fatalf("latency percentiles out of order: %+v", rec)
	}
}

func TestPercentile(t *testing.T) {
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(nil) = %v", got)
	}
	s := []int32{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := percentile(s, 0); got != 1 {
		t.Errorf("p0 = %v", got)
	}
	if got := percentile(s, 1); got != 10 {
		t.Errorf("p100 = %v", got)
	}
	if got := percentile(s, 0.5); got != 5 {
		t.Errorf("p50 = %v", got)
	}
}

// TestDisasterPresetSmoke is the CI scale gate: the disaster preset at
// n = 50k must run to completion, stay connected, and use sampled
// metrics. Skipped under -short (the dedicated CI job runs it without).
func TestDisasterPresetSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario smoke is not a -short test")
	}
	const n = 50_000
	var buf bytes.Buffer
	res, err := run(&buf, runOpts{
		preset: "disaster", n: n, heal: "DASH", victim: "Uniform",
		trials: 1, seed: 1, conn: true, connEvery: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trials[0]
	if tr.Events != res.Events || tr.Exhausted {
		t.Fatalf("smoke run incomplete: %+v", tr)
	}
	if !tr.AlwaysConnected {
		t.Fatalf("disaster preset disconnected at event %d", tr.FirstBreak)
	}
	if !tr.SampledMetrics {
		t.Fatal("n=50k must be over the sampling threshold")
	}
	if tr.Killed == 0 || tr.Deletes == 0 {
		t.Fatalf("disaster preset performed no damage: %+v", tr)
	}
	var sc scenario.Schedule
	if sc, err = scenario.Preset("disaster", n); err != nil || sc.Events() < 50 {
		t.Fatalf("disaster preset at n=%d compiled to %d events (%v)", n, sc.Events(), err)
	}
}
