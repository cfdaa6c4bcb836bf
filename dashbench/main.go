// Command dashbench is the repository benchmark: one command that runs a
// named workload from a seed, checks the program's outputs, and prints
// every end-to-end metric (or, with --trace 1, every per-layer metric)
// by name and unit. The last line of standard output is one JSON object
// with the keys correct, attempted, failed and metrics.
//
// Every layer is timed from outside, around calls into the packages'
// public functions: scenario.Run and its callbacks, core.State,
// core.ShardScheduler, scenario.ConnTracker, server.Client against
// server.New(...).Handler(), and dist.Network's async epochs. An
// untraced run makes three attempts and reports medians over them. A
// traced run (--trace 1) makes a warm-up pass, an untraced pass and a
// traced pass, records a span around every such call, writes the spans
// to --out, and reports each layer's share of the wall clock plus the
// tracing overhead (traced wall minus untraced wall).
//
// Usage:
//
//	dashbench --workload churn-1m --seed 1 --seconds 4 --trace 0
//
// run.sh builds the command from source and forwards its arguments.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// metric is one reported number.
type metric struct {
	name    string
	unit    string
	value   float64
	samples int // observations behind a percentile, else 0
}

// attempt is what one attempt of a workload's timed phase measured.
type attempt struct {
	setup  float64 // seconds from start until the first op could run
	ops    int     // operations completed in the timed phase
	wall   float64 // seconds of the timed phase
	lat    samples // per-op latency
	heapMB float64 // live heap after a forced GC at the end of the timed phase
	steal  float64 // CPU seconds the hypervisor stole during the attempt
}

// outcome is what one pass of a workload measured. A pass repeats the
// workload's attempt (fresh network, timed ops) and reports end-to-end
// metrics as medians over attempts, so one disturbed attempt does not
// move them. In a traced run the attempt also takes the checkpoint and
// reports the per-layer metrics.
type outcome struct {
	attempts   []attempt
	peakDelta  float64 // the paper's quality numbers, reported per layer
	maxStretch float64

	attempted, failed int
	passWall          float64  // seconds of the whole pass (the traced roots)
	layers            []metric // per-layer metrics this workload produces
	errs              []error  // failed correctness checks
}

func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.errs = append(o.errs, fmt.Errorf(format, args...))
	}
}

func (o *outcome) layer(name, unit string, value float64) {
	o.layers = append(o.layers, metric{name: name, unit: unit, value: value})
}

func (o *outcome) layerQ(name string, s *samples, q float64) {
	o.layers = append(o.layers, metric{name: name, unit: "us", value: s.quantile(q), samples: s.n()})
}

// runConfig parameterizes one pass.
type runConfig struct {
	seed     uint64
	seconds  int
	attempts int       // attempts per pass; the end-to-end metrics are medians over them
	measure  bool      // last attempt takes the checkpoint and reports per-layer metrics
	rec      *recorder // nil: tracing off
	tiny     bool      // test scale: small n, few ops
	scratch  string    // directory for large intermediate files
}

// workload is one named benchmark input. attempts is how many attempts
// an untraced run makes: three, and five for serve, whose client-observed
// tail moves most from one attempt to the next (closed-loop HTTP on two
// cores), so its median needs more of them.
type workload struct {
	name     string
	why      string
	run      func(cfg runConfig) *outcome
	attempts int
}

var workloads = []workload{
	{"churn-1m", "sequential scenario.Run heal loop at n=10^6 with gen, core commits and the sampled checkpoint; bypasses ConnTracker", runChurn1M, 3},
	{"churn-sharded", "the churn-1m graph and ops through core.ShardScheduler with nproc commit workers: admission and sharded commits", runChurnSharded, 3},
	{"churn-verified", "connectivity verified after every event at n=4*10^4, so scenario.ConnTracker dominates and core is noise", runChurnVerified, 3},
	{"serve", "the daemon over loopback HTTP with 2 closed-loop server.Client sessions: HTTP/JSON edge plus the apply loop", runServe, 5},
	{"dist", "goroutine-per-node protocol with 8 async epochs in flight: pipeline admission and message passing", runDist, 3},
}

// endToEnd lists the end-to-end metrics in report order.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_us", "us"},
	{"op_p99_us", "us"},
	{"live_heap_mb", "MB"},
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout))
}

func realMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("dashbench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload name, or all")
		seed    = fs.Uint64("seed", 1, "input seed")
		seconds = fs.Int("seconds", 4, "approximate length of each attempt's timed phase")
		traced  = fs.Int("trace", 0, "1: report per-layer metrics from a traced run")
		out     = fs.String("out", filepath.Join(".bench_build", "dashbench"), "directory for span dumps and run records")
		commit  = fs.String("commit", "unknown", "source revision, recorded with the result")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	list := workloads
	if *name != "all" {
		w, ok := lookup(*name)
		list = []workload{w}
		if !ok {
			*seconds = 0 // reject below
		}
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "dashbench: want --workload all or one of %s, --seconds >= 1, --trace 0|1\n", strings.Join(names(), ", "))
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "dashbench: %v\n", err)
		return 1
	}
	env := environment(*commit, *seed)
	fmt.Fprintf(stdout, "env: %s\n", mustJSON(env))
	cfg := runConfig{seed: *seed, seconds: *seconds, scratch: *out}
	all := map[string]any{"correct": true, "attempted": 0, "failed": 0}
	allMetrics := map[string]any{}
	for _, w := range list {
		res, counts, attempts, err := runWorkload(stdout, w, cfg, *traced == 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dashbench: %v\n", err)
			return 1
		}
		record := map[string]any{"workload": w.name, "trace": *traced, "env": env, "result": res, "samples": counts, "attempts": attempts}
		if err := writeRecord(*out, w.name, *seed, *traced, record); err != nil {
			fmt.Fprintf(os.Stderr, "dashbench: %v\n", err)
		}
		if len(list) == 1 {
			all = res
			break
		}
		fmt.Fprintln(stdout, mustJSON(res))
		all["correct"] = all["correct"].(bool) && res["correct"].(bool)
		all["attempted"] = all["attempted"].(int) + res["attempted"].(int)
		all["failed"] = all["failed"].(int) + res["failed"].(int)
		for k, v := range res["metrics"].(map[string]any) {
			allMetrics[w.name+"/"+k] = v
		}
		all["metrics"] = allMetrics
	}
	fmt.Fprintln(stdout, mustJSON(all))
	if all["correct"] != true {
		return 1
	}
	return 0
}

// runWorkload runs one workload, untraced, or warm-up, untraced and
// traced, prints its metrics, and returns the result object, the sample
// count behind each percentile, and a per-attempt summary for the run
// record.
func runWorkload(stdout io.Writer, w workload, cfg runConfig, traced bool) (map[string]any, map[string]int, []map[string]float64, error) {
	fmt.Fprintf(stdout, "workload: %s (%s)\n", w.name, w.why)
	if !traced {
		cfg.attempts = w.attempts
		o := w.run(cfg)
		steal := 0.0
		for _, a := range o.attempts {
			steal += a.steal
		}
		fmt.Fprintf(stdout, "host: %.2f s of CPU time stolen by the hypervisor during the attempts\n", steal)
		ms := endToEndMetrics(o)
		return report(stdout, o, ms), sampleCounts(ms), attemptSummaries(o), nil
	}
	// One attempt per pass. A first, discarded pass warms the process, so
	// the untraced and traced passes both run on a warm heap and their
	// difference is the tracing overhead.
	cfg.attempts, cfg.measure = 1, true
	warm := w.run(cfg)
	base := w.run(cfg)
	cfg.rec = newRecorder(1 << 16)
	o := w.run(cfg)
	o.errs = append(append(o.errs, warm.errs...), base.errs...)
	path := filepath.Join(cfg.scratch, fmt.Sprintf("%s-seed%d.spans.tsv", w.name, cfg.seed))
	if err := dumpSpans(path, cfg.rec.spans); err != nil {
		return nil, nil, nil, err
	}
	fmt.Fprintf(stdout, "spans: %d written to %s\n", len(cfg.rec.spans), path)
	ms := layerMetrics(o, base, cfg.rec)
	return report(stdout, o, ms), sampleCounts(ms), attemptSummaries(o), nil
}

// attemptSummaries lists each attempt's figures, so a run record shows
// how far its attempts disagreed and how much CPU the host stole.
func attemptSummaries(o *outcome) []map[string]float64 {
	var out []map[string]float64
	for i := range o.attempts {
		a := &o.attempts[i]
		out = append(out, map[string]float64{
			"setup_s":      a.setup,
			"ops_per_s":    float64(a.ops) / a.wall,
			"op_p50_us":    a.lat.quantile(0.50),
			"op_p99_us":    a.lat.windowed(0.99, p99Windows),
			"live_heap_mb": a.heapMB,
			"steal_s":      a.steal,
		})
	}
	return out
}

// report prints every metric by name, value and unit (with the sample
// count behind each percentile) and every failed check, and returns the
// result object. A failed check marks every attempted op failed: the
// run's output is unverified.
func report(w io.Writer, o *outcome, ms []metric) map[string]any {
	attempted, failed := max(o.attempted, 1), o.failed
	for _, err := range o.errs {
		fmt.Fprintf(w, "CHECK FAILED: %v\n", err)
	}
	if len(o.errs) > 0 {
		failed = attempted
	}
	for _, m := range ms {
		line := fmt.Sprintf("%-32s %14.6g %s", m.name, m.value, m.unit)
		if m.samples > 0 {
			line += fmt.Sprintf("  (n=%d)", m.samples)
		}
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "ops: attempted=%d failed=%d\n", attempted, failed)
	return map[string]any{
		"correct":   len(o.errs) == 0,
		"attempted": attempted,
		"failed":    failed,
		"metrics":   metricMap(ms),
	}
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func names() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// p99Windows is how many arrival-order windows op_p99_us is the median
// over; every workload completes at least 1000 ops per window, so each
// window's p99 has at least ten samples beyond it.
const p99Windows = 10

// endToEndMetrics reduces an untraced pass to the end-to-end metrics,
// each the median over the pass's attempts.
func endToEndMetrics(o *outcome) []metric {
	per := func(f func(a *attempt) float64) float64 {
		xs := make([]float64, len(o.attempts))
		for i := range o.attempts {
			xs[i] = f(&o.attempts[i])
		}
		return median(xs)
	}
	n := 0
	for _, a := range o.attempts {
		n += a.lat.n()
	}
	vals := map[string]float64{
		"setup_s":      per(func(a *attempt) float64 { return a.setup }),
		"ops_per_s":    per(func(a *attempt) float64 { return float64(a.ops) / a.wall }),
		"op_p50_us":    per(func(a *attempt) float64 { return a.lat.quantile(0.50) }),
		"op_p99_us":    per(func(a *attempt) float64 { return a.lat.windowed(0.99, p99Windows) }),
		"live_heap_mb": per(func(a *attempt) float64 { return a.heapMB }),
	}
	ms := make([]metric, 0, len(endToEnd))
	for _, e := range endToEnd {
		m := metric{name: e.name, unit: e.unit, value: vals[e.name]}
		switch e.name {
		case "op_p50_us", "op_p99_us":
			m.samples = n
		case "setup_s":
			m.samples = len(o.attempts)
		}
		ms = append(ms, m)
	}
	return ms
}

// layerNames lists every layer a span can belong to; each gets a self
// time and a share in every traced report (zero where the workload does
// not enter the layer).
var layerNames = []string{"bench", "gen", "core", "scenario", "metrics", "server", "dist"}

// layerMetrics reduces a traced pass to the per-layer metrics: the
// workload's own layer counters plus each layer's self time and share
// of the traced wall, and the tracing overhead against the untraced
// pass of the same run.
func layerMetrics(o, base *outcome, rec *recorder) []metric {
	lt := attribute(rec.spans)
	byName := map[string]metric{}
	for _, m := range o.layers {
		byName[m.name] = m
	}
	ms := []metric{
		{name: "quality.peak_delta", unit: "count", value: o.peakDelta},
		{name: "quality.max_stretch", unit: "ratio", value: o.maxStretch},
	}
	for _, p := range perLayer {
		m, ok := byName[p.name]
		if !ok {
			m = metric{name: p.name, unit: p.unit}
		}
		ms = append(ms, m)
	}
	sum := 0.0
	for _, l := range layerNames {
		sum += lt.self[l]
		share := 0.0
		if lt.wall > 0 {
			share = lt.self[l] / lt.wall
		}
		ms = append(ms,
			metric{name: "self." + l + "_s", unit: "s", value: lt.self[l]},
			metric{name: "share." + l, unit: "fraction", value: share},
			metric{name: "spans." + l, unit: "count", value: float64(lt.count[l])})
	}
	ms = append(ms,
		metric{name: "trace.wall_s", unit: "s", value: lt.wall},
		metric{name: "trace.untraced_wall_s", unit: "s", value: base.passWall},
		metric{name: "trace.overhead_s", unit: "s", value: o.passWall - base.passWall},
		metric{name: "trace.self_sum_over_untraced", unit: "ratio", value: sum / base.passWall})
	return ms
}

// perLayer lists the workload layer counters in report order; every
// traced run reports all of them (zero where the workload bypasses the
// layer).
var perLayer = []struct{ name, unit string }{
	{"gen.build_s", "s"},
	{"core.newstate_s", "s"},
	{"core.heal_busy_s", "s"},
	{"core.kill_p50_us", "us"},
	{"core.kill_p99_us", "us"},
	{"core.join_p50_us", "us"},
	{"core.join_p99_us", "us"},
	{"core.admit_p50_us", "us"},
	{"core.admit_p99_us", "us"},
	{"core.commit_p50_us", "us"},
	{"core.shard_conflicts", "count"},
	{"core.shard_universals", "count"},
	{"core.label_msgs_per_heal", "msgs"},
	{"core.flood_depth_amortized", "hops"},
	{"core.max_id_changes", "count"},
	{"scenario.loop_self_s", "s"},
	{"scenario.conn_s", "s"},
	{"scenario.conn_checks", "count"},
	{"metrics.baseline_s", "s"},
	{"metrics.final_s", "s"},
	{"metrics.bfs_sources", "count"},
	{"server.edge_p50_us", "us"},
	{"server.edge_p99_us", "us"},
	{"server.apply_p50_us", "us"},
	{"server.apply_p99_us", "us"},
	{"server.retried_429", "count"},
	{"server.log_events", "count"},
	{"dist.issue_p50_us", "us"},
	{"dist.issue_p99_us", "us"},
	{"dist.drain_s", "s"},
	{"dist.label_msgs_per_epoch", "msgs"},
	{"dist.coord_msgs_per_epoch", "msgs"},
	{"dist.non_msgs_per_epoch", "msgs"},
	{"dist.flood_depth_amortized", "hops"},
}

func metricMap(ms []metric) map[string]any {
	out := make(map[string]any, len(ms))
	for _, m := range ms {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[m.name] = map[string]any{"value": v, "unit": m.unit}
	}
	return out
}

func sampleCounts(ms []metric) map[string]int {
	out := map[string]int{}
	for _, m := range ms {
		if m.samples > 0 {
			out[m.name] = m.samples
		}
	}
	return out
}

// env is the environment recorded with every result.
type env struct {
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu_model"`
	Commit     string `json:"commit"`
	Seed       uint64 `json:"seed"`
}

func environment(commit string, seed uint64) env {
	return env{
		Nproc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPU:        cpuModel(),
		Commit:     commit,
		Seed:       seed,
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// stolenSeconds reads the CPU time the hypervisor ran other guests on
// this machine's CPUs (the steal column of /proc/stat, in USER_HZ=100
// ticks), or 0 where it is not available. Timing noise on a shared host
// shows up here.
func stolenSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return float64(ticks) / 100
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain maps, slices and numbers are encoded
	}
	return string(b)
}

func writeRecord(dir, name string, seed uint64, traced int, record any) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", name, seed, traced))
	return os.WriteFile(path, []byte(mustJSON(record)+"\n"), 0o644)
}

func dumpSpans(path string, spans []span) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, f.Close()) }()
	return writeSpans(f, spans)
}

// since returns seconds elapsed from t0 to t1.
func since(t0, t1 time.Time) float64 { return t1.Sub(t0).Seconds() }
