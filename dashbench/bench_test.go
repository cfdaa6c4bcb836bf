package main

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"
)

func TestNearestRankQuantiles(t *testing.T) {
	var s samples
	for i := 100; i >= 1; i-- {
		s.addUS(float64(i))
	}
	for _, tc := range []struct{ q, want float64 }{
		{0.50, 50},
		{0.99, 99},
		{0.999, 100},
		{1.0, 100},
		{0.001, 1},
	} {
		if got := s.quantile(tc.q); got != tc.want {
			t.Errorf("q=%v: got %v, want %v", tc.q, got, tc.want)
		}
	}
	if s.n() != 100 {
		t.Errorf("sample count %d, want 100", s.n())
	}
	// p99 of 1000 samples is the 990th smallest, leaving exactly ten
	// beyond it: the smallest window op_p99_us is taken over.
	if got := nearestRank(1000, 0.99); got != 990 {
		t.Errorf("nearestRank(1000, 0.99) = %d, want 990", got)
	}
	// Windowed p99: ten windows of 100 samples 1..100 with one huge
	// outlier in one window; the median window p99 ignores it.
	var win samples
	for w := 0; w < 10; w++ {
		for i := 1; i <= 100; i++ {
			v := float64(i)
			if w == 3 && i == 100 {
				v = 1e9
			}
			win.addUS(v)
		}
	}
	if got := win.windowed(0.99, 10); got != 99 {
		t.Errorf("windowed p99 = %v, want 99", got)
	}
	if got := win.quantile(1); got != 1e9 {
		t.Errorf("max = %v; quantile must not reorder the arrival-order samples", got)
	}
	if got := win.windowed(0.99, 10); got != 99 {
		t.Errorf("windowed p99 after quantile = %v, want 99", got)
	}
	var one samples
	one.add(7 * time.Microsecond)
	if one.quantile(0.5) != 7 || one.quantile(0.99) != 7 || one.n() != 1 {
		t.Errorf("single sample: p50=%v p99=%v n=%d", one.quantile(0.5), one.quantile(0.99), one.n())
	}
	var empty samples
	if empty.quantile(0.5) != 0 || empty.n() != 0 {
		t.Error("empty population must report 0")
	}
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestAttributeNestedChildren(t *testing.T) {
	// root [0,10] with sequential children a [1,3] and b [5,9]; b has a
	// child c [6,7]. Self time = duration minus the children's union.
	spans := []span{
		{name: "bench.root", start: 0, end: 10e9, parent: -1},
		{name: "gen.a", start: 1e9, end: 3e9, parent: 0},
		{name: "core.b", start: 5e9, end: 9e9, parent: 0},
		{name: "metrics.c", start: 6e9, end: 7e9, parent: 2},
	}
	lt := attribute(spans)
	want := map[string]float64{"bench": 4, "gen": 2, "core": 3, "metrics": 1}
	for l, w := range want {
		if !near(lt.self[l], w) {
			t.Errorf("self[%s] = %v, want %v", l, lt.self[l], w)
		}
	}
	if !near(lt.wall, 10) {
		t.Errorf("wall = %v, want 10", lt.wall)
	}
}

func TestAttributeOverlappingChildren(t *testing.T) {
	// Two concurrent children overlap on [4,6]: the parent's self time is
	// its duration minus the union of the children ([2,8]); the overlap
	// is split evenly, so the layers still sum to the wall clock.
	spans := []span{
		{name: "bench.root", start: 0, end: 10e9, parent: -1},
		{name: "server.a", start: 2e9, end: 6e9, parent: 0},
		{name: "dist.b", start: 4e9, end: 8e9, parent: 0},
	}
	lt := attribute(spans)
	for l, w := range map[string]float64{"bench": 4, "server": 3, "dist": 3} {
		if !near(lt.self[l], w) {
			t.Errorf("self[%s] = %v, want %v", l, lt.self[l], w)
		}
	}
	sum := 0.0
	for _, v := range lt.self {
		sum += v
	}
	if !near(sum, lt.wall) || !near(lt.wall, 10) {
		t.Errorf("self sum %v, wall %v; want both 10", sum, lt.wall)
	}
	if lt.count["server"] != 1 || lt.count["dist"] != 1 || lt.count["bench"] != 1 {
		t.Errorf("counts = %v", lt.count)
	}
}

func TestAttributeTouchingAndOrphanSpans(t *testing.T) {
	// Children that touch end-to-start do not overlap, and a span whose
	// parent is not running (here: recorded after it closed) counts as a
	// root instead of corrupting its parent's accounting.
	spans := []span{
		{name: "bench.root", start: 0, end: 4e9, parent: -1},
		{name: "core.a", start: 0, end: 2e9, parent: 0},
		{name: "core.b", start: 2e9, end: 4e9, parent: 0},
		{name: "metrics.late", start: 5e9, end: 6e9, parent: 0},
	}
	lt := attribute(spans)
	if !near(lt.self["bench"], 0) || !near(lt.self["core"], 4) || !near(lt.self["metrics"], 1) {
		t.Errorf("self = %v", lt.self)
	}
	if !near(lt.wall, 5) {
		t.Errorf("wall = %v, want 5", lt.wall)
	}
}

func TestReportShape(t *testing.T) {
	o := &outcome{attempted: 10, failed: 0}
	var buf bytes.Buffer
	res := report(&buf, o, []metric{{name: "ops_per_s", unit: "1/s", value: 3}})
	if res["correct"] != true || res["attempted"] != 10 || res["failed"] != 0 {
		t.Errorf("result = %v", res)
	}
	o.check(false, "boom")
	res = report(&buf, o, nil)
	if res["correct"] != false || res["failed"] != 10 {
		t.Errorf("failed check must fail every op: %v", res)
	}
	if !strings.Contains(buf.String(), "CHECK FAILED: boom") {
		t.Errorf("report output lacks the failed check:\n%s", buf.String())
	}
}

// TestTinyWorkloads runs every workload at test scale, untraced and
// traced, and requires its correctness checks to pass and every
// end-to-end metric to be measured.
func TestTinyWorkloads(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := runConfig{seed: 3, seconds: 1, attempts: 2, tiny: true, scratch: t.TempDir()}
			o := w.run(cfg)
			for _, err := range o.errs {
				t.Errorf("check failed: %v", err)
			}
			if o.attempted == 0 || o.failed != 0 {
				t.Errorf("attempted %d, failed %d", o.attempted, o.failed)
			}
			if len(o.attempts) != 2 {
				t.Errorf("%d attempts, want 2", len(o.attempts))
			}
			for _, m := range endToEndMetrics(o) {
				if !(m.value > 0) || math.IsInf(m.value, 0) {
					t.Errorf("%s = %v, want a positive measurement", m.name, m.value)
				}
			}

			cfg.rec, cfg.measure = newRecorder(1024), true
			traced := w.run(cfg)
			for _, err := range traced.errs {
				t.Errorf("traced check failed: %v", err)
			}
			if !(traced.peakDelta > 0) || !(traced.maxStretch >= 1) {
				t.Errorf("quality: peak δ %v, max stretch %v", traced.peakDelta, traced.maxStretch)
			}
			ms := layerMetrics(traced, o, cfg.rec)
			got := map[string]float64{}
			for _, m := range ms {
				got[m.name] = m.value
			}
			for _, p := range perLayer {
				if _, ok := got[p.name]; !ok {
					t.Errorf("per-layer metric %s missing", p.name)
				}
			}
			sum := 0.0
			for _, l := range layerNames {
				sum += got["self."+l+"_s"]
			}
			if wall := got["trace.wall_s"]; !(wall > 0) || math.Abs(sum-wall) > 1e-6*wall {
				t.Errorf("layer self times sum to %v, traced wall %v", sum, wall)
			}
			res := report(&bytes.Buffer{}, traced, ms)
			if _, err := json.Marshal(res); err != nil {
				t.Errorf("result does not encode: %v", err)
			}
		})
	}
}

func TestRealMainRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "dist", "--seconds", "0"},
		{"--workload", "dist", "--trace", "2"},
		{"--bogus"},
	} {
		var buf bytes.Buffer
		if code := realMain(args, &buf); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if buf.Len() != 0 {
			t.Errorf("%v: printed %q, want no result", args, buf.String())
		}
	}
}
