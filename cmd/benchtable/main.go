// Command benchtable folds the machine-readable benchmark records
// written by `scenario -bench-out` (one JSON object per file) into a
// single markdown comparison table — the healer head-to-head matrix CI
// publishes to the job summary — and, with -gate, enforces the
// per-healer invariants so a regression in any cell fails the build:
//
//   - DASH family (DASH, SDASH, SDASHFull, OracleDASH): peak degree
//     increase within the paper's 2·log₂ n bound, and never
//     disconnected (when the run tracked connectivity).
//   - Forgiving healers (ForgivingTree, ForgivingGraph): never
//     disconnected, degree increase within a constant multiple of
//     log₂ n, and sampled stretch within an O(log n) factor — the
//     successor papers' guarantees, with empirical headroom (the
//     -delta-budget and -stretch-budget multipliers).
//   - Anything else: never disconnected when tracked (every registered
//     healer except NoHeal preserves connectivity).
//
// Examples:
//
//	benchtable BENCH_*.json                    # markdown table to stdout
//	benchtable -gate BENCH_*.json              # table + invariant gate (exit 1 on violation)
//	benchtable -gate -delta-budget 5 BENCH_*.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"

	"repro/internal/cli"
)

func main() {
	os.Exit(cli.Run("benchtable", realMain))
}

// record mirrors cmd/scenario's benchRecord JSON (the subset this tool
// consumes; unknown fields are ignored so the formats can drift
// forward compatibly).
type record struct {
	Preset          string  `json:"preset"`
	N               int     `json:"n"`
	Trials          int     `json:"trials"`
	Healer          string  `json:"healer"`
	Victim          string  `json:"victim"`
	WallMS          float64 `json:"wall_ms"`
	Heals           int     `json:"heals"`
	HealsPerSec     float64 `json:"heals_per_sec"`
	P95us           float64 `json:"p95_us"`
	PeakDelta       int     `json:"peak_delta"`
	MaxStretch      float64 `json:"max_stretch"`
	AlwaysConnected bool    `json:"always_connected"`
	ConnTracked     bool    `json:"connectivity_tracked"`

	file string
}

func realMain() error {
	var (
		gate          = flag.Bool("gate", false, "after printing the table, check per-healer invariants and fail (exit 1) on any violation")
		deltaBudget   = flag.Float64("delta-budget", 4, "forgiving healers: allowed peak δ as a multiple of log₂ n")
		stretchBudget = flag.Float64("stretch-budget", 3, "forgiving healers: allowed max stretch as a multiple of log₂ n")
	)
	flag.Parse()
	if flag.NArg() == 0 {
		return cli.Usagef("no benchmark records given (usage: benchtable [-gate] BENCH_*.json)")
	}

	recs := make([]record, 0, flag.NArg())
	for _, path := range flag.Args() {
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var r record
		if err := json.Unmarshal(raw, &r); err != nil {
			return fmt.Errorf("%s: %v", path, err)
		}
		r.file = path
		recs = append(recs, r)
	}
	sortRecords(recs)

	fmt.Print(markdown(recs))

	if *gate {
		violations := checkAll(recs, *deltaBudget, *stretchBudget)
		if len(violations) > 0 {
			fmt.Println()
			for _, v := range violations {
				fmt.Printf("GATE VIOLATION: %s\n", v)
			}
			return fmt.Errorf("%d invariant violation(s)", len(violations))
		}
		fmt.Printf("\ngate: all %d cells within budget\n", len(recs))
	}
	return nil
}

// sortRecords orders the matrix for reading: preset, then healer, then
// size — so each preset block compares healers side by side.
func sortRecords(recs []record) {
	sort.Slice(recs, func(i, j int) bool {
		a, b := recs[i], recs[j]
		if a.Preset != b.Preset {
			return a.Preset < b.Preset
		}
		if a.Healer != b.Healer {
			return a.Healer < b.Healer
		}
		return a.N < b.N
	})
}

// markdown renders the head-to-head table. The δ budget column shows
// the paper's 2·log₂ n yardstick next to every measurement, whichever
// healer produced it.
func markdown(recs []record) string {
	var b strings.Builder
	b.WriteString("| preset | healer | n | trials | peak δ | 2·log₂n | max stretch | connected | heals/s | wall ms | p95 µs |\n")
	b.WriteString("|---|---|---:|---:|---:|---:|---:|---|---:|---:|---:|\n")
	for _, r := range recs {
		stretch := "n/a"
		if r.MaxStretch >= 0 {
			stretch = fmt.Sprintf("%.2f", r.MaxStretch)
		}
		conn := "untracked"
		if r.ConnTracked {
			conn = fmt.Sprintf("%v", r.AlwaysConnected)
		}
		fmt.Fprintf(&b, "| %s | %s | %d | %d | %d | %.1f | %s | %s | %.0f | %.0f | %.0f |\n",
			r.Preset, r.Healer, r.N, r.Trials, r.PeakDelta, dashBudget(r.N),
			stretch, conn, r.HealsPerSec, r.WallMS, r.P95us)
	}
	return b.String()
}

func dashBudget(n int) float64 {
	if n < 2 {
		return 0
	}
	return 2 * math.Log2(float64(n))
}

// dashFamily healers carry the paper's 2·log₂ n degree-increase proof.
var dashFamily = map[string]bool{
	"DASH": true, "SDASH": true, "SDASHFull": true, "OracleDASH": true,
}

// forgivingFamily healers carry the successor papers' constant-degree /
// O(log n)-stretch guarantees.
var forgivingFamily = map[string]bool{
	"ForgivingTree": true, "ForgivingGraph": true,
}

// checkAll applies each record's healer-specific invariants and
// returns human-readable violations (empty = gate passes).
func checkAll(recs []record, deltaBudget, stretchBudget float64) []string {
	var out []string
	for _, r := range recs {
		for _, v := range check(r, deltaBudget, stretchBudget) {
			out = append(out, fmt.Sprintf("%s (%s, %s, n=%d): %s", r.file, r.Preset, r.Healer, r.N, v))
		}
	}
	return out
}

func check(r record, deltaBudget, stretchBudget float64) []string {
	var v []string
	logn := math.Log2(float64(r.N))
	if r.ConnTracked && !r.AlwaysConnected && r.Healer != "NoHeal" {
		v = append(v, "lost connectivity")
	}
	switch {
	case dashFamily[r.Healer]:
		if budget := dashBudget(r.N); float64(r.PeakDelta) > budget {
			v = append(v, fmt.Sprintf("peak δ %d exceeds 2·log₂n = %.1f", r.PeakDelta, budget))
		}
	case forgivingFamily[r.Healer]:
		if budget := deltaBudget * logn; float64(r.PeakDelta) > budget {
			v = append(v, fmt.Sprintf("peak δ %d exceeds %.0f·log₂n = %.1f", r.PeakDelta, deltaBudget, budget))
		}
		if budget := stretchBudget * logn; r.MaxStretch > budget {
			v = append(v, fmt.Sprintf("max stretch %.2f exceeds %.0f·log₂n = %.1f", r.MaxStretch, stretchBudget, budget))
		}
	}
	return v
}
