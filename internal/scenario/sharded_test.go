package scenario

import (
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// TestShardedTrialDifferential runs the three preset workloads through
// the sequential engine and the sharded commit path with identical seeds
// and asserts the TrialResults — every counter, peak δ, and checkpoint —
// are bit-identical. This is the end-to-end form of the core-level
// differential: if any scheduler interleaving could change an RNG draw,
// a counter fold, or a peak-δ reading, some seed here diverges.
func TestShardedTrialDifferential(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	base := Config{
		NewGraph:     func(r *rng.RNG) *graph.Graph { return gen.BarabasiAlbert(600, 3, r) },
		Trials:       2,
		Seed:         42,
		MeasureEvery: 50,
	}
	for _, healer := range []core.Healer{core.DASH{}, core.SDASH{}} {
		for _, preset := range PresetNames() {
			sched, err := Preset(preset, 600)
			if err != nil {
				t.Fatal(err)
			}
			cfg := base
			cfg.Schedule = sched
			cfg.Healer = healer
			seq, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 4} {
				cfg.CommitWorkers = workers
				shr, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				for i := range seq.Trials {
					if !reflect.DeepEqual(seq.Trials[i], shr.Trials[i]) {
						t.Fatalf("%s/%s workers=%d trial %d diverged:\nseq %+v\nshr %+v",
							healer.Name(), preset, workers, i, seq.Trials[i], shr.Trials[i])
					}
				}
			}
		}
	}
}

// TestShardedValidation checks every rejected Config combination.
func TestShardedValidation(t *testing.T) {
	base := Config{
		NewGraph:      func(r *rng.RNG) *graph.Graph { return gen.BarabasiAlbert(64, 3, r) },
		Schedule:      PresetSustainedChurn(64),
		Healer:        core.DASH{},
		Trials:        1,
		Seed:          1,
		CommitWorkers: 2,
	}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"non-uniform victim", func(c *Config) {
			c.NewVictim = func() VictimPolicy { return NewMaxDegree() }
		}},
		{"connectivity", func(c *Config) { c.TrackConnectivity = true }},
		{"observe", func(c *Config) { c.Observe = func(int, *core.State) {} }},
	}
	for _, tc := range cases {
		cfg := base
		tc.mutate(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s: expected an error, got none", tc.name)
		}
	}
	// The valid combination still runs.
	if _, err := Run(base); err != nil {
		t.Errorf("valid sharded config rejected: %v", err)
	}
}

// TestShardedObserveLatency checks the latency observer fires once per
// kill and join on the sharded path, under concurrent commit workers.
func TestShardedObserveLatency(t *testing.T) {
	var mu sync.Mutex
	var count int
	cfg := Config{
		NewGraph:      func(r *rng.RNG) *graph.Graph { return gen.BarabasiAlbert(300, 3, r) },
		Schedule:      PresetSustainedChurn(300),
		Healer:        core.SDASH{},
		Trials:        1,
		Seed:          3,
		MeasureEvery:  -1,
		CommitWorkers: 4,
		ObserveLatency: func(d time.Duration) {
			if d < 0 {
				t.Error("negative latency")
			}
			mu.Lock()
			count++
			mu.Unlock()
		},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := res.Trials[0].Deletes + res.Trials[0].Inserts
	if count != want {
		t.Fatalf("observer fired %d times, want %d (deletes+inserts)", count, want)
	}
}
