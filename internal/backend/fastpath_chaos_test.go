package backend_test

import (
	"context"
	"testing"
	"time"

	"biasmit/internal/backend"
	"biasmit/internal/chaos"
	"biasmit/internal/circuit"
	"biasmit/internal/device"
	"biasmit/internal/resilient"
)

// TestFastPathMatchesNaiveUnderChaos drives both sampling paths through
// the PR 3 fault-injection stack — chaos injector wrapped in the retrying
// executor — and asserts the surviving histograms stay byte-identical.
// The injector's fault schedule runs off its own seeded rng, independent
// of backend internals, so equal plans replay equal fault sequences for
// both paths; any divergence isolates to the fast path itself.
//
// This file is an external test package: backend's in-package tests
// cannot import resilient/chaos (both import backend).
func TestFastPathMatchesNaiveUnderChaos(t *testing.T) {
	dev := device.IBMQX4()
	c := circuit.New(5, "ghz").H(0).CX(1, 0).CX(2, 1).CX(3, 2).CX(3, 4)
	plan := chaos.Plan{
		Seed:          101,
		TransientRate: 0.3,
		PartialRate:   0.2,
		FailFirst:     2,
	}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	policy := resilient.Policy{
		MaxAttempts: 20,
		Sleep:       func(context.Context, time.Duration) error { return nil },
	}

	run := func(noFast bool, seed int64) map[string]int {
		// Fresh injector per run so the fault schedules replay identically.
		exec := resilient.New(plan.Wrap(backend.RunContext), policy)
		counts, err := exec.Run(context.Background(), c, dev, backend.Options{
			Shots:              600,
			Seed:               seed,
			ShotsPerTrajectory: 8,
			NoFastPath:         noFast,
		})
		if err != nil {
			t.Fatalf("noFast=%v seed=%d: %v", noFast, seed, err)
		}
		out := make(map[string]int)
		for _, o := range counts.Outcomes() {
			out[o.String()] = counts.Get(o)
		}
		return out
	}

	for seed := int64(1); seed <= 3; seed++ {
		naive := run(true, seed)
		fast := run(false, seed)
		if len(naive) != len(fast) {
			t.Fatalf("seed %d: support sizes differ: naive %d, fast %d", seed, len(naive), len(fast))
		}
		for o, n := range naive {
			if fast[o] != n {
				t.Fatalf("seed %d: counts differ at %s: naive %d, fast %d", seed, o, n, fast[o])
			}
		}
	}
}

// TestPrefixCacheEdgesUnderChaos sends the no-event prefix cache's edge
// cases (backend.CacheEdgeCases) through the same fault-injection stack:
// failed and salvaged slices restart runShots, and with it the cache,
// mid-run.
func TestPrefixCacheEdgesUnderChaos(t *testing.T) {
	plan := chaos.Plan{Seed: 103, TransientRate: 0.3, PartialRate: 0.2, FailFirst: 1}
	policy := resilient.Policy{
		MaxAttempts: 20,
		Sleep:       func(context.Context, time.Duration) error { return nil },
	}
	for _, ec := range backend.CacheEdgeCases() {
		opt := ec.Opt
		opt.Shots = 150
		if ec.Name == "replay-from-reset" {
			opt.Shots = 14
		}
		opt.Seed = 4
		opt.Workers = 2
		opt.ShotsPerTrajectory = 7
		var got [2]map[string]int
		for i, noFast := range []bool{true, false} {
			opt.NoFastPath = noFast
			exec := resilient.New(plan.Wrap(backend.RunContext), policy)
			counts, err := exec.Run(context.Background(), ec.C, ec.Dev, opt)
			if err != nil {
				t.Fatalf("%s noFast=%v: %v", ec.Name, noFast, err)
			}
			got[i] = make(map[string]int)
			for _, o := range counts.Outcomes() {
				got[i][o.String()] = counts.Get(o)
			}
		}
		if len(got[0]) != len(got[1]) {
			t.Fatalf("%s: support sizes differ: naive %d, fast %d", ec.Name, len(got[0]), len(got[1]))
		}
		for o, n := range got[0] {
			if got[1][o] != n {
				t.Fatalf("%s: counts differ at %s: naive %d, fast %d", ec.Name, o, n, got[1][o])
			}
		}
	}
}
