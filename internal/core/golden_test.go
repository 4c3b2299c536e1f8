package core

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"biasmit/internal/device"
	"biasmit/internal/dist"
	"biasmit/internal/kernels"
)

// Golden counts pin the exact histograms a few policy runs produce. The
// fast-path equality suite in internal/backend compares the fast trial
// loop against Options.NoFastPath, but both paths share the State
// kernels and the option defaults, so a change to that shared code moves
// both sides together and the oracle cannot see it. These recorded
// counts can.
//
// Regenerate (only for a deliberate, documented change to the random
// streams) with:
//
//	go test ./internal/core -run TestGoldenCounts -update-golden

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_counts.json from the current code")

const goldenPath = "testdata/golden_counts.json"

// goldenCase is one pinned (machine, benchmark, policy, seed) run.
type goldenCase struct {
	Machine            string         `json:"machine"`
	Benchmark          string         `json:"benchmark"`
	Policy             string         `json:"policy"` // baseline, sim4 or aim
	Seed               int64          `json:"seed"`
	Shots              int            `json:"shots"`
	ProfileShots       int            `json:"profile_shots,omitempty"`
	ScheduleAwareDecay bool           `json:"schedule_aware_decay,omitempty"`
	IdleInversion      bool           `json:"idle_inversion,omitempty"`
	Counts             map[string]int `json:"counts"`
}

func (gc goldenCase) name() string {
	return fmt.Sprintf("%s/%s/%s/seed=%d", gc.Machine, gc.Benchmark, gc.Policy, gc.Seed)
}

// goldenCases lists the pinned runs; Counts are filled from the fixture.
func goldenCases() []goldenCase {
	return []goldenCase{
		{Machine: "ibmqx4", Benchmark: "bv-4A", Policy: "baseline", Seed: 11, Shots: 2048},
		{Machine: "ibmqx4", Benchmark: "bv-4B", Policy: "aim", Seed: 3, Shots: 2048, ProfileShots: 256},
		{Machine: "ibmqx2", Benchmark: "qaoa-4A", Policy: "sim4", Seed: 4, Shots: 1024},
		{Machine: "ibmq-melbourne", Benchmark: "bv-4A", Policy: "sim4", Seed: 1, Shots: 1024},
		{Machine: "ibmq-melbourne", Benchmark: "qaoa-7", Policy: "sim4", Seed: 2, Shots: 512},
		{Machine: "ibmq-melbourne", Benchmark: "qaoa-6", Policy: "aim", Seed: 6, Shots: 512, ProfileShots: 64},
		{Machine: "ibmq-melbourne", Benchmark: "bv-6", Policy: "baseline", Seed: 5, Shots: 512,
			ScheduleAwareDecay: true, IdleInversion: true},
	}
}

// runGolden executes one case and returns its histogram keyed by the
// outcome's bit string.
func runGolden(t *testing.T, gc goldenCase) map[string]int {
	t.Helper()
	dev, ok := device.ByName(gc.Machine)
	if !ok {
		t.Fatalf("unknown machine %q", gc.Machine)
	}
	var bench *kernels.Benchmark
	for _, b := range kernels.Table3Suite() {
		if b.Name == gc.Benchmark {
			b := b
			bench = &b
		}
	}
	if bench == nil {
		t.Fatalf("unknown benchmark %q", gc.Benchmark)
	}
	m := NewMachine(dev)
	m.Opt.ScheduleAwareDecay = gc.ScheduleAwareDecay
	m.Opt.IdleInversion = gc.IdleInversion
	j, err := NewJob(bench.Circuit, m)
	if err != nil {
		t.Fatal(err)
	}
	var counts *dist.Counts
	switch gc.Policy {
	case "baseline":
		counts, err = j.Baseline(gc.Shots, gc.Seed)
	case "sim4":
		var res *SIMResult
		if res, err = SIM4(j, gc.Shots, gc.Seed); err == nil {
			counts = res.Merged
		}
	case "aim":
		var res *AIMResult
		if res, _, err = AutoAIM(j, AIMConfig{}, gc.ProfileShots, gc.Shots, gc.Seed); err == nil {
			counts = res.Merged
		}
	default:
		t.Fatalf("unknown policy %q", gc.Policy)
	}
	if err != nil {
		t.Fatalf("%s: %v", gc.name(), err)
	}
	out := make(map[string]int, len(counts.Outcomes()))
	for _, o := range counts.Outcomes() {
		out[o.String()] = counts.Get(o)
	}
	return out
}

// TestGoldenCounts asserts byte equality with the recorded histograms.
func TestGoldenCounts(t *testing.T) {
	cases := goldenCases()
	if *updateGolden {
		for i := range cases {
			cases[i].Counts = runGolden(t, cases[i])
		}
		data, err := json.MarshalIndent(cases, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var recorded []goldenCase
	if err := json.Unmarshal(data, &recorded); err != nil {
		t.Fatal(err)
	}
	if len(recorded) != len(cases) {
		t.Fatalf("fixture has %d cases, test lists %d", len(recorded), len(cases))
	}
	for i, want := range recorded {
		spec := cases[i]
		spec.Counts = want.Counts
		if fmt.Sprint(spec) != fmt.Sprint(want) {
			t.Fatalf("fixture case %d is %+v, test lists %+v", i, want, spec)
		}
		got := runGolden(t, want)
		if len(got) != len(want.Counts) {
			t.Fatalf("%s: support %d outcomes, recorded %d", want.name(), len(got), len(want.Counts))
		}
		for o, n := range want.Counts {
			if got[o] != n {
				t.Fatalf("%s: count at %s is %d, recorded %d", want.name(), o, got[o], n)
			}
		}
	}
}
