package backend_test

import (
	"fmt"
	"math/rand"
	"testing"

	"biasmit/internal/backend"
	"biasmit/internal/bitstring"
	"biasmit/internal/circuit"
	"biasmit/internal/device"
	"biasmit/internal/dist"
	"biasmit/internal/kernels"
	"biasmit/internal/transpile"
)

// The fast-path equality suite: the CDF batch sampler, pooled state, and
// compiled readout channel must produce byte-identical histograms to the
// naive trial loop (Options.NoFastPath) for every combination of seed,
// register width, noise ablation, trajectory batch size, and worker
// count. "Byte-identical" is literal — same rng stream, same comparisons,
// same counts at every outcome — not a statistical tolerance.

// fastPathCase pairs a device with a circuit valid on its coupling.
type fastPathCase struct {
	name string
	dev  *device.Device
	c    *circuit.Circuit
}

func fastPathCases() []fastPathCase {
	// ibmqx4 coupling: 1-0, 2-0, 2-1, 3-2, 3-4, 4-2.
	ghz5 := circuit.New(5, "ghz5").H(0).CX(1, 0).CX(2, 1).T(2).CX(3, 2).CX(3, 4).H(4)
	// melbourne ladder: rows 0–6 and 7–13 plus rungs (2-12, 3-11, …).
	mel := device.IBMQMelbourne()
	wide := circuit.New(14, "wide14").
		H(0).CX(0, 1).CX(1, 2).T(1).CX(2, 3).CX(3, 4).H(7).CX(7, 8).
		S(8).CX(8, 9).CX(2, 12).CX(3, 11).X(13).CX(12, 13)
	return []fastPathCase{
		{name: "ibmqx4-5q", dev: device.IBMQX4(), c: ghz5},
		{name: "melbourne-14q", dev: mel, c: wide},
	}
}

// fastPathAblations enumerates the noise-ablation corners, including the
// schedule-aware path whose idle windows consume extra rng draws.
func fastPathAblations() []struct {
	name string
	opt  backend.Options
} {
	return []struct {
		name string
		opt  backend.Options
	}{
		{"full-noise", backend.Options{}},
		{"no-readout", backend.Options{NoReadoutError: true}},
		{"no-gate-noise", backend.Options{NoGateNoise: true}},
		{"no-decay", backend.Options{NoDecay: true}},
		{"all-off", backend.Options{NoReadoutError: true, NoGateNoise: true, NoDecay: true}},
		{"schedule-aware", backend.Options{ScheduleAwareDecay: true}},
		{"idle-inversion", backend.Options{ScheduleAwareDecay: true, IdleInversion: true}},
	}
}

// runBothPaths executes opt with the fast path and with NoFastPath and
// returns (naive, fast).
func runBothPaths(t *testing.T, fc fastPathCase, opt backend.Options) (*dist.Counts, *dist.Counts) {
	t.Helper()
	opt.NoFastPath = true
	naive, err := backend.Run(fc.c, fc.dev, opt)
	if err != nil {
		t.Fatalf("naive path: %v", err)
	}
	opt.NoFastPath = false
	fast, err := backend.Run(fc.c, fc.dev, opt)
	if err != nil {
		t.Fatalf("fast path: %v", err)
	}
	return naive, fast
}

// assertSameCounts fails unless want and got are byte-identical
// histograms: same total, same support, same count at every outcome.
func assertSameCounts(t *testing.T, label string, want, got *dist.Counts) {
	t.Helper()
	if want.Total() != got.Total() {
		t.Fatalf("%s: totals differ: naive %d, fast %d", label, want.Total(), got.Total())
	}
	wantOut, gotOut := want.Outcomes(), got.Outcomes()
	if len(wantOut) != len(gotOut) {
		t.Fatalf("%s: support sizes differ: naive %d, fast %d", label, len(wantOut), len(gotOut))
	}
	for _, o := range wantOut {
		if want.Get(o) != got.Get(o) {
			t.Fatalf("%s: counts differ at %s: naive %d, fast %d", label, o, want.Get(o), got.Get(o))
		}
	}
}

// TestFastPathMatchesNaive is the tentpole equality sweep: every (device,
// ablation, seed, batch size) cell, sequential.
func TestFastPathMatchesNaive(t *testing.T) {
	for _, fc := range fastPathCases() {
		// The naive oracle's per-shot linear scan makes wide registers
		// expensive; fewer shots there keep the sweep inside tier-1 time.
		shots := 400
		if fc.dev.NumQubits > 8 {
			shots = 150
		}
		for _, ab := range fastPathAblations() {
			for seed := int64(1); seed <= 3; seed++ {
				// Batch 1 exercises the linear-scan special case, 7 and 32
				// the CDF sampler with and without short final batches (the
				// zero default resolves to one of these widths' values).
				for _, batch := range []int{1, 7, 32} {
					opt := ab.opt
					opt.Shots = shots
					opt.Seed = seed
					opt.ShotsPerTrajectory = batch
					naive, fast := runBothPaths(t, fc, opt)
					label := fc.name + "/" + ab.name
					assertSameCounts(t, label, naive, fast)
				}
			}
		}
	}
}

// table3Strings returns the inversion strings the Table-3 sweep runs at
// logical width w: every string up to 4 qubits; beyond that all-zeros,
// all-ones and two strings drawn from rng.
func table3Strings(w int, rng *rand.Rand) []bitstring.Bits {
	if w <= 4 {
		return bitstring.All(w)
	}
	return []bitstring.Bits{
		bitstring.Zeros(w), bitstring.Ones(w),
		bitstring.New(rng.Uint64(), w), bitstring.New(rng.Uint64(), w),
	}
}

// table3Corners crosses the schedule-aware decay with idle inversion
// ablation, two workers, and trajectory batches of 1 and 7.
func table3Corners() []backend.Options {
	var out []backend.Options
	for _, sched := range []bool{false, true} {
		for _, workers := range []int{1, 2} {
			for _, batch := range []int{1, 7} {
				out = append(out, backend.Options{
					ScheduleAwareDecay: sched,
					IdleInversion:      sched,
					Workers:            workers,
					ShotsPerTrajectory: batch,
				})
			}
		}
	}
	return out
}

// TestFastPathMatchesNaiveTable3 runs every paper machine × Table-3
// benchmark × inversion string × ablation corner through both paths.
// These are the circuits the policies actually execute: placed on a
// subset of the device with an inversion X on each flipped logical
// qubit, so most melbourne runs take the active-register compaction.
// Each (machine, benchmark) pair is a parallel subtest with its own
// seeds, so the sweep spreads over the available cores.
func TestFastPathMatchesNaiveTable3(t *testing.T) {
	for _, dev := range device.AllMachines() {
		// The naive side sweeps all 2^14 amplitudes per gate on
		// melbourne; three shots there keep the suite cheap under -race
		// while still splitting across workers and sampling a batch of
		// two through the CDF sampler.
		shots := 32
		if dev.NumQubits > 8 {
			shots = 3
		}
		for bi, b := range kernels.Table3Suite() {
			if b.Width() > dev.NumQubits {
				continue
			}
			dev, b, bi := dev, b, bi
			t.Run(dev.Name+"/"+b.Name, func(t *testing.T) {
				t.Parallel()
				plan, err := transpile.Place(b.Circuit, dev)
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(int64(bi)))
				seed := int64(bi) << 16
				for _, s := range table3Strings(b.Width(), rng) {
					fc := fastPathCase{dev: dev, c: plan.WithInversion(s)}
					for _, opt := range table3Corners() {
						seed++
						opt.Shots = shots
						opt.Seed = seed
						fc.name = fmt.Sprintf("%s/%s/%s/sched=%v/workers=%d/batch=%d",
							dev.Name, b.Name, s, opt.ScheduleAwareDecay, opt.Workers, opt.ShotsPerTrajectory)
						naive, fast := runBothPaths(t, fc, opt)
						assertSameCounts(t, fc.name, naive, fast)
					}
				}
			})
		}
	}
}

// TestFastPathCompactedDeviceLookups runs a sparse circuit on a device
// whose qubits differ sharply in gate error and T1. Compaction renumbers
// every active qubit here, so a compact index used where the physical
// qubit belongs would pick up another qubit's calibration and diverge
// from the naive loop.
func TestFastPathCompactedDeviceLookups(t *testing.T) {
	dev, err := device.Synthetic(device.SyntheticSpec{NumQubits: 7, Topology: "line", Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := range dev.Qubits {
		dev.Qubits[i].Gate1Error = 0.02 + 0.06*float64(i)
		dev.Qubits[i].T1 = 4 + 25*float64(i)
	}
	for i := range dev.Links {
		dev.Links[i].Gate2Error = 0.03 + 0.07*float64(i)
	}
	// Active qubits 2, 3, 5, 6 become compact qubits 0–3.
	c := circuit.New(7, "sparse").H(2).CX(2, 3).X(5).T(3).CX(5, 6).H(6).CX(3, 2).AddBarrier().X(3)
	fc := fastPathCase{name: "sparse7", dev: dev, c: c}
	for _, ab := range []backend.Options{{}, {ScheduleAwareDecay: true, IdleInversion: true}} {
		for seed := int64(1); seed <= 3; seed++ {
			for _, batch := range []int{1, 7} {
				opt := ab
				opt.Shots = 300
				opt.Seed = seed
				opt.ShotsPerTrajectory = batch
				naive, fast := runBothPaths(t, fc, opt)
				assertSameCounts(t, fc.name, naive, fast)
			}
		}
	}
}

// TestFastPathMatchesNaiveParallel repeats the sweep through runParallel:
// worker seed derivation and chunk splitting are shared code, so any
// divergence here isolates to per-worker runShots state.
func TestFastPathMatchesNaiveParallel(t *testing.T) {
	for _, fc := range fastPathCases() {
		for _, ab := range fastPathAblations() {
			for _, workers := range []int{2, 3} {
				opt := ab.opt
				opt.Shots = 301 // odd: uneven chunk split
				opt.Seed = 7
				opt.Workers = workers
				opt.ShotsPerTrajectory = 7
				naive, fast := runBothPaths(t, fc, opt)
				label := fc.name + "/" + ab.name
				assertSameCounts(t, label, naive, fast)
			}
		}
	}
}

// TestFastPathBatchBoundary pins the remainder handling: a shot budget
// that is not a multiple of the batch leaves a final short batch, which
// must reset the sampler and consume the same stream as the naive loop.
func TestFastPathBatchBoundary(t *testing.T) {
	fc := fastPathCases()[1] // 14q: batch sampler active
	for _, shots := range []int{1, 31, 32, 33, 65} {
		opt := backend.Options{Shots: shots, Seed: 11, ShotsPerTrajectory: 32}
		naive, fast := runBothPaths(t, fc, opt)
		assertSameCounts(t, fc.name, naive, fast)
	}
}

// TestFastPathDeterministicAcrossRuns guards the pooling: buffers handed
// back by one run must not leak state into the next (Reset on acquire),
// so back-to-back identical runs stay byte-identical.
func TestFastPathDeterministicAcrossRuns(t *testing.T) {
	fc := fastPathCases()[1]
	opt := backend.Options{Shots: 500, Seed: 5, ShotsPerTrajectory: 16}
	first, err := backend.Run(fc.c, fc.dev, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		again, err := backend.Run(fc.c, fc.dev, opt)
		if err != nil {
			t.Fatal(err)
		}
		assertSameCounts(t, "repeat", first, again)
	}
}
