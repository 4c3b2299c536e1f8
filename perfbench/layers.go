package main

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"sync/atomic"
	"time"

	"biasmit/internal/backend"
	"biasmit/internal/bitstring"
	"biasmit/internal/circuit"
	"biasmit/internal/device"
	"biasmit/internal/dist"
	"biasmit/internal/noise"
	"biasmit/internal/quantum"
)

// meter is the backend layer seen from outside: a backend.Runner,
// installed as core.Machine.Run, that times and counts every run a
// policy or profiler makes. Trajectories and amplitude updates are
// computed from the run's circuit and options (planWork), not observed.
type meter struct {
	runs, shots, trajectories, ampUpdates, dampingAmps atomic.Int64
	busy                                               atomic.Int64 // ns summed over runs
}

// work is a snapshot of a meter's counters.
type work struct {
	runs, shots, trajectories, ampUpdates, dampingAmps int64
	busy                                               time.Duration
}

func (m *meter) snapshot() work {
	return work{
		runs:         m.runs.Load(),
		shots:        m.shots.Load(),
		trajectories: m.trajectories.Load(),
		ampUpdates:   m.ampUpdates.Load(),
		dampingAmps:  m.dampingAmps.Load(),
		busy:         time.Duration(m.busy.Load()),
	}
}

func (w work) minus(o work) work {
	return work{
		runs:         w.runs - o.runs,
		shots:        w.shots - o.shots,
		trajectories: w.trajectories - o.trajectories,
		ampUpdates:   w.ampUpdates - o.ampUpdates,
		dampingAmps:  w.dampingAmps - o.dampingAmps,
		busy:         w.busy - o.busy,
	}
}

// wrap returns next with timing and counting around every call.
func (m *meter) wrap(next backend.Runner) backend.Runner {
	return func(ctx context.Context, c *circuit.Circuit, dev *device.Device, opt backend.Options) (*dist.Counts, error) {
		_, sp := startSpan(ctx, "backend.run")
		t0 := time.Now()
		counts, err := next(ctx, c, dev, opt)
		m.busy.Add(int64(time.Since(t0)))
		sp.end()
		if err != nil {
			return nil, err
		}
		pw := planWork(c, dev, opt)
		m.runs.Add(1)
		m.shots.Add(int64(opt.Shots))
		m.trajectories.Add(pw.trajectories)
		m.ampUpdates.Add(pw.ampUpdates)
		m.dampingAmps.Add(pw.dampingAmps)
		return counts, nil
	}
}

// runWork is the deterministic work of one backend run.
type runWork struct {
	trajectories int64
	// ampUpdates counts amplitudes visited by the full-register sweeps
	// every trajectory makes: the reset, one per gate kernel, four per
	// amplitude-damping call (Prob1, the jump or scale pass, Norm, the
	// Normalize multiply) and the CDF build of a multi-shot batch.
	// Stochastic Pauli kicks and per-shot sampling are excluded.
	ampUpdates int64
	// dampingAmps counts amplitudes under damping calls (one per call
	// per amplitude, each call being four sweeps).
	dampingAmps int64
}

// planWork computes the work backend.RunContext spends on c under opt:
// the trajectory count follows the trial loop (ShotsPerTrajectory, with
// its device-size default), the sweep count follows the gate list and
// the gate-noise model. It covers the options the benchmark uses — the
// default noise model without schedule-aware decay and without
// in-run workers.
func planWork(c *circuit.Circuit, dev *device.Device, opt backend.Options) runWork {
	spt := opt.ShotsPerTrajectory
	if spt <= 0 {
		spt = 1
		if dev.NumQubits > 8 {
			spt = 32
		}
	}
	shots := int64(opt.Shots)
	traj := (shots + int64(spt) - 1) / int64(spt)
	var sweeps, damping int64 = 1, 0 // the reset
	for _, op := range c.Ops {
		if op.Kind == circuit.Barrier {
			continue
		}
		sweeps++
		if opt.NoDecay {
			continue
		}
		duration := dev.Gate1Duration
		if op.IsTwoQubit() {
			duration = dev.Gate2Duration
			if op.Kind == circuit.SwapOp {
				duration = 3 * dev.Gate2Duration
			}
		}
		for _, q := range op.Qubits {
			if noise.DecayProb(duration, dev.Qubits[q].T1) > 0 {
				damping++
			}
		}
	}
	sweeps += 4 * damping
	// A batch of more than one shot builds the CDF sampler once.
	var cdfBuilds int64
	if spt > 1 {
		cdfBuilds = shots / int64(spt)
		if rem := shots % int64(spt); rem > 1 {
			cdfBuilds++
		}
	}
	amps := int64(1) << uint(dev.NumQubits)
	return runWork{
		trajectories: traj,
		ampUpdates:   (traj*sweeps + cdfBuilds) * amps,
		dampingAmps:  traj * damping * amps,
	}
}

// kernelWidths are the register widths the kernels are measured at: the
// 5-qubit machines and ibmq-melbourne.
var kernelWidths = []int{5, 14}

// sink keeps measured results alive so the compiler cannot drop calls.
var sink bitstring.Bits

// timePerCall runs fn in batches of calibrated size and returns the
// median nanoseconds per call over the batches. prep, when set, runs
// untimed before each batch.
func timePerCall(budget time.Duration, prep func(), fn func(i int)) float64 {
	const batches = 7
	per := budget / batches
	n := 1
	for {
		if prep != nil {
			prep()
		}
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		if d := time.Since(t0); d >= per/4 || n >= 1<<24 {
			break
		}
		n *= 2
	}
	n *= 4
	var ns []float64
	for b := 0; b < batches; b++ {
		if prep != nil {
			prep()
		}
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		ns = append(ns, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return median(ns)
}

// measureKernels times the state-vector kernels at each kernel width
// and the compiled readout channel of ibmqx4, calling them directly.
func measureKernels(rep *report, budget time.Duration) error {
	per := budget / time.Duration(5*len(kernelWidths)+1)
	rng := rand.New(rand.NewSource(11))
	for _, w := range kernelWidths {
		w := w
		amps := float64(int64(1) << uint(w))
		state := quantum.NewState(w)
		superpose := func() {
			state.Reset()
			for q := 0; q < w; q++ {
				state.Apply1(quantum.H, q)
			}
		}
		bytes := func(perAmp float64) string { return formatBytes(perAmp * amps) }
		suffix := ".w" + strconv.Itoa(w)

		ns := timePerCall(per, superpose, func(i int) { state.Apply1(quantum.H, i%w) })
		rep.set("quantum.apply1_ns_per_amp"+suffix, ns/amps, "State.Apply1; computed bytes moved %s/call (read+write every amplitude)", bytes(32))
		ns = timePerCall(per, superpose, func(i int) { state.ApplyCNOT(i%w, (i+1)%w) })
		rep.set("quantum.cnot_ns_per_amp"+suffix, ns/amps, "State.ApplyCNOT; computed bytes moved %s/call (swap a quarter of the amplitudes, scan the index space)", bytes(16))
		ns = timePerCall(per, superpose, func(i int) { state.ApplyAmplitudeDamping(i%w, 1e-3, rng) })
		rep.set("quantum.damping_ns_per_amp"+suffix, ns/amps, "State.ApplyAmplitudeDamping, one call = 4 sweeps; computed bytes moved %s/call", bytes(80))
		superpose()
		sp := quantum.NewSampler(state)
		ns = timePerCall(per, nil, func(int) { sp.Reset(state) })
		rep.set("quantum.sampler_build_ns_per_amp"+suffix, ns/amps, "Sampler.Reset (CDF build); computed bytes moved %s/call (read amplitude, write prefix)", bytes(24))
		ns = timePerCall(per, nil, func(int) { sink = sp.Sample(rng) })
		rep.set("quantum.sample_ns"+suffix, ns, "Sampler.Sample, binary search; computed bytes moved %s/call (%d prefix reads)", formatBytes(8*float64(w+1)), w+1)
	}
	dev, ok := device.ByName("ibmqx4")
	if !ok {
		return fmt.Errorf("unknown machine ibmqx4")
	}
	cr := dev.ReadoutModel().Compile()
	outs := bitstring.All(dev.NumQubits)
	ns := timePerCall(per, nil, func(i int) { sink = cr.Apply(outs[i%len(outs)], rng) })
	rep.set("noise.readout_apply_ns", ns, "CompiledReadout.Apply on ibmqx4, cycling all 32 outcomes")
	return nil
}

// formatBytes renders a byte count with a binary unit.
func formatBytes(b float64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%.1f MiB", b/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1f KiB", b/(1<<10))
	}
	return fmt.Sprintf("%.0f B", b)
}
