package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"biasmit/internal/api"
	"biasmit/internal/backend"
	"biasmit/internal/core"
	"biasmit/internal/experiments"
	"biasmit/internal/kernels"
)

// runFindings measures the single-request figures README.md checks
// against the earlier unrecorded baseline: SIM4 latency on melbourne and
// ibmqx4, qaoa-7 SIM4, placement per Table-3 benchmark, the damping
// share of simulator time, and the time an HTTP request spends outside
// the server's elapsed_ms.
func runFindings(log io.Writer) error {
	ctx := context.Background()
	const reps = 3
	sim4 := func(machine, bench string, shots int, m *meter) (float64, error) {
		var run backend.Runner = backend.RunContext
		if m != nil {
			run = m.wrap(run)
		}
		mach, err := newMachine(machine, run)
		if err != nil {
			return 0, err
		}
		b, err := experiments.BenchmarkByName(bench)
		if err != nil {
			return 0, err
		}
		job, err := core.NewJob(b.Circuit, mach)
		if err != nil {
			return 0, err
		}
		var ts []float64
		for i := 0; i < reps; i++ {
			t0 := time.Now()
			r, err := core.SIM4Context(ctx, job, shots, int64(i+1))
			if err != nil {
				return 0, err
			}
			if err := checkTotal(r.Merged, shots); err != nil {
				return 0, err
			}
			ts = append(ts, ms(time.Since(t0)))
		}
		return median(ts), nil
	}
	fmt.Fprintf(log, "findings (workers=%d, median of %d calls)\n", benchWorkers(), reps)
	for _, mc := range []struct {
		machine, bench string
		shots          int
	}{
		{"ibmq-melbourne", "bv-4A", 8192},
		{"ibmqx4", "bv-4A", 8192},
		{"ibmq-melbourne", "qaoa-7", 4096},
	} {
		v, err := sim4(mc.machine, mc.bench, mc.shots, nil)
		if err != nil {
			return err
		}
		fmt.Fprintf(log, "  SIM4 %-8s on %-15s at %5d shots: %9.1f ms\n", mc.bench, mc.machine, mc.shots, v)
	}

	mach, err := newMachine("ibmq-melbourne", nil)
	if err != nil {
		return err
	}
	for _, b := range kernels.Table3Suite() {
		var ts []float64
		for i := 0; i < 20; i++ {
			t0 := time.Now()
			if _, err := core.NewJob(b.Circuit, mach); err != nil {
				return err
			}
			ts = append(ts, ms(time.Since(t0)))
		}
		fmt.Fprintf(log, "  place %-8s on ibmq-melbourne: median %.3f ms, max %.3f ms\n", b.Name, median(ts), quantile(ts, 1))
	}

	for _, name := range []string{"qaoa-4A", "qaoa-6", "qaoa-7", "bv-7"} {
		var ts []float64
		for i := 0; i < reps; i++ {
			t0 := time.Now()
			if _, err := experiments.BenchmarkByName(name); err != nil {
				return err
			}
			ts = append(ts, ms(time.Since(t0)))
		}
		fmt.Fprintf(log, "  resolve %-8s (experiments.BenchmarkByName, as the server does per request): median %.3f ms\n", name, median(ts))
	}

	rep := newReport()
	if err := measureKernels(rep, 1500*time.Millisecond); err != nil {
		return err
	}
	var m meter
	if _, err := sim4("ibmq-melbourne", "qaoa-7", 4096, &m); err != nil {
		return err
	}
	w := m.snapshot()
	damp := rep.values["quantum.damping_ns_per_amp.w14"] * float64(w.dampingAmps)
	fmt.Fprintf(log, "  damping share of backend busy time, qaoa-7 SIM4 on melbourne: %.1f%% (%.3g ns/amp x %d amplitude-calls / %.1f ms busy)\n",
		100*damp/float64(w.busy.Nanoseconds()), rep.values["quantum.damping_ns_per_amp.w14"], w.dampingAmps, ms(w.busy))
	// The same share against a kernel-cost model instead of measured busy
	// time: every other sweep priced at Apply1's cost per amplitude. Both
	// sides then come from the same kernel measurement.
	other := rep.values["quantum.apply1_ns_per_amp.w14"] * float64(w.ampUpdates-4*w.dampingAmps)
	fmt.Fprintf(log, "  damping share of modelled kernel time (other sweeps at Apply1 cost): %.1f%%\n", 100*damp/(damp+other))

	env, err := startServer()
	if err != nil {
		return err
	}
	defer env.close()
	for _, bench := range []string{"qaoa-7", "bv-4A"} {
		var outside, share []float64
		for i := 0; i < reps; i++ {
			req := api.MitigateRequest{Machine: "ibmq-melbourne", Benchmark: bench, Policy: "sim", Shots: 4096, Seed: int64(100 + i)}
			t0 := time.Now()
			st, body, err := env.post(ctx, "/v1/mitigate", req, "")
			lat := ms(time.Since(t0))
			if err == nil && st != http.StatusOK {
				err = fmt.Errorf("status %d: %s", st, firstLine(body))
			}
			if err != nil {
				return err
			}
			var resp api.MitigateResponse
			if err := json.Unmarshal(body, &resp); err != nil {
				return err
			}
			outside = append(outside, lat-resp.ElapsedMS)
			share = append(share, (lat-resp.ElapsedMS)/lat)
		}
		fmt.Fprintf(log, "  HTTP %s SIM4 on melbourne, 4096 shots: %.2f ms outside elapsed_ms (%.2f%% of latency)\n",
			bench, median(outside), 100*median(share))
	}
	return nil
}
