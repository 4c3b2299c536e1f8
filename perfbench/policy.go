package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"time"

	"biasmit/internal/backend"
	"biasmit/internal/core"
	"biasmit/internal/device"
	"biasmit/internal/dist"
	"biasmit/internal/kernels"
	"biasmit/internal/metrics"
	"biasmit/internal/orchestrate"
)

// policyWorkload is a closed loop over a fixed request list: every
// (machine, benchmark) target under every policy kind, one call at a
// time. Each pass derives fresh request seeds from the workload seed
// and the pass number.
type policyWorkload struct {
	name     string
	machines []string
	benches  []string // empty: the whole Table-3 suite
	shots    int
	// profileShots is the per-state (brute force) or per-window (AWCT)
	// budget of every profile the workload learns.
	profileShots int
	// cold adds cold AIM to the request list: a brute-force Profiler
	// call, timed on its own, then AIMContext.
	cold bool
	// sloMS is the latency limit slo_ok_ratio counts against, and
	// tailPct the percentile req_tail_ms reports.
	sloMS, tailPct float64
	// oracleCalls is how many pass-0 calls are re-run against the
	// NoFastPath oracle.
	oracleCalls int
	setups      int
}

// policyMelbourne runs the Table-3 suite on the 14-qubit machine: jobs
// touch at most 8 qubits but every trajectory sweeps 2^14 amplitudes.
var policyMelbourne = policyWorkload{
	name:         "policy-melbourne",
	machines:     []string{"ibmq-melbourne"},
	shots:        256,
	profileShots: 256,
	sloMS:        5000,
	tailPct:      90,
	oracleCalls:  2,
	setups:       6,
}

// policy5Q runs the four 4-qubit Table-3 benchmarks on both 5-qubit
// machines: every qubit is active and each trajectory yields one shot.
var policy5Q = policyWorkload{
	name:         "policy-5q",
	machines:     []string{"ibmqx2", "ibmqx4"},
	benches:      []string{"bv-4A", "bv-4B", "qaoa-4A", "qaoa-4B"},
	shots:        2048,
	profileShots: 256,
	cold:         true,
	sloMS:        500,
	tailPct:      95,
	oracleCalls:  4,
	setups:       12,
}

const (
	kindBaseline = "baseline"
	kindSIM      = "sim"
	kindAIMWarm  = "aim_warm"
	kindAIMCold  = "aim_cold"
)

func (w policyWorkload) kinds() []string {
	k := []string{kindBaseline, kindSIM, kindAIMWarm}
	if w.cold {
		k = append(k, kindAIMCold)
	}
	return k
}

// target is one (machine, benchmark) pair with its warm AIM profile.
type target struct {
	machine *core.Machine
	bench   kernels.Benchmark
	rbms    core.RBMS
}

type policyEnv struct {
	targets []target
}

func (w policyWorkload) benchmarks() ([]kernels.Benchmark, error) {
	suite := kernels.Table3Suite()
	if len(w.benches) == 0 {
		return suite, nil
	}
	var out []kernels.Benchmark
	for _, name := range w.benches {
		found := false
		for _, b := range suite {
			if b.Name == name {
				out = append(out, b)
				found = true
			}
		}
		if !found {
			return nil, fmt.Errorf("no Table-3 benchmark %q", name)
		}
	}
	return out, nil
}

// newMachine builds a core.Machine on the named device whose every
// backend run goes through run.
func newMachine(name string, run backend.Runner) (*core.Machine, error) {
	dev, ok := device.ByName(name)
	if !ok {
		return nil, fmt.Errorf("unknown machine %q", name)
	}
	m := core.NewMachine(dev)
	m.Workers = benchWorkers()
	m.Run = run
	return m, nil
}

// learnProfile learns an RBMS profile on the job's layout by the
// paper's size rule: brute force up to 5 qubits, AWCT (window 4,
// overlap 2) beyond.
func learnProfile(ctx context.Context, job *core.Job, shots int, seed int64) (core.RBMS, error) {
	if job.Width() <= 5 {
		return job.Profiler().BruteForceContext(ctx, shots, seed)
	}
	return job.Profiler().AWCTContext(ctx, 4, 2, shots, seed)
}

// setup places every target, learns its warm AIM profile, and warms the
// simulator's buffer pools with one small run per machine.
func (w policyWorkload) setup(ctx context.Context, seed int64, run backend.Runner) (*policyEnv, error) {
	benches, err := w.benchmarks()
	if err != nil {
		return nil, err
	}
	env := &policyEnv{}
	for _, name := range w.machines {
		m, err := newMachine(name, run)
		if err != nil {
			return nil, err
		}
		for _, b := range benches {
			job, err := core.NewJob(b.Circuit, m)
			if err != nil {
				return nil, err
			}
			rbms, err := learnProfile(ctx, job, w.profileShots, orchestrate.DeriveSeed(seed, 7000+len(env.targets)))
			if err != nil {
				return nil, fmt.Errorf("profiling %s on %s: %w", b.Name, name, err)
			}
			env.targets = append(env.targets, target{machine: m, bench: b, rbms: rbms})
			if _, err := job.BaselineContext(ctx, 64, 1); err != nil {
				return nil, err
			}
		}
	}
	return env, nil
}

// policyCall is one request of the list: a policy kind on a target.
type policyCall struct {
	target int
	kind   string
	seed   int64
}

// calls is the request list of one pass.
func (w policyWorkload) calls(env *policyEnv, seed int64, pass int) []policyCall {
	kinds := w.kinds()
	n := len(env.targets) * len(kinds)
	out := make([]policyCall, 0, n)
	for ti := range env.targets {
		for _, k := range kinds {
			out = append(out, policyCall{target: ti, kind: k, seed: orchestrate.DeriveSeed(seed, 1+pass*n+len(out))})
		}
	}
	return out
}

type callResult struct {
	call    policyCall
	latency time.Duration // placement + policy
	place   time.Duration
	policy  time.Duration // the core call; for cold AIM, profile + AIM
	profile time.Duration // cold AIM's profiler call
	counts  *dist.Counts
	pst     float64
	err     error
}

// execute runs one request: placement through core.NewJob, then the
// policy, each inside its own span when ctx carries one.
func (w policyWorkload) execute(ctx context.Context, env *policyEnv, c policyCall) callResult {
	tg := env.targets[c.target]
	res := callResult{call: c}
	t0 := time.Now()
	_, psp := startSpan(ctx, "place")
	job, err := core.NewJob(tg.bench.Circuit, tg.machine)
	psp.end()
	res.place = time.Since(t0)
	if err != nil {
		res.err = err
		return res
	}
	pctx, pol := startSpan(ctx, "policy")
	pol.tag("kind", c.kind)
	t1 := time.Now()
	res.counts, res.profile, res.err = runKind(pctx, job, tg.rbms, c.kind, w.shots, w.profileShots, c.seed)
	pol.end()
	res.policy = time.Since(t1)
	res.latency = time.Since(t0)
	if res.err == nil {
		res.pst = metrics.PSTEquiv(res.counts.Dist(), tg.bench.Correct...)
	}
	return res
}

// runKind executes one policy call on job and returns its merged
// logical counts, plus the profiler time of a cold AIM call.
func runKind(ctx context.Context, job *core.Job, rbms core.RBMS, kind string, shots, profileShots int, seed int64) (*dist.Counts, time.Duration, error) {
	switch kind {
	case kindBaseline:
		c, err := job.BaselineContext(ctx, shots, seed)
		return c, 0, err
	case kindSIM:
		r, err := core.SIM4Context(ctx, job, shots, seed)
		if err != nil {
			return nil, 0, err
		}
		return r.Merged, 0, nil
	case kindAIMWarm:
		r, err := core.AIMContext(ctx, job, rbms, core.AIMConfig{}, shots, seed)
		if err != nil {
			return nil, 0, err
		}
		return r.Merged, 0, nil
	case kindAIMCold:
		t0 := time.Now()
		pctx, sp := startSpan(ctx, "profile")
		cold, err := learnProfile(pctx, job, profileShots, orchestrate.DeriveSeed(seed, 6000))
		sp.end()
		prof := time.Since(t0)
		if err != nil {
			return nil, prof, err
		}
		r, err := core.AIMContext(ctx, job, cold, core.AIMConfig{}, shots, seed)
		if err != nil {
			return nil, prof, err
		}
		return r.Merged, prof, nil
	}
	return nil, 0, fmt.Errorf("unknown policy kind %q", kind)
}

// checkTotal verifies a policy response spends exactly its shot budget.
func checkTotal(c *dist.Counts, shots int) error {
	if c == nil {
		return fmt.Errorf("no counts")
	}
	if c.Total() != shots {
		return fmt.Errorf("counts total %d, want the %d-shot budget", c.Total(), shots)
	}
	return nil
}

// sameCounts reports whether two histograms are identical outcome by
// outcome.
func sameCounts(a, b *dist.Counts) error {
	if a.Width() != b.Width() || a.Total() != b.Total() {
		return fmt.Errorf("width/total %d/%d vs %d/%d", a.Width(), a.Total(), b.Width(), b.Total())
	}
	ao, bo := a.Outcomes(), b.Outcomes()
	if len(ao) != len(bo) {
		return fmt.Errorf("%d vs %d distinct outcomes", len(ao), len(bo))
	}
	for _, o := range ao {
		if a.Get(o) != b.Get(o) {
			return fmt.Errorf("outcome %s: %d vs %d", o, a.Get(o), b.Get(o))
		}
	}
	return nil
}

// oracleCheck re-runs a call with Machine.Opt.NoFastPath on the raw
// backend and requires byte-identical counts.
func (w policyWorkload) oracleCheck(ctx context.Context, env *policyEnv, r callResult) error {
	tg := env.targets[r.call.target]
	m, err := newMachine(tg.machine.Device.Name, nil)
	if err != nil {
		return err
	}
	m.Opt.NoFastPath = true
	job, err := core.NewJob(tg.bench.Circuit, m)
	if err != nil {
		return err
	}
	want, _, err := runKind(ctx, job, tg.rbms, r.call.kind, w.shots, w.profileShots, r.call.seed)
	if err != nil {
		return err
	}
	return sameCounts(r.counts, want)
}

func runPolicy(w policyWorkload, p runParams, rep *report, out *outcome) error {
	ctx := context.Background()
	var m meter
	run := m.wrap(backend.RunContext)
	st := &setupTimer[*policyEnv]{setup: func() (*policyEnv, error) { return w.setup(ctx, p.seed, run) }}
	env, err := st.run((w.setups + 1) / 2)
	if err != nil {
		return err
	}

	var tr *tracer
	minPasses := 1
	if p.traced {
		tr = newTracer()
		minPasses = 2
	}
	var (
		untracedCalls, sloOK int
		pass0                []callResult
		first                work
		untracedS, tracedS   []float64
		untracedCPU          []float64 // process CPU per untraced pass, in µs
		busyS                []float64
		total                work
		policyTime           time.Duration
		deadline             = time.Now().Add(time.Duration(p.seconds * float64(time.Second)))
		allPST               = map[string][]float64{}
		aimPST, basePST      = map[string][]float64{}, map[string][]float64{}
		placeMS, latMS       []float64
		kindMS               = map[string][]float64{}
		coldProfileMS        []float64
		ref                  = newSpeedRef()
		passShots            = float64(len(w.calls(env, p.seed, 0)) * w.shots)
	)
	for pass := 0; pass < minPasses || time.Now().Before(deadline); pass++ {
		traced := p.traced && pass%2 == 1
		before := m.snapshot()
		var d, cpu time.Duration
		for _, c := range w.calls(env, p.seed, pass) {
			// The reference unit runs between requests, outside their
			// timing.
			ref.sample(1)
			cctx := ctx
			var req *activeSpan
			if traced {
				cctx, req = tr.startTrace(ctx, "request", "")
				tg := env.targets[c.target]
				req.tag("machine", tg.machine.Device.Name).tag("bench", tg.bench.Name).tag("kind", c.kind)
			}
			t0, cpu0 := time.Now(), cpuTime()
			r := w.execute(cctx, env, c)
			cpu += cpuTime() - cpu0
			d += time.Since(t0)
			req.end()
			out.attempted++
			if r.err == nil {
				r.err = checkTotal(r.counts, w.shots)
			}
			if r.err != nil {
				tg := env.targets[c.target]
				out.fail("%s %s on %s (seed %d): %v", c.kind, tg.bench.Name, tg.machine.Device.Name, c.seed, r.err)
			} else {
				allPST[c.kind] = append(allPST[c.kind], r.pst)
				tg := env.targets[c.target]
				pair := tg.machine.Device.Name + "/" + tg.bench.Name
				switch c.kind {
				case kindBaseline:
					basePST[pair] = append(basePST[pair], r.pst)
				case kindAIMWarm, kindAIMCold:
					aimPST[pair] = append(aimPST[pair], r.pst)
				}
			}
			placeMS = append(placeMS, ms(r.place))
			kindMS[c.kind] = append(kindMS[c.kind], ms(r.policy))
			if c.kind == kindAIMCold {
				coldProfileMS = append(coldProfileMS, ms(r.profile))
			}
			policyTime += r.policy
			if !traced {
				untracedCalls++
				if r.err == nil && ms(r.latency) <= w.sloMS {
					sloOK++
				}
				latMS = append(latMS, ms(r.latency))
			}
			if pass == 0 {
				pass0 = append(pass0, r)
			}
		}
		wk := m.snapshot().minus(before)
		if pass == 0 {
			first = wk
		}
		total.busy += wk.busy
		total.trajectories += wk.trajectories
		total.dampingAmps += wk.dampingAmps
		busyS = append(busyS, wk.busy.Seconds())
		if traced {
			tracedS = append(tracedS, d.Seconds())
		} else {
			untracedS = append(untracedS, d.Seconds())
			untracedCPU = append(untracedCPU, us(cpu))
		}
		fmt.Fprintf(p.log, "pass %d (traced=%v): %.3fs, cpu %.3fs, %d runs, %d shots, %d trajectories, %d amp updates\n",
			pass, traced, d.Seconds(), cpu.Seconds(), wk.runs, wk.shots, wk.trajectories, wk.ampUpdates)
	}

	// Correctness: every total was checked above; a seeded sample of
	// pass-0 calls must match the NoFastPath oracle byte for byte.
	rng := rand.New(rand.NewSource(p.seed))
	for _, i := range rng.Perm(len(pass0))[:min(w.oracleCalls, len(pass0))] {
		r := pass0[i]
		if r.err != nil {
			continue
		}
		if err := w.oracleCheck(ctx, env, r); err != nil {
			tg := env.targets[r.call.target]
			out.fail("%s %s on %s (seed %d) differs from the NoFastPath oracle: %v", r.call.kind, tg.bench.Name, tg.machine.Device.Name, r.call.seed, err)
		}
	}

	if err := st.again(w.setups / 2); err != nil {
		return err
	}
	sc := ref.scale()
	rep.set("setup_s", st.median()*sc, "median of %d set-ups (%.4fs), half before and half after the passes: place %d targets, learn their warm AIM profiles, warm the pools; %s", len(st.times), st.median(), len(env.targets), ref.note())

	// End-to-end metrics, from the untraced passes, at the nominal speed.
	suite := mean(untracedS) * sc
	rep.set("suite_s", suite, "mean of %d untraced passes over %d requests (%.4fs measured), scaled", len(untracedS), len(w.calls(env, p.seed, 0)), mean(untracedS))
	rep.set("shots_per_s", passShots/suite, "%g mitigated shots per pass / suite_s", passShots)
	rep.set("cpu_us_per_shot", mean(untracedCPU)/passShots*ref.cpuScale(), "process CPU during the requests, mean per pass (%.0fus measured) / shots per pass; %s", mean(untracedCPU), ref.cpuNote())
	rep.set("req_p50_ms", median(latMS)*sc, "%d requests, placement + policy (%.3fms measured), scaled", len(latMS), median(latMS))
	tv, tb := tailAt(latMS, w.tailPct)
	rep.set("req_tail_ms", tv*sc, "p%g of %d requests, %d beyond (%.3fms measured), scaled", w.tailPct, len(latMS), tb, tv)
	rep.set("slo_ok_ratio", float64(sloOK)/float64(max(untracedCalls, 1)), "correct within %gms", w.sloMS)
	var psts []float64
	for _, k := range w.kinds() {
		psts = append(psts, allPST[k]...)
	}
	rep.set("pst_mean", mean(psts), "over %d responses", len(psts))
	logPST(p.log, aimPST, basePST)
	gain, pairs := pstGain(aimPST, basePST)
	rep.set("aim_pst_gain", gain, "mean over %d (machine, benchmark) pairs of mean AIM PST / mean baseline PST", pairs)

	// Per-layer metrics.
	rep.set("backend.runs", float64(first.runs), "pass 0")
	rep.set("backend.shots", float64(first.shots), "pass 0")
	rep.set("backend.trajectories", float64(first.trajectories), "pass 0, computed from the plan")
	rep.set("backend.amp_updates", float64(first.ampUpdates), "pass 0, computed from the plan")
	rep.set("backend.busy_s", median(busyS), "median per pass, summed over concurrent runs")
	rep.set("backend.ns_per_trajectory", float64(total.busy.Nanoseconds())/float64(max(total.trajectories, 1)), "")
	rep.set("backend.share", total.busy.Seconds()/policyTime.Seconds(), "backend busy / policy busy")
	rep.set("core.parallel_eff", total.busy.Seconds()/(policyTime.Seconds()*float64(benchWorkers())), "backend busy / (policy wall x %d workers)", benchWorkers())
	pm := median(placeMS)
	rep.set("transpile.place_ms", pm, "core.NewJob per request; median of %d", len(placeMS))
	rep.set("transpile.place_share", pm/median(latMS), "of the measured median request")
	rep.set("core.baseline_ms", median(kindMS[kindBaseline]), "")
	rep.set("core.sim_ms", median(kindMS[kindSIM]), "")
	rep.set("core.aim_warm_ms", median(kindMS[kindAIMWarm]), "")
	if w.cold {
		rep.set("core.aim_cold_ms", median(kindMS[kindAIMCold]), "profile + AIM")
		rep.set("core.profile_ms", median(coldProfileMS), "brute-force Profiler call of cold AIM")
	}
	if len(tracedS) > 0 {
		rep.set("trace.overhead_ratio", mean(tracedS)/mean(untracedS), "mean traced / untraced pass time, %d and %d passes", len(tracedS), len(untracedS))
	}
	if !p.traced {
		return nil
	}

	if !w.cold {
		if err := w.coldProbe(ctx, env, p.seed, rep); err != nil {
			return err
		}
	}
	if err := measureKernels(rep, 1500*time.Millisecond); err != nil {
		return err
	}
	width := "w5"
	if env.targets[0].machine.Device.NumQubits > 8 {
		width = "w14"
	}
	dampNS := rep.values["quantum.damping_ns_per_amp."+width] * float64(total.dampingAmps)
	rep.set("backend.damping_share", dampNS/float64(total.busy.Nanoseconds()),
		"computed: damping ns/amp (%s) x %d damping amplitude-calls / backend busy", width, total.dampingAmps)
	if err := serveProbe(p, rep, tr, out); err != nil {
		return err
	}
	return tr.write(p, w.name)
}

// coldProbe measures cold AIM once per target for a workload whose
// request list has only warm AIM: the profile is learned by the size
// rule, timed on its own, then AIMContext runs.
func (w policyWorkload) coldProbe(ctx context.Context, env *policyEnv, seed int64, rep *report) error {
	var prof, total []float64
	for i := range env.targets {
		r := w.execute(ctx, env, policyCall{target: i, kind: kindAIMCold, seed: orchestrate.DeriveSeed(seed, 9000+i)})
		if r.err == nil {
			r.err = checkTotal(r.counts, w.shots)
		}
		if r.err != nil {
			return fmt.Errorf("cold AIM probe: %w", r.err)
		}
		prof = append(prof, ms(r.profile))
		total = append(total, ms(r.policy))
	}
	rep.set("core.aim_cold_ms", median(total), "probe after the passes: profile + AIM, %d targets", len(total))
	rep.set("core.profile_ms", median(prof), "probe after the passes: size-rule Profiler call")
	return nil
}

// pstGain is the mean over (machine, benchmark) pairs of mean AIM PST ÷
// mean baseline PST, with the number of pairs that had both. Pairs are
// visited in sorted order so the float sum is reproducible.
func pstGain(aim, base map[string][]float64) (float64, int) {
	pairs := make([]string, 0, len(aim))
	for k := range aim {
		pairs = append(pairs, k)
	}
	sort.Strings(pairs)
	var ratios []float64
	for _, k := range pairs {
		b := mean(base[k])
		if b == 0 {
			continue
		}
		ratios = append(ratios, mean(aim[k])/b)
	}
	return mean(ratios), len(ratios)
}

// logPST prints mean AIM and baseline PST per (machine, benchmark).
func logPST(log io.Writer, aim, base map[string][]float64) {
	pairs := make([]string, 0, len(aim))
	for k := range aim {
		pairs = append(pairs, k)
	}
	sort.Strings(pairs)
	for _, k := range pairs {
		fmt.Fprintf(log, "pst %-24s baseline %.4f (%d)  aim %.4f (%d)\n", k, mean(base[k]), len(base[k]), mean(aim[k]), len(aim[k]))
	}
}
