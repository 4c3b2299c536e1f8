package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"time"

	"biasmit/internal/api"
	"biasmit/internal/backend"
	"biasmit/internal/core"
	"biasmit/internal/dist"
	"biasmit/internal/experiments"
	"biasmit/internal/metrics"
	"biasmit/internal/profilestore"
)

func runServeMix(p runParams, rep *report, out *outcome) error {
	c := serveMixConfig
	ctx := context.Background()
	st := &setupTimer[*serveEnv]{setup: func() (*serveEnv, error) { return c.serveSetup(ctx) }, release: (*serveEnv).close}
	env, err := st.run((c.setups + 1) / 2)
	if err != nil {
		return err
	}
	// A traced run alternates untraced and traced passes, so the two
	// can be compared for tracing overhead.
	var tr *tracer
	if p.traced {
		tr = newTracer()
	}
	run, err := c.drive(ctx, env, p.seed, p.seconds, tr, func(pass int) bool { return pass%2 == 1 }, out)
	if err != nil {
		return err
	}
	vr, err := c.verifyLibrary(ctx, run, p.seed, tr, out)
	env.close()
	if err != nil {
		return err
	}
	if err := st.again(c.setups / 2); err != nil {
		return err
	}
	rep.set("setup_s", st.median()*run.ref.scale(), "median of %d set-ups (%.4fs), half before and half after the passes: start the server, learn %d profiles over HTTP, warm up; %s", len(st.times), st.median(), len(profileKeys), run.ref.note())
	c.endToEnd(rep, p.log, run)
	if !p.traced {
		return nil
	}
	servingLayers(rep, run, "traced passes")
	rep.set("trace.overhead_ratio", mean(run.tracedS)/mean(run.untracedS), "mean traced / untraced pass time, %d and %d passes", len(run.tracedS), len(run.untracedS))
	if err := measureKernels(rep, 1500*time.Millisecond); err != nil {
		return err
	}
	vr.setLayers(rep, median(run.untracedLat), rep.values["quantum.damping_ns_per_amp.w5"])
	return tr.write(p, "serve-mix")
}

// serveProbe drives a few traced serve-mix passes so that a policy
// workload's traced run reports the serving layers too; the policy
// passes themselves never touch HTTP.
func serveProbe(p runParams, rep *report, tr *tracer, out *outcome) error {
	c := serveMixConfig
	secs := min(4, p.seconds/4)
	ctx := context.Background()
	env, err := c.serveSetup(ctx)
	if err != nil {
		return err
	}
	run, err := c.drive(ctx, env, p.seed, secs, tr, func(int) bool { return true }, out)
	if err != nil {
		return err
	}
	env.close()
	servingLayers(rep, run, fmt.Sprintf("serving probe, %gs of passes", secs))
	return nil
}

// tally counts a pass's requests as attempted, and those that errored,
// were refused, or failed a check as failed, and adds their latencies
// and PST to the run's totals.
func (run *serveRun) tally(results []serveResult, sloMS float64, out *outcome) {
	for _, r := range results {
		out.attempted++
		lat := ms(r.latency)
		run.latByKind[r.req.kind] = append(run.latByKind[r.req.kind], lat)
		if r.err != nil {
			out.fail("request %d (%s): %v", r.req.idx, r.req.kind, r.err)
			continue
		}
		if lat <= sloMS {
			run.sloOK++
		}
		if r.resp == nil {
			continue
		}
		pst := r.resp.Metrics.PST
		run.psts = append(run.psts, pst)
		pair := r.resp.Machine + "/" + r.resp.Benchmark
		switch r.resp.Policy {
		case "aim":
			run.aimPST[pair] = append(run.aimPST[pair], pst)
		case "baseline":
			run.basePST[pair] = append(run.basePST[pair], pst)
		}
	}
}

// endToEnd sets the end-to-end metrics of a run from its untraced
// passes, with times scaled to the nominal speed.
func (c serveMix) endToEnd(rep *report, log io.Writer, run *serveRun) {
	sc := run.ref.scale()
	suite := mean(run.untracedS) * sc
	rep.set("suite_s", suite, "mean of %d passes over %d requests, %d clients (%.4fs measured), scaled", len(run.untracedS), c.passRequests, benchWorkers(), mean(run.untracedS))
	rep.set("shots_per_s", float64(run.passShots)/suite, "%d mitigated shots per pass / suite_s", run.passShots)
	rep.set("cpu_us_per_shot", mean(run.untracedCPU)/float64(run.passShots)*run.ref.cpuScale(), "process CPU (server and load generator), mean per pass (%.0fus measured) / shots per pass; %s", mean(run.untracedCPU), run.ref.cpuNote())
	for _, k := range []string{reqSync, reqHeavy, reqJob, reqChar} {
		xs := run.latByKind[k]
		fmt.Fprintf(log, "latency %-12s n=%4d p50 %8.2f p90 %8.2f p98 %8.2f max %8.2f ms\n",
			k, len(xs), quantile(xs, 0.5), quantile(xs, 0.9), quantile(xs, 0.98), quantile(xs, 1))
	}
	lat := run.untracedLat
	rep.set("req_p50_ms", median(lat)*sc, "%d requests (%.3fms measured), scaled", len(lat), median(lat))
	tv, tb := tailAt(lat, c.tailPct)
	rep.set("req_tail_ms", tv*sc, "p%g of %d requests, %d beyond (%.3fms measured), scaled", c.tailPct, len(lat), tb, tv)
	attempted := 0
	for _, xs := range run.latByKind {
		attempted += len(xs)
	}
	rep.set("slo_ok_ratio", float64(run.sloOK)/float64(max(attempted, 1)), "correct within %gms", c.sloMS)
	rep.set("pst_mean", mean(run.psts), "over %d mitigate responses", len(run.psts))
	gain, pairs := pstGain(run.aimPST, run.basePST)
	rep.set("aim_pst_gain", gain, "mean over %d (machine, benchmark) pairs of mean AIM PST / mean baseline PST", pairs)
}

// servingLayers sets the serving stack's per-layer metrics from a traced
// run: result-cache counters scraped from /metrics, profile-store
// counters from Store().StatsSnapshot(), and stage spans from
// /debug/traces joined to the benchmark's request spans by trace ID.
func servingLayers(rep *report, run *serveRun, src string) {
	d := run.cacheDiff
	hits := d["biasmitd_result_cache_hits_total"]
	misses := d["biasmitd_result_cache_misses_total"]
	coal := d["biasmitd_result_cache_coalesced_total"]
	rep.set("rescache.hit_ratio", hits/max(hits+misses+coal, 1), "%s: %g hits, %g misses, %g coalesced; %d replays checked", src, hits, misses, coal, run.checked)
	rep.set("rescache.coalesced", coal, src)
	rep.set("rescache.invalidated", d["biasmitd_result_cache_invalidations_total"], src)
	st := run.storeDiff
	rep.set("profilestore.hits", float64(st.Hits), src)
	rep.set("profilestore.misses", float64(st.Misses), src)
	rep.set("profilestore.joined", float64(st.Joined), src)
	rep.set("profilestore.characterizations", float64(st.Characterizations), src)

	stage := map[string][]float64{}
	var batchWait, overhead, jobE2E, lag []float64
	joined := 0
	for _, r := range run.traced {
		lag = append(lag, ms(r.lag))
		if r.req.kind == reqJob && r.err == nil {
			jobE2E = append(jobE2E, ms(r.latency))
		}
		if (r.req.kind == reqSync || r.req.kind == reqHeavy) && r.err == nil && !r.resp.CacheHit && !r.resp.Coalesced {
			overhead = append(overhead, ms(r.service)-r.resp.ElapsedMS)
		}
		for _, en := range run.traces.entries[r.traceID] {
			joined++
			srvSpan := r.span.addExternal("server "+en.Route, en.Start, msDur(en.ElapsedMS), en.Tags)
			for _, s := range en.Spans {
				srvSpan.addExternal(s.Name, en.Start.Add(msDur(s.StartMS)), msDur(s.DurationMS), s.Tags)
				switch {
				case en.Route == "/v1/mitigate":
					stage[s.Name] = append(stage[s.Name], s.DurationMS)
				case strings.HasPrefix(en.Route, "job:") && s.Name == "batch_wait":
					batchWait = append(batchWait, s.DurationMS)
				}
			}
		}
	}
	for _, name := range []string{"queue_wait", "sample", "decode", "serialize"} {
		xs := stage[name]
		rep.set("server."+name+"_ms.p50", quantile(xs, 0.5), "%s: %d /v1/mitigate spans from %d joined server traces", src, len(xs), joined)
		rep.set("server."+name+"_ms.p99", quantile(xs, 0.99), "%s: %d spans", src, len(xs))
	}
	rep.set("server.overhead_ms", median(overhead), "%s: latency from connection minus elapsed_ms, %d computed requests", src, len(overhead))
	rep.set("jobs.batch_wait_ms.p50", median(batchWait), "%s: %d batch_wait spans", src, len(batchWait))
	rep.set("jobs.e2e_ms.p50", median(jobE2E), "%s: submit to result, %d jobs", src, len(jobE2E))
	rep.set("loadgen.lag_ms.p99", quantile(lag, 0.99), "%s: client time from an answer to its next send, %d sends", src, len(lag))
}

func msDur(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }

// verifyResult is what the library re-runs measured.
type verifyResult struct {
	work      work
	policy    time.Duration
	placeMS   []float64
	kindMS    map[string][]float64
	coldMS    float64
	profileMS float64
}

// verifyLibrary re-runs a seeded sample of pass 0's served 5-qubit
// requests — up to two per policy — through the library with the same (machine,
// benchmark, policy, shots, seed), and requires the served counts and
// PST to match exactly. A mismatch counts the served request as failed.
// The re-runs go through a metered core.Machine, which is also where
// this workload measures the backend, transpile and core layers.
func (c serveMix) verifyLibrary(ctx context.Context, run *serveRun, seed int64, tr *tracer, out *outcome) (*verifyResult, error) {
	var m meter
	runner := m.wrap(backend.RunContext)
	vr := &verifyResult{kindMS: map[string][]float64{}}
	seen := map[string]bool{}
	var cands []int
	for i, r := range run.pass0 {
		if r.err == nil && r.req.kind != reqHeavy && r.resp != nil && !seen[r.req.key] {
			seen[r.req.key] = true
			cands = append(cands, i)
		}
	}
	perPolicy := map[string]int{}
	rng := rand.New(rand.NewSource(seed))
	var picked []int
	for _, j := range rng.Perm(len(cands)) {
		i := cands[j]
		pol := run.pass0[i].req.mit.Policy
		if perPolicy[pol] < (c.verifyCalls+len(policies)-1)/len(policies) {
			perPolicy[pol]++
			picked = append(picked, i)
		}
	}
	for n, i := range picked {
		r := &run.pass0[i]
		rctx, sp := tr.startTrace(ctx, "verify", "")
		counts, kind, err := c.libraryCall(rctx, run, r.req.mit, runner, vr)
		sp.end()
		if err != nil {
			return nil, fmt.Errorf("library re-run of request %d: %w", r.req.idx, err)
		}
		if err := sameServed(r.resp, counts); err != nil {
			out.fail("request %d (%s): served %s result differs from the library: %v", r.req.idx, r.req.kind, kind, err)
		}
		if n == 0 {
			if err := c.coldCall(ctx, r.req.mit, runner, vr); err != nil {
				return nil, err
			}
		}
	}
	vr.work = m.snapshot()
	return vr, nil
}

// libraryCall runs one request's policy through core, timing placement
// and the policy call.
func (c serveMix) libraryCall(ctx context.Context, run *serveRun, req *api.MitigateRequest, runner backend.Runner, vr *verifyResult) (*dist.Counts, string, error) {
	m, err := newMachine(req.Machine, runner)
	if err != nil {
		return nil, "", err
	}
	bench, err := experiments.BenchmarkByName(req.Benchmark)
	if err != nil {
		return nil, "", err
	}
	t0 := time.Now()
	_, psp := startSpan(ctx, "place")
	job, err := core.NewJob(bench.Circuit, m)
	psp.end()
	vr.placeMS = append(vr.placeMS, ms(time.Since(t0)))
	if err != nil {
		return nil, "", err
	}
	kind := kindBaseline
	var rbms core.RBMS
	switch req.Policy {
	case "sim":
		kind = kindSIM
	case "aim":
		kind = kindAIMWarm
		key := profilestore.Key{Machine: req.Machine, Width: job.Width(), Method: "brute"}
		p, ok := run.env.srv.Store().Get(key)
		if !ok {
			return nil, "", fmt.Errorf("no cached %s profile", key)
		}
		rbms = p.RBMS
	}
	pctx, pol := startSpan(ctx, "policy")
	t1 := time.Now()
	counts, _, err := runKind(pctx, job, rbms, kind, req.Shots, 0, req.Seed)
	d := time.Since(t1)
	pol.end()
	vr.policy += d
	vr.kindMS[kind] = append(vr.kindMS[kind], ms(d))
	if err != nil {
		return nil, "", err
	}
	return counts, kind, checkTotal(counts, req.Shots)
}

// coldCall times one cold AIM call on a verified request's target: a
// size-rule profile on the job's layout, then AIMContext.
func (c serveMix) coldCall(ctx context.Context, req *api.MitigateRequest, runner backend.Runner, vr *verifyResult) error {
	m, err := newMachine(req.Machine, runner)
	if err != nil {
		return err
	}
	bench, err := experiments.BenchmarkByName(req.Benchmark)
	if err != nil {
		return err
	}
	job, err := core.NewJob(bench.Circuit, m)
	if err != nil {
		return err
	}
	t0 := time.Now()
	counts, prof, err := runKind(ctx, job, core.RBMS{}, kindAIMCold, req.Shots, policy5Q.profileShots, req.Seed)
	if err == nil {
		err = checkTotal(counts, req.Shots)
	}
	if err != nil {
		return fmt.Errorf("cold AIM: %w", err)
	}
	d := time.Since(t0)
	vr.policy += d
	vr.coldMS = ms(d)
	vr.profileMS = ms(prof)
	return nil
}

// sameServed compares a served response's outcome list and PST with the
// library's counts.
func sameServed(resp *api.MitigateResponse, counts *dist.Counts) error {
	want := map[string]int{}
	for _, o := range counts.Outcomes() {
		want[o.String()] = counts.Get(o)
	}
	if len(want) != len(resp.Outcomes) {
		return fmt.Errorf("%d served outcomes, library has %d", len(resp.Outcomes), len(want))
	}
	for _, o := range resp.Outcomes {
		if want[o.Outcome] != o.Count {
			return fmt.Errorf("outcome %s: served %d, library %d", o.Outcome, o.Count, want[o.Outcome])
		}
	}
	bench, err := experiments.BenchmarkByName(resp.Benchmark)
	if err != nil {
		return err
	}
	if pst := metrics.PSTEquiv(counts.Dist(), bench.Correct...); pst != resp.Metrics.PST {
		return fmt.Errorf("PST: served %v, library %v", resp.Metrics.PST, pst)
	}
	return nil
}

// setLayers sets the backend, transpile and core metrics the library
// re-runs measured.
func (vr *verifyResult) setLayers(rep *report, reqP50MS, dampNSPerAmp float64) {
	const src = "library re-runs of served requests"
	w := vr.work
	rep.set("backend.runs", float64(w.runs), src)
	rep.set("backend.shots", float64(w.shots), src)
	rep.set("backend.trajectories", float64(w.trajectories), "%s, computed from the plan", src)
	rep.set("backend.amp_updates", float64(w.ampUpdates), "%s, computed from the plan", src)
	rep.set("backend.busy_s", w.busy.Seconds(), src)
	rep.set("backend.ns_per_trajectory", float64(w.busy.Nanoseconds())/float64(max(w.trajectories, 1)), src)
	rep.set("backend.share", w.busy.Seconds()/vr.policy.Seconds(), "%s: backend busy / policy busy", src)
	rep.set("backend.damping_share", dampNSPerAmp*float64(w.dampingAmps)/float64(w.busy.Nanoseconds()), "computed: damping ns/amp (w5) x %d damping amplitude-calls / backend busy", w.dampingAmps)
	rep.set("core.parallel_eff", w.busy.Seconds()/(vr.policy.Seconds()*float64(benchWorkers())), src)
	pm := median(vr.placeMS)
	rep.set("transpile.place_ms", pm, "%s: core.NewJob, median of %d", src, len(vr.placeMS))
	rep.set("transpile.place_share", pm/reqP50MS, "of req_p50_ms")
	rep.set("core.baseline_ms", median(vr.kindMS[kindBaseline]), src)
	rep.set("core.sim_ms", median(vr.kindMS[kindSIM]), src)
	rep.set("core.aim_warm_ms", median(vr.kindMS[kindAIMWarm]), src)
	rep.set("core.aim_cold_ms", vr.coldMS, "one cold call: profile + AIM")
	rep.set("core.profile_ms", vr.profileMS, "brute-force Profiler call of the cold call")
}
