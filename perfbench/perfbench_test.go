package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"

	"biasmit/internal/api"
	"biasmit/internal/backend"
	"biasmit/internal/bitstring"
	"biasmit/internal/core"
	"biasmit/internal/dist"
	"biasmit/internal/experiments"
)

// TestMetricsMatchBenchmarkJSON holds the metric and workload lists the
// command prints to the ones BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got, want []metricDef) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the command %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, command %+v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEndMetrics)
	same("per_layer", doc.PerLayer, perLayerMetrics)
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json workloads %v, command has %d", names, len(workloads))
	}
}

// countWork runs baseline and SIM4 for bv-4A on machine through a fresh
// meter and returns its counters.
func countWork(t *testing.T, machine string, shots int) work {
	t.Helper()
	var m meter
	mach, err := newMachine(machine, m.wrap(backend.RunContext))
	if err != nil {
		t.Fatal(err)
	}
	b, err := experiments.BenchmarkByName("bv-4A")
	if err != nil {
		t.Fatal(err)
	}
	job, err := core.NewJob(b.Circuit, mach)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := job.BaselineContext(ctx, shots, 7); err != nil {
		t.Fatal(err)
	}
	if _, err := core.SIM4Context(ctx, job, shots, 7); err != nil {
		t.Fatal(err)
	}
	w := m.snapshot()
	w.busy = 0
	return w
}

// TestWorkCountsRepeatAndScale: the deterministic counters repeat
// exactly, and a doubled shot budget doubles shots, trajectories and
// amplitude updates while the run count stays put — on a machine with
// one shot per trajectory and on one that batches 32.
func TestWorkCountsRepeatAndScale(t *testing.T) {
	for _, machine := range []string{"ibmqx4", "ibmq-melbourne"} {
		a, again := countWork(t, machine, 256), countWork(t, machine, 256)
		if a != again {
			t.Errorf("%s: counts do not repeat: %+v vs %+v", machine, a, again)
		}
		d := countWork(t, machine, 512)
		want := work{runs: a.runs, shots: 2 * a.shots, trajectories: 2 * a.trajectories,
			ampUpdates: 2 * a.ampUpdates, dampingAmps: 2 * a.dampingAmps}
		if d != want {
			t.Errorf("%s: doubled budget gave %+v, want %+v", machine, d, want)
		}
		if a.runs != 5 || a.shots != 512 {
			t.Errorf("%s: %d runs, %d shots; want 5 runs (baseline + 4 SIM modes), 512 shots", machine, a.runs, a.shots)
		}
	}
}

// TestPolicyPassCountsRepeat: a workload's pass-0 work counts are a
// function of its seed.
func TestPolicyPassCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two policy-5q passes")
	}
	pass := func(seed int64) work {
		var m meter
		ctx := context.Background()
		env, err := policy5Q.setup(ctx, seed, m.wrap(backend.RunContext))
		if err != nil {
			t.Fatal(err)
		}
		before := m.snapshot()
		for _, c := range policy5Q.calls(env, seed, 0) {
			if r := policy5Q.execute(ctx, env, c); r.err != nil {
				t.Fatal(r.err)
			}
		}
		w := m.snapshot().minus(before)
		w.busy = 0
		return w
	}
	if a, b := pass(3), pass(3); a != b {
		t.Fatalf("pass-0 counts differ for one seed: %+v vs %+v", a, b)
	}
}

// TestTamperedPolicyResultFailsChecks: a response off its shot budget
// fails the total check, and a count moved between outcomes fails the
// oracle comparison.
func TestTamperedPolicyResultFailsChecks(t *testing.T) {
	mach, err := newMachine("ibmqx4", nil)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := experiments.BenchmarkByName("bv-4A")
	job, err := core.NewJob(b.Circuit, mach)
	if err != nil {
		t.Fatal(err)
	}
	counts, err := job.BaselineContext(context.Background(), 256, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkTotal(counts, 256); err != nil {
		t.Fatalf("untampered result: %v", err)
	}
	if err := sameCounts(counts, counts.Clone()); err != nil {
		t.Fatalf("untampered copy: %v", err)
	}
	extra := counts.Clone()
	extra.Add(bitstring.Zeros(counts.Width()), 1)
	if checkTotal(extra, 256) == nil {
		t.Error("a 257-count response passed the 256-shot total check")
	}
	// Move one count from the most frequent outcome to another one:
	// the total still checks, the histogram no longer matches.
	outs := counts.Outcomes()
	sort.Slice(outs, func(i, j int) bool { return counts.Get(outs[i]) > counts.Get(outs[j]) })
	moved := dist.NewCounts(counts.Width())
	for i, o := range outs {
		n := counts.Get(o)
		if i == 0 {
			n--
		}
		moved.Add(o, n)
	}
	moved.Add(outs[0].Invert(), 1)
	if err := checkTotal(moved, 256); err != nil {
		t.Fatalf("moved count changed the total: %v", err)
	}
	if sameCounts(counts, moved) == nil {
		t.Error("a response with a count moved between outcomes matched the oracle")
	}
}

// TestTamperedServedResultFailsChecks: against a live in-process server,
// a served response passes checkMitigate and matches the library; a
// tampered count fails checkMitigate, fails the library comparison, and
// a tampered cache hit fails the replay check.
func TestTamperedServedResultFailsChecks(t *testing.T) {
	env, err := startServer()
	if err != nil {
		t.Fatal(err)
	}
	defer env.close()
	ctx := context.Background()
	req := &api.MitigateRequest{Machine: "ibmqx4", Benchmark: "bv-4A", Policy: "sim", Shots: 512, Seed: 9, Top: allOutcomes}
	post := func() []byte {
		st, body, err := env.post(ctx, "/v1/mitigate", req, "")
		if err != nil || st != http.StatusOK {
			t.Fatalf("mitigate: status %d, %v: %s", st, err, body)
		}
		return body
	}
	missBody, hitBody := post(), post()
	miss, err := checkMitigate(missBody, req)
	if err != nil {
		t.Fatalf("served response: %v", err)
	}
	hit, err := checkMitigate(hitBody, req)
	if err != nil || !hit.CacheHit {
		t.Fatalf("second response: cache_hit=%v, %v", hit != nil && hit.CacheHit, err)
	}

	mach, err := newMachine("ibmqx4", nil)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := experiments.BenchmarkByName("bv-4A")
	job, err := core.NewJob(b.Circuit, mach)
	if err != nil {
		t.Fatal(err)
	}
	lib, err := core.SIM4Context(ctx, job, req.Shots, req.Seed)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameServed(miss, lib.Merged); err != nil {
		t.Fatalf("served result differs from the library: %v", err)
	}

	// Tamper with the first outcome's count in the hit's bytes.
	first := miss.Outcomes[0]
	from := []byte(`"count": ` + strconv.Itoa(first.Count))
	to := []byte(`"count": ` + strconv.Itoa(first.Count-1))
	if !bytes.Contains(hitBody, from) {
		t.Fatalf("response has no %s", from)
	}
	tampered := bytes.Replace(hitBody, from, to, 1)
	if _, err := checkMitigate(tampered, req); err == nil || !strings.Contains(err.Error(), "total") {
		t.Errorf("tampered response passed checkMitigate (err %v)", err)
	}
	var tr api.MitigateResponse
	if err := json.Unmarshal(tampered, &tr); err != nil {
		t.Fatal(err)
	}
	if sameServed(&tr, lib.Merged) == nil {
		t.Error("tampered response matched the library")
	}

	sum := func(body []byte) [sha256.Size]byte {
		s, err := cacheBody(body)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	sreq := &serveReq{mit: req, key: "k"}
	results := []serveResult{
		{req: sreq, cacheSum: sum(missBody), resp: miss},
		{req: sreq, cacheSum: sum(hitBody), resp: hit},
	}
	if n, bad := checkCacheReplays(results); n != 1 || len(bad) != 0 {
		t.Fatalf("honest replay: %d checked, problems %v", n, bad)
	}
	results[1].cacheSum, results[1].resp = sum(tampered), &tr
	if _, bad := checkCacheReplays(results); len(bad) != 1 || results[1].err == nil {
		t.Errorf("tampered cache hit passed the replay check: %v", bad)
	}
}

// TestServeMixRun drives a short serve-mix run end to end through the
// command: every request checks out and every end-to-end metric prints.
func TestServeMixRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a two-second schedule")
	}
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", "serve-mix", "--seed", "4", "--seconds", "2"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("result %+v", res)
	}
	for _, d := range endToEndMetrics {
		if _, ok := res.Metrics[d.Name]; !ok {
			t.Errorf("metric %s missing", d.Name)
		}
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, b := tailAt(xs, 90); v != 90 || b != 10 {
		t.Errorf("p90 of 1..100 = %v with %d beyond, want 90 with 10", v, b)
	}
	if v, b := tailAt(xs, 99.9); v != 100 || b != 0 {
		t.Errorf("p99.9 of 1..100 = %v with %d beyond, want the maximum with none", v, b)
	}
}

// TestServeMixShape pins the request list's composition on every pass
// and that passes do not share requests.
func TestServeMixShape(t *testing.T) {
	c := serveMixConfig
	for _, seed := range []int64{1, 2, 3} {
		a, b := c.passList(seed, 0), c.passList(seed, 1)
		if len(a) != c.passRequests || len(b) != c.passRequests {
			t.Fatalf("seed %d: %d and %d requests, want %d", seed, len(a), len(b), c.passRequests)
		}
		keys := map[string]bool{}
		for _, r := range b {
			keys[r.key] = true
		}
		kinds := map[string]int{}
		fresh, repeats := map[string]int{}, 0
		seen := map[string]bool{}
		for i, r := range a {
			kinds[r.kind]++
			if r.mit == nil {
				continue
			}
			if seen[r.key] {
				repeats++
				continue
			}
			seen[r.key] = true
			if keys[r.key] {
				t.Errorf("seed %d position %d: pass 1 repeats pass 0's request", seed, i)
			}
			if r.kind == reqSync {
				fresh[r.mit.Machine+"/"+r.mit.Benchmark+"/"+r.mit.Policy]++
			}
		}
		jobs := len(fiveQMachines) * len(fiveQBenches)
		want := map[string]int{reqChar: 1, reqHeavy: c.heavies, reqJob: jobs, reqSync: c.passRequests - 1 - c.heavies - jobs}
		for k, n := range want {
			if kinds[k] != n {
				t.Errorf("seed %d: %d %s requests, want %d", seed, kinds[k], k, n)
			}
		}
		if a[c.passRequests/2].kind != reqChar {
			t.Errorf("seed %d: the re-characterization is not at the middle position", seed)
		}
		if len(fresh) != jobs*len(policies) {
			t.Errorf("seed %d: %d fresh (machine, benchmark, policy) shapes, want %d", seed, len(fresh), jobs*len(policies))
		}
		for k, n := range fresh {
			if n != c.freshRounds {
				t.Errorf("seed %d: %d fresh %s requests, want %d", seed, n, k, c.freshRounds)
			}
		}
		if wantRep := want[reqSync] - jobs*len(policies)*c.freshRounds; repeats != wantRep {
			t.Errorf("seed %d: %d repeats, want %d", seed, repeats, wantRep)
		}
	}
}

func TestSelfTime(t *testing.T) {
	if got := unionLength([][2]float64{{0, 2}, {1, 3}, {5, 6}}); got != 4 {
		t.Errorf("union length %v, want 4", got)
	}
}
