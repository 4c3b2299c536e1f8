// Command perfbench is the repository's layered benchmark. One seeded
// command runs one of three workloads, checks every output it measures,
// and prints each end-to-end or per-layer metric by name with its unit.
//
// It measures every layer from outside, through public functions only:
// the quantum and noise kernels are called directly, the backend is
// timed and counted by a backend.Runner installed as core.Machine.Run,
// placement is timed around core.NewJob, the policies around their core
// calls, and the serving stack over loopback HTTP against an in-process
// server.New, whose /metrics, /debug/traces and profile-store counters
// it reads.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload policy-5q --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --findings
//
// --trace 0 prints the end-to-end metrics; --trace 1 makes a separate,
// traced run that prints the per-layer metrics and writes its spans to
// --trace-out. The human-readable report goes to standard error; the
// last line of standard output is the JSON result. A failed output
// check still prints the result (with "correct": false) and exits 1.
// See perfbench/README.md for the workloads, metrics and findings.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// benchWorkers is the job-level parallelism of every core.Machine the
// benchmark builds and of the server it starts. It is fixed so that runs
// on machines with different core counts do the same work, and it never
// exceeds the CPUs the process may use.
func benchWorkers() int {
	if n := runtime.GOMAXPROCS(0); n < 2 {
		return n
	}
	return 2
}

// metricDef names one reported metric and its unit. The two lists below
// must match BENCHMARK.json (TestMetricsMatchBenchmarkJSON holds them
// together).
type metricDef struct{ Name, Unit string }

var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"suite_s", "s"},
	{"shots_per_s", "1/s"},
	{"cpu_us_per_shot", "us"},
	{"req_p50_ms", "ms"},
	{"req_tail_ms", "ms"},
	{"slo_ok_ratio", "ratio"},
	{"pst_mean", "ratio"},
	{"aim_pst_gain", "ratio"},
	{"peak_heap_mb", "MB"},
}

var perLayerMetrics = []metricDef{
	{"quantum.apply1_ns_per_amp.w5", "ns"},
	{"quantum.apply1_ns_per_amp.w14", "ns"},
	{"quantum.cnot_ns_per_amp.w5", "ns"},
	{"quantum.cnot_ns_per_amp.w14", "ns"},
	{"quantum.damping_ns_per_amp.w5", "ns"},
	{"quantum.damping_ns_per_amp.w14", "ns"},
	{"quantum.sampler_build_ns_per_amp.w5", "ns"},
	{"quantum.sampler_build_ns_per_amp.w14", "ns"},
	{"quantum.sample_ns.w5", "ns"},
	{"quantum.sample_ns.w14", "ns"},
	{"noise.readout_apply_ns", "ns"},
	{"backend.runs", "count"},
	{"backend.shots", "count"},
	{"backend.trajectories", "count"},
	{"backend.amp_updates", "count"},
	{"backend.busy_s", "s"},
	{"backend.ns_per_trajectory", "ns"},
	{"backend.share", "ratio"},
	{"backend.damping_share", "ratio"},
	{"transpile.place_ms", "ms"},
	{"transpile.place_share", "ratio"},
	{"core.baseline_ms", "ms"},
	{"core.sim_ms", "ms"},
	{"core.aim_warm_ms", "ms"},
	{"core.aim_cold_ms", "ms"},
	{"core.profile_ms", "ms"},
	{"core.parallel_eff", "ratio"},
	{"rescache.hit_ratio", "ratio"},
	{"rescache.coalesced", "count"},
	{"rescache.invalidated", "count"},
	{"profilestore.hits", "count"},
	{"profilestore.misses", "count"},
	{"profilestore.joined", "count"},
	{"profilestore.characterizations", "count"},
	{"server.queue_wait_ms.p50", "ms"},
	{"server.queue_wait_ms.p99", "ms"},
	{"server.sample_ms.p50", "ms"},
	{"server.sample_ms.p99", "ms"},
	{"server.decode_ms.p50", "ms"},
	{"server.decode_ms.p99", "ms"},
	{"server.serialize_ms.p50", "ms"},
	{"server.serialize_ms.p99", "ms"},
	{"server.overhead_ms", "ms"},
	{"jobs.batch_wait_ms.p50", "ms"},
	{"jobs.e2e_ms.p50", "ms"},
	{"loadgen.lag_ms.p99", "ms"},
	{"trace.overhead_ratio", "ratio"},
	{"check.fail_ratio", "ratio"},
}

// report collects a run's metric values with an optional note each (how
// the value was derived, its sample count, computed bytes moved). Notes
// go to the human-readable report only.
type report struct {
	values map[string]float64
	notes  map[string]string
}

func newReport() *report {
	return &report{values: map[string]float64{}, notes: map[string]string{}}
}

func (r *report) set(name string, v float64, note string, args ...any) {
	r.values[name] = v
	if note != "" {
		r.notes[name] = fmt.Sprintf(note, args...)
	}
}

// outcome is the run's verdict on the outputs it checked: attempted
// counts requests (or policy calls), failed those that errored, were
// refused, or did not pass a check.
type outcome struct {
	attempted int
	failed    int
	problems  []string
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runParams is what the command line hands a workload.
type runParams struct {
	seed     int64
	seconds  float64
	traced   bool
	traceOut string
	log      io.Writer
}

type workloadFunc func(p runParams, rep *report, out *outcome) error

var workloads = map[string]workloadFunc{
	"policy-melbourne": func(p runParams, rep *report, out *outcome) error {
		return runPolicy(policyMelbourne, p, rep, out)
	},
	"policy-5q": func(p runParams, rep *report, out *outcome) error {
		return runPolicy(policy5Q, p, rep, out)
	},
	"serve-mix": runServeMix,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: policy-melbourne, policy-5q or serve-mix")
	seed := fs.Int64("seed", 1, "workload seed: the same seed generates the same inputs")
	seconds := fs.Float64("seconds", 10, "how long the run measures")
	trace := fs.Int("trace", 0, "0 = untraced run, end-to-end metrics; 1 = traced run, per-layer metrics")
	traceOut := fs.String("trace-out", "", "file the traced run writes its spans to (default .bench_build/spans-<workload>-<seed>.json)")
	findings := fs.Bool("findings", false, "measure the fixed single-request figures README.md reports, then exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *findings {
		if err := runFindings(stderr); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		return 0
	}
	fn, ok := workloads[*workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(stderr, "perfbench: unknown --workload %q (want one of %s)\n", *workload, strings.Join(names, ", "))
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1\n")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: --seconds must be positive\n")
		return 2
	}
	p := runParams{seed: *seed, seconds: *seconds, traced: *trace == 1, traceOut: *traceOut, log: stderr}
	if p.traced && p.traceOut == "" {
		p.traceOut = filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.json", *workload, *seed))
	}

	heap := startHeapSampler(10 * time.Millisecond)
	rep := newReport()
	var out outcome
	err := fn(p, rep, &out)
	peak, samples := heap.stop()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	rep.set("peak_heap_mb", peak/(1<<20), "p99 of %d samples of heap object bytes (runtime/metrics), one every 10ms over the whole run", samples)
	if out.attempted > 0 {
		rep.set("check.fail_ratio", float64(out.failed)/float64(out.attempted), "%d of %d failed, refused or incorrect", out.failed, out.attempted)
	}

	defs := endToEndMetrics
	if p.traced {
		defs = perLayerMetrics
	}
	res := result{
		Correct:   out.failed == 0 && out.attempted > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricValue{},
	}
	fmt.Fprintf(stderr, "perfbench %s seed=%d seconds=%g trace=%d workers=%d\n", *workload, *seed, *seconds, *trace, benchWorkers())
	for _, d := range defs {
		v, ok := rep.values[d.Name]
		if !ok {
			fmt.Fprintf(stderr, "perfbench: %s did not measure %s\n", *workload, d.Name)
			return 1
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		line := fmt.Sprintf("  %-40s %16.6g %s", d.Name, v, d.Unit)
		if n := rep.notes[d.Name]; n != "" {
			line += "  (" + n + ")"
		}
		fmt.Fprintln(stderr, line)
	}
	for _, pr := range out.problems {
		fmt.Fprintf(stderr, "  CHECK FAILED: %s\n", pr)
	}
	raw, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(raw))
	if !res.Correct {
		return 1
	}
	return 0
}
