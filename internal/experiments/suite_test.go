package experiments

import (
	"reflect"
	"sync"
	"testing"

	"biasmit/internal/kernels"
	"biasmit/internal/maxcut"
)

// freshQAOA builds a Table-3 QAOA benchmark without the memo.
func freshQAOA(t *testing.T, name string) kernels.Benchmark {
	t.Helper()
	pg, err := maxcut.Table3Graph(name)
	if err != nil {
		t.Fatal(err)
	}
	return kernels.QAOA(name, pg, qaoaBenchmarks[name].p)
}

// assertSameBenchmark fails unless got and want carry the same name,
// ops and correct outputs.
func assertSameBenchmark(t *testing.T, got, want kernels.Benchmark) {
	t.Helper()
	if got.Name != want.Name || got.Circuit.Name != want.Circuit.Name || got.Circuit.NumQubits != want.Circuit.NumQubits {
		t.Fatalf("%s: header %q/%q/%d, want %q/%q/%d", want.Name, got.Name, got.Circuit.Name,
			got.Circuit.NumQubits, want.Name, want.Circuit.Name, want.Circuit.NumQubits)
	}
	if !reflect.DeepEqual(got.Circuit.Ops, want.Circuit.Ops) {
		t.Fatalf("%s: ops differ from a fresh kernels.QAOA", want.Name)
	}
	if !reflect.DeepEqual(got.Correct, want.Correct) {
		t.Fatalf("%s: correct outputs %v, want %v", want.Name, got.Correct, want.Correct)
	}
}

// TestBenchmarkByNameQAOAMemo: the memoized QAOA benchmarks equal a
// fresh build, and a caller mutating its copy does not change what the
// next caller gets.
func TestBenchmarkByNameQAOAMemo(t *testing.T) {
	for name := range qaoaBenchmarks {
		want := freshQAOA(t, name)
		got, err := BenchmarkByName(name)
		if err != nil {
			t.Fatal(err)
		}
		assertSameBenchmark(t, got, want)

		got.Circuit.Ops[0].Qubits[0] = 99
		got.Circuit.Ops[0].Matrix[0][0] = 7
		got.Circuit.Ops = got.Circuit.Ops[:1]
		got.Circuit.Name = "mutated"
		got.Correct[0] = got.Correct[0].Invert()
		again, err := BenchmarkByName(name)
		if err != nil {
			t.Fatal(err)
		}
		assertSameBenchmark(t, again, want)
	}
	if _, err := BenchmarkByName("qaoa-99"); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

// TestBenchmarkByNameConcurrentFirstUse races first calls on fresh
// memos (run under -race): every caller gets the fresh build.
func TestBenchmarkByNameConcurrentFirstUse(t *testing.T) {
	saved := qaoaBenchmarks
	defer func() { qaoaBenchmarks = saved }()
	qaoaBenchmarks = make(map[string]*qaoaMemo, len(saved))
	for name, m := range saved {
		qaoaBenchmarks[name] = &qaoaMemo{p: m.p}
	}
	names := []string{"qaoa-4A", "qaoa-6"}
	want := make(map[string]kernels.Benchmark)
	for _, name := range names {
		want[name] = freshQAOA(t, name)
	}
	const callers = 8
	got := make([]kernels.Benchmark, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = BenchmarkByName(names[i%len(names)])
		}(i)
	}
	wg.Wait()
	for i, b := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		assertSameBenchmark(t, b, want[names[i%len(names)]])
	}
}
