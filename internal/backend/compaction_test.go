package backend_test

import (
	"testing"

	"biasmit/internal/backend"
	"biasmit/internal/bitstring"
	"biasmit/internal/circuit"
	"biasmit/internal/device"
	"biasmit/internal/kernels"
	"biasmit/internal/transpile"
)

// TestCompactPlanTable3Melbourne checks the plans of the widest Table-3
// jobs on melbourne: at most 8 of the 14 qubits are active, and the
// compact→full index table is strictly increasing (the monotone bit
// deposit the exactness argument rests on).
func TestCompactPlanTable3Melbourne(t *testing.T) {
	dev := device.IBMQMelbourne()
	want := map[string]bool{"bv-4A": true, "qaoa-7": true, "bv-7": true}
	for _, b := range kernels.Table3Suite() {
		if !want[b.Name] {
			continue
		}
		delete(want, b.Name)
		plan, err := transpile.Place(b.Circuit, dev)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []bitstring.Bits{bitstring.Zeros(b.Width()), bitstring.Ones(b.Width())} {
			active, full := backend.CompactPlan(plan.WithInversion(s))
			if active == nil || len(active) > 8 {
				t.Fatalf("%s/%s: active qubits %v, want 1..8 of 14", b.Name, s, active)
			}
			for i := 1; i < len(active); i++ {
				if active[i] <= active[i-1] {
					t.Fatalf("%s/%s: active qubits %v not ascending", b.Name, s, active)
				}
			}
			if len(full) != 1<<len(active) {
				t.Fatalf("%s/%s: index table has %d entries for %d active qubits", b.Name, s, len(full), len(active))
			}
			for i := 1; i < len(full); i++ {
				if full[i] <= full[i-1] {
					t.Fatalf("%s/%s: index table not strictly increasing at %d: %d, %d",
						b.Name, s, i, full[i-1], full[i])
				}
			}
		}
	}
	if len(want) != 0 {
		t.Fatalf("benchmarks missing from Table3Suite: %v", want)
	}
}

// TestCompactPlanInversionAddsIdleQubit: a logical qubit no gate touches
// is idle in the standard mode, and an inversion X on it makes it
// active — its readout must then see the flipped state.
func TestCompactPlanInversionAddsIdleQubit(t *testing.T) {
	c := circuit.New(3, "idle-q2").H(0).CX(0, 1)
	plan, err := transpile.Place(c, device.IBMQMelbourne())
	if err != nil {
		t.Fatal(err)
	}
	q2 := plan.FinalLayout[2]
	has := func(active []int) bool {
		for _, q := range active {
			if q == q2 {
				return true
			}
		}
		return false
	}
	standard, _ := backend.CompactPlan(plan.WithInversion(bitstring.MustParse("000")))
	if has(standard) {
		t.Fatalf("idle logical qubit 2 (device %d) active in standard mode: %v", q2, standard)
	}
	inverted, _ := backend.CompactPlan(plan.WithInversion(bitstring.MustParse("100")))
	if !has(inverted) || len(inverted) != len(standard)+1 {
		t.Fatalf("inversion on logical qubit 2 (device %d): active %v, standard %v", q2, inverted, standard)
	}
}
