package backend

import (
	"math/rand"
	"testing"

	"biasmit/internal/circuit"
	"biasmit/internal/device"
	"biasmit/internal/quantum"
)

// TestCompactRegisterFullWidth: a circuit touching every qubit gets no
// plan, and deciding that allocates nothing, so full-width runs keep the
// allocation profile of the uncompacted loop.
func TestCompactRegisterFullWidth(t *testing.T) {
	c := circuit.New(5, "ghz5").H(0).CX(1, 0).CX(2, 1).CX(3, 2).CX(3, 4)
	if r := compactRegister(c); r != nil {
		t.Fatalf("full-width circuit compacted to %d qubits", r.k)
	}
	if n := testing.AllocsPerRun(100, func() { compactRegister(c) }); n != 0 {
		t.Fatalf("compactRegister on a full-width circuit allocates %v times", n)
	}
}

// TestCompactRegisterPlan pins one plan by hand: barriers are skipped,
// operands are renumbered, and the index table deposits compact bits
// into the active qubits' positions.
func TestCompactRegisterPlan(t *testing.T) {
	c := circuit.New(6, "sparse").H(4).AddBarrier().CX(4, 1).X(1)
	r := compactRegister(c)
	if r == nil || r.k != 2 || r.n != 6 {
		t.Fatalf("plan %+v, want 2 active of 6", r)
	}
	wantCompact := []int{-1, 0, -1, -1, 1, -1}
	for q, j := range wantCompact {
		if r.compact[q] != j {
			t.Fatalf("compact[%d] = %d, want %d", q, r.compact[q], j)
		}
	}
	wantOperands := []int{1, 1, 0, 0}
	if len(r.operands) != len(wantOperands) {
		t.Fatalf("operands %v, want %v", r.operands, wantOperands)
	}
	for i, j := range wantOperands {
		if r.operands[i] != j {
			t.Fatalf("operands %v, want %v", r.operands, wantOperands)
		}
	}
	wantFull := []uint64{0b000000, 0b000010, 0b010000, 0b010010}
	for i, f := range wantFull {
		if r.full[i] != f {
			t.Fatalf("full[%d] = %06b, want %06b", i, r.full[i], f)
		}
	}
	if got := r.fullIndex(3, false); got != 63 {
		t.Fatalf("miss maps to %d, want 63", got)
	}
}

// TestCompactRegisterEmptyCircuit: a circuit with no gates still gets a
// one-qubit state (a zero-width state does not exist).
func TestCompactRegisterEmptyCircuit(t *testing.T) {
	r := compactRegister(circuit.New(4, "empty"))
	if r == nil || r.k != 1 || r.full[1] != 1 {
		t.Fatalf("empty 4-qubit circuit: plan %+v, want qubit 0 only", r)
	}
}

// maxUniform is a rand.Source whose Float64 is the largest value below 1
// (rand.Float64 divides Int63 by 2^63; 2^63−1024 is exact in a float64).
type maxUniform struct{}

func (maxUniform) Int63() int64 { return 1<<63 - 1024 }
func (maxUniform) Seed(int64)   {}

// TestCompactSampleRoundOff: when round-off leaves a state's total mass
// below the draw, the full-width sampler returns the last basis state
// 2^N−1. The compacted trajectory must map its miss to that same full
// index, not to the deposit of the compact all-ones index.
func TestCompactSampleRoundOff(t *testing.T) {
	dev := device.IBMQX4()
	opt := Options{NoGateNoise: true, NoDecay: true}
	u := rand.New(maxUniform{}).Float64()
	for i := 1; i <= 1000; i++ {
		theta := 0.01 * float64(i)
		c := circuit.New(5, "ry").RY(theta, 1).RY(2*theta, 3).CX(1, 3)
		reg := compactRegister(c)
		full := quantum.NewState(5)
		runTrajectoryInto(full, c, dev, opt, nil, nil, nil)
		compact := quantum.NewState(reg.k)
		runTrajectoryInto(compact, c, dev, opt, nil, reg, nil)
		if full.Norm() != compact.Norm() {
			t.Fatalf("theta %v: full-width mass %v, compact mass %v", theta, full.Norm(), compact.Norm())
		}
		if full.Norm() > u {
			continue
		}
		want := full.Sample(rand.New(maxUniform{}))
		if want.Uint64() != 31 {
			t.Fatalf("theta %v: full-width miss returned %s, want 11111", theta, want)
		}
		if reg.full[len(reg.full)-1] == 31 {
			t.Fatal("compact all-ones deposits to 11111; the test cannot tell the two apart")
		}
		if got := reg.fullIndex(compact.SampleIndex(rand.New(maxUniform{}))); got != 31 {
			t.Fatalf("theta %v: compact State miss maps to %05b, want 11111", theta, got)
		}
		sp := quantum.NewSampler(compact)
		if got := reg.fullIndex(sp.SampleIndex(rand.New(maxUniform{}))); got != 31 {
			t.Fatalf("theta %v: compact Sampler miss maps to %05b, want 11111", theta, got)
		}
		return
	}
	t.Fatal("no rotation angle left the mass below the largest draw")
}
