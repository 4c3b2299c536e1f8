package quantum

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"

	"biasmit/internal/bitstring"
)

// MaxQubits bounds register size; a dense state vector for n qubits
// allocates 2^n complex128 values (16 MiB at n=20).
const MaxQubits = 24

// State is a dense n-qubit state vector. Construct with NewState; the
// zero value is not usable.
type State struct {
	n    int
	amps []complex128
	// released marks a state currently owned by the pool; ReleaseState
	// sets it so overlapping cleanup paths cannot double-Put.
	released bool
}

// NewState returns the n-qubit computational ground state |00…0⟩.
func NewState(n int) *State {
	if n < 1 || n > MaxQubits {
		panic(fmt.Sprintf("quantum: qubit count %d out of range [1,%d]", n, MaxQubits))
	}
	s := &State{n: n, amps: make([]complex128, 1<<uint(n))}
	s.amps[0] = 1
	return s
}

// NewBasisState returns |b⟩ for the given classical string.
func NewBasisState(b bitstring.Bits) *State {
	s := NewState(b.Width())
	s.amps[0] = 0
	s.amps[b.Uint64()] = 1
	return s
}

// NumQubits returns the register size.
func (s *State) NumQubits() int { return s.n }

// Clone returns a deep copy of s.
func (s *State) Clone() *State {
	c := &State{n: s.n, amps: make([]complex128, len(s.amps))}
	copy(c.amps, s.amps)
	return c
}

// Amplitude returns ⟨b|s⟩.
func (s *State) Amplitude(b bitstring.Bits) complex128 {
	if b.Width() != s.n {
		panic(fmt.Sprintf("quantum: basis width %d does not match register %d", b.Width(), s.n))
	}
	return s.amps[b.Uint64()]
}

// Norm returns ⟨s|s⟩, which is 1 for a normalized state.
func (s *State) Norm() float64 {
	var t float64
	for _, a := range s.amps {
		t += real(a)*real(a) + imag(a)*imag(a)
	}
	return t
}

// Normalize rescales s to unit norm. It panics on a zero vector, which
// can only arise from a programming error (projecting onto an impossible
// outcome).
func (s *State) Normalize() { s.rescale(s.Norm()) }

// rescale divides every amplitude by √norm, where norm is the state's
// current Norm. Scaling both parts by the real factor instead of
// multiplying by complex(1/√norm, 0) can differ only in the sign of a
// zero part, which no probability, sum or later gate can observe.
func (s *State) rescale(norm float64) {
	n := math.Sqrt(norm)
	if n == 0 {
		panic("quantum: normalizing zero state")
	}
	r := 1 / n
	for i, a := range s.amps {
		s.amps[i] = complex(real(a)*r, imag(a)*r)
	}
}

func (s *State) checkQubit(q int) {
	if q < 0 || q >= s.n {
		panic(fmt.Sprintf("quantum: qubit %d out of range [0,%d)", q, s.n))
	}
}

// Apply1 applies the single-qubit gate m to qubit q in place.
func (s *State) Apply1(m Matrix2, q int) {
	s.checkQubit(q)
	m00, m01, m10, m11 := m[0][0], m[0][1], m[1][0], m[1][1]
	b := 1 << uint(q)
	for base := 0; base < len(s.amps); base += 2 * b {
		lo, hi := s.amps[base:base+b], s.amps[base+b:base+2*b]
		for i, a0 := range lo {
			a1 := hi[i]
			lo[i] = m00*a0 + m01*a1
			hi[i] = m10*a0 + m11*a1
		}
	}
}

// Apply2 applies the two-qubit gate m to qubits (q0, q1) in place, where
// m is expressed in the basis |q1 q0⟩ ∈ {00,01,10,11}.
func (s *State) Apply2(m Matrix4, q0, q1 int) {
	s.checkQubit(q0)
	s.checkQubit(q1)
	if q0 == q1 {
		panic("quantum: Apply2 with identical qubits")
	}
	b0 := uint64(1) << uint(q0)
	b1 := uint64(1) << uint(q1)
	size := uint64(len(s.amps))
	for i := uint64(0); i < size; i++ {
		if i&b0 != 0 || i&b1 != 0 {
			continue // visit each 4-amplitude block once, from its 00 corner
		}
		i00 := i
		i01 := i | b0
		i10 := i | b1
		i11 := i | b0 | b1
		a := [4]complex128{s.amps[i00], s.amps[i01], s.amps[i10], s.amps[i11]}
		var r [4]complex128
		for row := 0; row < 4; row++ {
			r[row] = m[row][0]*a[0] + m[row][1]*a[1] + m[row][2]*a[2] + m[row][3]*a[3]
		}
		s.amps[i00], s.amps[i01], s.amps[i10], s.amps[i11] = r[0], r[1], r[2], r[3]
	}
}

// ApplyCNOT applies a controlled-X with the given control and target.
func (s *State) ApplyCNOT(control, target int) {
	s.checkQubit(control)
	s.checkQubit(target)
	if control == target {
		panic("quantum: CNOT with identical qubits")
	}
	cb := uint64(1) << uint(control)
	tb := uint64(1) << uint(target)
	size := uint64(len(s.amps))
	for i := uint64(0); i < size; i++ {
		if i&cb != 0 && i&tb == 0 {
			j := i | tb
			s.amps[i], s.amps[j] = s.amps[j], s.amps[i]
		}
	}
}

// ApplyCZ applies a controlled-Z between qubits a and b.
func (s *State) ApplyCZ(a, b int) {
	s.checkQubit(a)
	s.checkQubit(b)
	if a == b {
		panic("quantum: CZ with identical qubits")
	}
	ab := uint64(1)<<uint(a) | uint64(1)<<uint(b)
	for i := range s.amps {
		if uint64(i)&ab == ab {
			s.amps[i] = -s.amps[i]
		}
	}
}

// ApplySWAP exchanges qubits a and b.
func (s *State) ApplySWAP(a, b int) {
	s.checkQubit(a)
	s.checkQubit(b)
	if a == b {
		panic("quantum: SWAP with identical qubits")
	}
	ba := uint64(1) << uint(a)
	bb := uint64(1) << uint(b)
	size := uint64(len(s.amps))
	for i := uint64(0); i < size; i++ {
		if i&ba != 0 && i&bb == 0 {
			j := i ^ ba ^ bb
			s.amps[i], s.amps[j] = s.amps[j], s.amps[i]
		}
	}
}

// ApplyControlled applies gate m to target when control is |1⟩.
func (s *State) ApplyControlled(m Matrix2, control, target int) {
	s.checkQubit(control)
	s.checkQubit(target)
	if control == target {
		panic("quantum: controlled gate with identical qubits")
	}
	cb := uint64(1) << uint(control)
	tb := uint64(1) << uint(target)
	size := uint64(len(s.amps))
	for i := uint64(0); i < size; i++ {
		if i&cb != 0 && i&tb == 0 {
			i0 := i
			i1 := i | tb
			a0, a1 := s.amps[i0], s.amps[i1]
			s.amps[i0] = m[0][0]*a0 + m[0][1]*a1
			s.amps[i1] = m[1][0]*a0 + m[1][1]*a1
		}
	}
}

// Prob1 returns the probability that measuring qubit q yields 1.
func (s *State) Prob1(q int) float64 {
	s.checkQubit(q)
	b := 1 << uint(q)
	var p float64
	for base := b; base < len(s.amps); base += 2 * b {
		for _, a := range s.amps[base : base+b] {
			p += real(a)*real(a) + imag(a)*imag(a)
		}
	}
	return p
}

// Probabilities returns the full measurement distribution over all 2^n
// basis states, indexed by the packed basis value.
func (s *State) Probabilities() []float64 {
	p := make([]float64, len(s.amps))
	for i, a := range s.amps {
		p[i] = real(a)*real(a) + imag(a)*imag(a)
	}
	return p
}

// Sample draws one measurement outcome without collapsing the state.
// This is the correct semantics for the NISQ trial loop: each trial
// re-prepares the state, so sampling repeatedly from the final state of
// one (noisy) trajectory is equivalent to measuring fresh copies.
func (s *State) Sample(rng *rand.Rand) bitstring.Bits {
	i, _ := s.SampleIndex(rng)
	return bitstring.New(i, s.n)
}

// SampleIndex is Sample returning the packed basis index, plus whether
// the draw fell inside the accumulated mass. When it did not
// (floating-point round-off left the total just below the draw), the
// index is the last basis state and ok is false, so a caller that
// simulates a compacted register can map the miss to the last state of
// the full register rather than to the compact all-ones index.
func (s *State) SampleIndex(rng *rand.Rand) (index uint64, ok bool) {
	u := rng.Float64()
	var acc float64
	for i, a := range s.amps {
		acc += real(a)*real(a) + imag(a)*imag(a)
		if u < acc {
			return uint64(i), true
		}
	}
	return uint64(len(s.amps) - 1), false
}

// MeasureAll performs a projective measurement of every qubit, collapsing
// s onto the sampled basis state, and returns the outcome.
func (s *State) MeasureAll(rng *rand.Rand) bitstring.Bits {
	out := s.Sample(rng)
	for i := range s.amps {
		s.amps[i] = 0
	}
	s.amps[out.Uint64()] = 1
	return out
}

// ApplyAmplitudeDamping applies one stochastic trajectory step of the
// amplitude-damping (T1 relaxation) channel with decay probability gamma
// on qubit q. With probability gamma·P(q=1) the qubit jumps to |0⟩
// (Kraus K1); otherwise the no-jump evolution K0 rescales the |1⟩
// amplitudes. Averaged over trajectories this reproduces the channel
// exactly; it is the physical mechanism behind the paper's 1→0
// measurement bias.
func (s *State) ApplyAmplitudeDamping(q int, gamma float64, rng *rand.Rand) {
	s.checkQubit(q)
	if gamma < 0 || gamma > 1 {
		panic(fmt.Sprintf("quantum: damping gamma %v out of [0,1]", gamma))
	}
	if gamma == 0 {
		return
	}
	p1 := s.Prob1(q)
	pJump := gamma * p1
	if rng.Float64() < pJump {
		s.ApplyDampingJump(q)
	} else {
		s.ApplyDampingNoJump(q, math.Sqrt(1-gamma))
	}
}

// ApplyDampingJump is the jump branch of ApplyAmplitudeDamping: every
// |x…1…⟩ amplitude moves to |x…0…⟩ (Kraus K1), then the state is
// renormalized.
func (s *State) ApplyDampingJump(q int) {
	s.checkQubit(q)
	b := 1 << uint(q)
	for base := 0; base < len(s.amps); base += 2 * b {
		hi := s.amps[base+b : base+2*b]
		copy(s.amps[base:base+b], hi)
		clear(hi)
	}
	s.Normalize()
}

// ApplyDampingNoJump is the no-jump branch of ApplyAmplitudeDamping:
// K0 = diag(1, f) with f = √(1−γ), then renormalization. The norm is
// accumulated during the scaling sweep, in the same index order as
// Norm, so it is the same float64 and the kernel makes two sweeps
// instead of three.
func (s *State) ApplyDampingNoJump(q int, f float64) {
	s.checkQubit(q)
	b := 1 << uint(q)
	var t float64
	for base := 0; base < len(s.amps); base += 2 * b {
		for _, a := range s.amps[base : base+b] {
			t += real(a)*real(a) + imag(a)*imag(a)
		}
		hi := s.amps[base+b : base+2*b]
		for i, a := range hi {
			a = complex(real(a)*f, imag(a)*f)
			hi[i] = a
			t += real(a)*real(a) + imag(a)*imag(a)
		}
	}
	s.rescale(t)
}

// ApplyPauli applies Pauli p to qubit q (a stochastic gate-error kick).
// X is a swap of each amplitude pair and Z a negation of the |1⟩ half;
// next to the Apply1 matrix product they can differ only in the sign of
// a zero part.
func (s *State) ApplyPauli(p Pauli, q int) {
	switch p {
	case PauliI:
		return
	case PauliX:
		s.checkQubit(q)
		b := 1 << uint(q)
		for base := 0; base < len(s.amps); base += 2 * b {
			lo, hi := s.amps[base:base+b], s.amps[base+b:base+2*b]
			for i, a := range hi {
				lo[i], hi[i] = a, lo[i]
			}
		}
	case PauliZ:
		s.checkQubit(q)
		b := 1 << uint(q)
		for base := b; base < len(s.amps); base += 2 * b {
			hi := s.amps[base : base+b]
			for i, a := range hi {
				hi[i] = -a
			}
		}
	default:
		s.Apply1(p.Matrix(), q)
	}
}

// CopyFrom overwrites s with o; the registers must be the same width.
func (s *State) CopyFrom(o *State) {
	if s.n != o.n {
		panic("quantum: copy between different register sizes")
	}
	copy(s.amps, o.amps)
}

// Save copies s's 2^n amplitudes into dst, which must hold exactly that
// many; Load restores them. Together they let a caller keep snapshots of
// a state in one buffer of its own.
func (s *State) Save(dst []complex128) {
	if len(dst) != len(s.amps) {
		panic(fmt.Sprintf("quantum: Save into %d slots for 2^%d amplitudes", len(dst), s.n))
	}
	copy(dst, s.amps)
}

// Load overwrites s with amplitudes saved by Save.
func (s *State) Load(src []complex128) {
	if len(src) != len(s.amps) {
		panic(fmt.Sprintf("quantum: Load of %d amplitudes into 2^%d", len(src), s.n))
	}
	copy(s.amps, src)
}

// Fidelity returns |⟨s|o⟩|², the overlap between two pure states.
func (s *State) Fidelity(o *State) float64 {
	if s.n != o.n {
		panic("quantum: fidelity between different register sizes")
	}
	var ip complex128
	for i, a := range s.amps {
		ip += cmplx.Conj(a) * o.amps[i]
	}
	return real(ip)*real(ip) + imag(ip)*imag(ip)
}
