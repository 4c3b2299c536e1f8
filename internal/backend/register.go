package backend

import (
	"math/bits"

	"biasmit/internal/circuit"
)

// register is the active-register compaction plan of a fast-path run. A
// circuit placed on a large device usually touches few of its qubits (no
// Table-3 job uses more than 8 of melbourne's 14), and every amplitude
// with an untouched qubit at |1⟩ stays exactly zero for the whole
// trajectory. The plan simulates only the active qubits — those named by
// any non-barrier op — on a 2^k state and maps each sampled outcome back
// to the full register before readout.
//
// The result is byte-identical to the full-width loop, not merely
// equivalent in distribution:
//
//   - Compact index c deposits its bits into the active qubits' positions
//     in ascending order, which is monotone in c. So every Norm, Prob1
//     and CDF sum over the compact state visits the full state's non-zero
//     terms in the same order, and the terms it skips are +0, which
//     leave an IEEE-754 sum unchanged.
//   - The first index with u < prefix[i] always holds a non-zero term
//     (a zero term cannot raise the running sum past u), so the
//     full-width sampler can only stop on an index whose untouched qubits
//     are all 0 — the deposit of the compact index it stops on.
//   - A draw past the accumulated mass (round-off) returns the full
//     register's last basis state, as the full-width sampler does, not
//     the deposit of the compact all-ones index.
//   - Device lookups (gate error, T1), the rng stream, readout
//     corruption and the histogram width all stay at full width.
//
// Schedule-aware idle gaps only exist for qubits already in use (see
// schedule.PerOpIdle), so they never widen the active set.
type register struct {
	// n is the device register width the outcomes are reported in.
	n int
	// k is the number of active qubits: the compact state's width.
	k int
	// compact maps a device qubit to its compact index (-1 if idle).
	compact []int
	// operands holds every non-barrier op's compact operands, op after
	// op in circuit order; it shares one backing array with compact.
	operands []int
	// full maps a compact basis index to its full-register index.
	full []uint64
}

// compactRegister builds c's compaction plan, or returns nil when every
// qubit is active — the full-width path then runs unchanged and with no
// extra allocation.
func compactRegister(c *circuit.Circuit) *register {
	var used uint64
	arity := 0
	for _, op := range c.Ops {
		if op.Kind == circuit.Barrier {
			continue
		}
		arity += len(op.Qubits)
		for _, q := range op.Qubits {
			used |= 1 << uint(q)
		}
	}
	if used == 0 {
		used = 1 // an empty circuit still needs a one-qubit state
	}
	k := bits.OnesCount64(used)
	if k == c.NumQubits {
		return nil
	}
	backing := make([]int, c.NumQubits+arity)
	r := &register{
		n:        c.NumQubits,
		k:        k,
		compact:  backing[:c.NumQubits],
		operands: backing[c.NumQubits:],
		full:     make([]uint64, 1<<uint(k)),
	}
	j := 0
	for q := range r.compact {
		if used&(1<<uint(q)) == 0 {
			r.compact[q] = -1
			continue
		}
		// Qubit q is compact bit j: the second half of the first 2^(j+1)
		// table entries repeats the first half with q's bit set.
		half := 1 << uint(j)
		for i := 0; i < half; i++ {
			r.full[half+i] = r.full[i] | 1<<uint(q)
		}
		r.compact[q] = j
		j++
	}
	off := 0
	for _, op := range c.Ops {
		if op.Kind == circuit.Barrier {
			continue
		}
		for _, q := range op.Qubits {
			r.operands[off] = r.compact[q]
			off++
		}
	}
	return r
}

// stateWidth returns the width of the state a trajectory evolves.
func (r *register) stateWidth(n int) int {
	if r == nil {
		return n
	}
	return r.k
}

// qubit returns device qubit q's index in the trajectory state.
func (r *register) qubit(q int) int {
	if r == nil {
		return q
	}
	return r.compact[q]
}

// fullIndex maps a sampled index of the trajectory state to the full
// register. ok reports whether the draw fell inside the accumulated
// mass; a miss is the full register's last basis state.
func (r *register) fullIndex(i uint64, ok bool) uint64 {
	switch {
	case r == nil:
		return i
	case !ok:
		return 1<<uint(r.n) - 1
	default:
		return r.full[i]
	}
}
