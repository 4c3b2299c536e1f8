package backend

import "biasmit/internal/circuit"

// CompactPlan exposes c's active-register compaction plan to the
// external tests, which can import the kernel and placement packages
// (both import backend): the active device qubits in ascending order
// and the compact→full basis index table. Both are nil when every qubit
// is active.
func CompactPlan(c *circuit.Circuit) (active []int, full []uint64) {
	r := compactRegister(c)
	if r == nil {
		return nil, nil
	}
	for q, j := range r.compact {
		if j >= 0 {
			active = append(active, q)
		}
	}
	return active, r.full
}
