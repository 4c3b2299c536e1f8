package backend

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"biasmit/internal/circuit"
	"biasmit/internal/device"
	"biasmit/internal/noise"
	"biasmit/internal/quantum"
	"biasmit/internal/schedule"
)

// entryKind tells a program entry's operation. Steps are deterministic;
// sites draw from the rng.
type entryKind uint8

const (
	stepGate1  entryKind = iota // Apply1(*m, q0)
	stepCNOT                    // control q0, target q1
	stepCZ                      // q0, q1
	stepSwap                    // q0, q1
	stepX                       // an idle-inversion X on q0
	sitePauli1                  // depolarizing kick on q0 with probability p
	sitePauli2                  // two-qubit kick on (q0, q1) with probability p
	siteDamp                    // amplitude damping of q0: γ = p, √(1−γ) = f
)

// entry is one operation of a compiled program.
type entry struct {
	kind   entryKind
	q0, q1 int
	m      *quantum.Matrix2
	p, f   float64
}

// program is a run's trajectory compiled once for the fast path and
// shared read-only by every worker: the gates on the trajectory state's
// operands, and every point that draws from the rng (a site) with its
// probability precomputed. A Pauli site exists only when its error
// probability is positive and a damping site only when γ ≠ 0, which is
// exactly when noise.SamplePauli1/2 and State.ApplyAmplitudeDamping
// draw, so executing the program consumes the rng as runTrajectoryInto
// does and computes the same state.
type program struct {
	reg     *register // active-register plan; nil at full width
	width   int       // trajectory state width
	entries []entry
	sites   []int // entry index of each site, in order
}

// compile builds c's program. Its entries mirror runTrajectoryInto,
// applyGateNoise and applyIdleGap call for call.
func compile(c *circuit.Circuit, dev *device.Device, opt Options, idle *idlePlan) (*program, error) {
	reg := compactRegister(c)
	// Size both slices up front: every op yields at most a gate, a
	// Pauli site and one damping site per operand, every idle gap at
	// most eight entries with inversion and one without.
	perGap := 1
	if opt.IdleInversion {
		perGap = 8
	}
	bound := 0
	for i, op := range c.Ops {
		if idle != nil {
			bound += perGap * len(idle.before[i])
		}
		if op.Kind != circuit.Barrier {
			bound += 2 + len(op.Qubits)
		}
	}
	if idle != nil {
		bound += perGap * len(idle.final)
	}
	p := &program{
		reg:     reg,
		width:   reg.stateWidth(c.NumQubits),
		entries: make([]entry, 0, bound),
		sites:   make([]int, 0, bound),
	}

	off := 0
	for i := range c.Ops {
		op := &c.Ops[i]
		if idle != nil {
			for _, gap := range idle.before[i] {
				p.idleGap(dev, opt, gap)
			}
		}
		if op.Kind == circuit.Barrier {
			continue
		}
		sq := op.Qubits
		if reg != nil {
			sq = reg.operands[off : off+len(op.Qubits)]
			off += len(op.Qubits)
		}
		switch op.Kind {
		case circuit.Gate1:
			p.add(entry{kind: stepGate1, q0: sq[0], m: &op.Matrix})
		case circuit.CNOT:
			p.add(entry{kind: stepCNOT, q0: sq[0], q1: sq[1]})
		case circuit.CZ:
			p.add(entry{kind: stepCZ, q0: sq[0], q1: sq[1]})
		case circuit.SwapOp:
			p.add(entry{kind: stepSwap, q0: sq[0], q1: sq[1]})
		default:
			panic(fmt.Sprintf("backend: unknown op kind %d", op.Kind))
		}
		if err := p.gateNoise(dev, op, sq, opt); err != nil {
			return nil, err
		}
	}
	if idle != nil {
		for _, gap := range idle.final {
			p.idleGap(dev, opt, gap)
		}
	}
	return p, nil
}

// add appends e, recording it as a site when it draws.
func (p *program) add(e entry) {
	if e.kind >= sitePauli1 {
		p.sites = append(p.sites, len(p.entries))
	}
	p.entries = append(p.entries, e)
}

// pauli1 adds the kick noise.SamplePauli1(perr) draws for.
func (p *program) pauli1(q int, perr float64) {
	if perr > 0 {
		p.add(entry{kind: sitePauli1, q0: q, p: perr})
	}
}

// damp adds the decay State.ApplyAmplitudeDamping draws for.
func (p *program) damp(q int, gamma float64) {
	if gamma != 0 {
		p.add(entry{kind: siteDamp, q0: q, p: gamma, f: math.Sqrt(1 - gamma)})
	}
}

// gateNoise mirrors applyGateNoise; op carries the device qubits, sq
// their indices in the trajectory state.
func (p *program) gateNoise(dev *device.Device, op *circuit.Op, sq []int, opt Options) error {
	duration := dev.Gate1Duration
	if op.IsTwoQubit() {
		duration = dev.Gate2Duration
		if op.Kind == circuit.SwapOp {
			duration = 3 * dev.Gate2Duration
		}
	}
	if !opt.NoGateNoise {
		if op.IsTwoQubit() {
			p2, err := dev.Gate2Error(op.Qubits[0], op.Qubits[1])
			if err != nil {
				return err
			}
			if op.Kind == circuit.SwapOp {
				p2 = 1 - (1-p2)*(1-p2)*(1-p2)
			}
			if p2 > 0 {
				p.add(entry{kind: sitePauli2, q0: sq[0], q1: sq[1], p: p2})
			}
		} else {
			p.pauli1(sq[0], dev.Qubits[op.Qubits[0]].Gate1Error)
		}
	}
	if !opt.NoDecay {
		for j, q := range op.Qubits {
			p.damp(sq[j], noise.DecayProb(duration, dev.Qubits[q].T1))
		}
	}
	return nil
}

// idleGap mirrors applyIdleGap.
func (p *program) idleGap(dev *device.Device, opt Options, gap schedule.QubitGap) {
	q := p.reg.qubit(gap.Qubit)
	dq := &dev.Qubits[gap.Qubit]
	if opt.IdleInversion && gap.Duration > 4*dev.Gate1Duration {
		half := noise.DecayProb((gap.Duration-2*dev.Gate1Duration)/2, dq.T1)
		gate := noise.DecayProb(dev.Gate1Duration, dq.T1)
		for k := 0; k < 2; k++ {
			p.damp(q, half)
			p.add(entry{kind: stepX, q0: q})
			if !opt.NoGateNoise {
				p.pauli1(q, dq.Gate1Error)
			}
			p.damp(q, gate)
		}
		return
	}
	p.damp(q, noise.DecayProb(gap.Duration, dq.T1))
}

// step applies step entry e to s.
func step(s *quantum.State, e *entry) {
	switch e.kind {
	case stepGate1:
		s.Apply1(*e.m, e.q0)
	case stepCNOT:
		s.ApplyCNOT(e.q0, e.q1)
	case stepCZ:
		s.ApplyCZ(e.q0, e.q1)
	case stepSwap:
		s.ApplySWAP(e.q0, e.q1)
	case stepX:
		s.ApplyPauli(quantum.PauliX, e.q0)
	}
}

// replay applies entries [from, to) to s as a trajectory that draws no
// event at any of their sites.
func (p *program) replay(s *quantum.State, from, to int) {
	for i := from; i < to; i++ {
		e := &p.entries[i]
		switch e.kind {
		case sitePauli1, sitePauli2:
		case siteDamp:
			s.ApplyDampingNoJump(e.q0, e.f)
		default:
			step(s, e)
		}
	}
}

// event applies the event that site e drew: the Pauli kick's uniform
// choice (the noise.SamplePauli1/2 Intn draw) or the damping jump.
func event(s *quantum.State, e *entry, rng *rand.Rand) {
	switch e.kind {
	case sitePauli1:
		s.ApplyPauli(quantum.Pauli(1+rng.Intn(3)), e.q0)
	case sitePauli2:
		k := 1 + rng.Intn(15) // 1..15 excludes (I,I)
		s.ApplyPauli(quantum.Pauli(k/4), e.q0)
		s.ApplyPauli(quantum.Pauli(k%4), e.q1)
	case siteDamp:
		s.ApplyDampingJump(e.q0)
	}
}

// run applies entries [from, len) to s with every site drawing, the
// normal trajectory loop.
func (p *program) run(s *quantum.State, from int, rng *rand.Rand) {
	for i := from; i < len(p.entries); i++ {
		e := &p.entries[i]
		switch e.kind {
		case sitePauli1, sitePauli2:
			if rng.Float64() < e.p {
				event(s, e, rng)
			}
		case siteDamp:
			if rng.Float64() < e.p*s.Prob1(e.q0) {
				s.ApplyDampingJump(e.q0)
			} else {
				s.ApplyDampingNoJump(e.q0, e.f)
			}
		default:
			step(s, e)
		}
	}
}

// checkpointBytes bounds the memory one prefix cache spends on saved
// no-event states.
const checkpointBytes = 16 << 10

// prefixCache is one worker's lazily built no-event prefix of a
// program. Most trajectories draw no event at most sites (on the 5-qubit
// machines most draw none at all), and until its first event every
// trajectory computes the same state. The cache keeps what those
// trajectories share — each site's no-event threshold, and the CDF of
// the final no-event state — so a trajectory only draws and compares
// until its first event, restores the no-event state there and runs on
// normally. The cache is learned as walks reach past it, with exactly
// the work a trajectory would do there, so a run never simulates more
// than the uncached loop. See DESIGN.md §10.
type prefixCache struct {
	prog *program
	// thr holds the sites learned so far: the trajectory draws an
	// event at site j iff its uniform draw is below thr[j] — p for a
	// Pauli site, γ·Prob1 on the no-event state for damping.
	thr []float64
	// frontier is the no-event state before site len(thr)-1 or, once
	// final is set, after the last entry.
	frontier *quantum.State
	// final samples the final no-event state once a walk reached it.
	final *quantum.Sampler
	// stride is the site distance between checkpoints; 0 when no state
	// fits the budget, so restores replay from |00…0⟩.
	stride int
	// ckpt holds the no-event state before each site j with
	// j%stride == 0, at slot j/stride.
	ckpt []complex128
}

var prefixPool = sync.Pool{New: func() any { return new(prefixCache) }}

// acquirePrefix returns an empty prefix cache of p.
func acquirePrefix(p *program) *prefixCache {
	pc := prefixPool.Get().(*prefixCache)
	pc.prog = p
	pc.frontier = quantum.AcquireState(p.width)
	if slots := checkpointBytes / 16 >> uint(p.width); slots > 0 && len(p.sites) > 0 {
		pc.stride = (len(p.sites) + slots - 1) / slots
		used := (len(p.sites) + pc.stride - 1) / pc.stride << uint(p.width)
		if cap(pc.ckpt) < used {
			pc.ckpt = make([]complex128, used)
		}
	}
	if cap(pc.thr) < len(p.sites) {
		pc.thr = make([]float64, 0, len(p.sites))
	}
	return pc
}

// release returns pc and its states to their pools.
func (pc *prefixCache) release() {
	quantum.ReleaseState(pc.frontier)
	if pc.final != nil {
		quantum.ReleaseSampler(pc.final)
	}
	*pc = prefixCache{thr: pc.thr[:0], ckpt: pc.ckpt}
	prefixPool.Put(pc)
}

// slot returns checkpoint i's amplitudes.
func (pc *prefixCache) slot(i int) []complex128 {
	size := 1 << uint(pc.prog.width)
	return pc.ckpt[i*size : (i+1)*size]
}

// extend learns the next site's threshold or, past the last site, the
// final no-event sampler.
func (pc *prefixCache) extend() {
	p := pc.prog
	j := len(pc.thr)
	from, to := 0, len(p.entries)
	if j > 0 {
		from = p.sites[j-1]
	}
	if j < len(p.sites) {
		to = p.sites[j]
	}
	p.replay(pc.frontier, from, to)
	if j == len(p.sites) {
		pc.final = quantum.AcquireSampler(pc.frontier)
		return
	}
	if pc.stride > 0 && j%pc.stride == 0 {
		pc.frontier.Save(pc.slot(j / pc.stride))
	}
	thr := p.entries[to].p
	if p.entries[to].kind == siteDamp {
		thr *= pc.frontier.Prob1(p.entries[to].q0)
	}
	pc.thr = append(pc.thr, thr)
}

// restore sets s to the no-event state before site j, which the cache
// has learned.
func (pc *prefixCache) restore(s *quantum.State, j int) {
	p := pc.prog
	switch {
	case pc.final == nil && j == len(pc.thr)-1:
		s.CopyFrom(pc.frontier)
	case pc.stride > 0:
		c := j - j%pc.stride
		s.Load(pc.slot(c / pc.stride))
		p.replay(s, p.sites[c], p.sites[j])
	default:
		s.Reset()
		p.replay(s, 0, p.sites[j])
	}
}

// trajectory simulates one trajectory. It returns the cached sampler of
// the final no-event state when the trajectory drew no event, and nil
// with the trajectory's final state in s otherwise. The rng stream is
// the one runTrajectoryInto consumes.
func (pc *prefixCache) trajectory(s *quantum.State, rng *rand.Rand) *quantum.Sampler {
	p := pc.prog
	for j, at := range p.sites {
		if j == len(pc.thr) {
			pc.extend()
		}
		if rng.Float64() < pc.thr[j] {
			pc.restore(s, j)
			event(s, &p.entries[at], rng)
			p.run(s, at+1, rng)
			return nil
		}
	}
	if pc.final == nil {
		pc.extend()
	}
	return pc.final
}
