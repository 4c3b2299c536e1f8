package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// refNominal and refNominalCPU are the reference unit's unhindered wall
// time and process CPU time on the host the benchmark was recorded on
// (a 2-vCPU Intel Xeon VM at 2.0 GHz): the speed that time and CPU
// metrics are scaled to.
const (
	refNominal    = 700 * time.Microsecond
	refNominalCPU = 1000 * time.Microsecond
)

// speedRef times a fixed reference unit of work between a run's
// requests, to measure how hard the rest of a shared host presses on
// this one's CPUs while the run lasts. On the hosts this benchmark runs
// on, other tenants slow a run's code by up to 2x, flipping within
// seconds and drifting over minutes. Sometimes they take the vCPUs away
// (steal), which costs wall time but no process CPU time; sometimes
// they share the cores, which costs both. The reference unit, timed at
// hundreds of points through the run, slows with them. Time metrics are
// scaled by refNominal over the unit's mean wall time, and CPU metrics
// by refNominalCPU over its mean process CPU time.
//
// The unit is the benchmark's own code, so no change to the program
// under test moves it. Like the workloads, it keeps both of the
// benchmark's workers busy: each runs a 2x2 complex rotation swept over
// a 128 KiB vector, like a state-vector gate, then sorts 4096 integers,
// for branchy integer code; the unit's time is the slower worker's.
// It allocates nothing.
type speedRef struct {
	lanes [2]refLane
	keys  []int
	wall  []float64 // ns per unit
	cpu   []float64 // process CPU ns per unit
}

// refLane is one worker's data.
type refLane struct {
	vec  []complex128
	work []int
}

func newSpeedRef() *speedRef {
	s := &speedRef{keys: make([]int, 4096)}
	x := uint64(1)
	for i := range s.keys {
		x = x*6364136223846793005 + 1442695040888963407
		s.keys[i] = int(x >> 33)
	}
	for l := range s.lanes {
		vec := make([]complex128, 1<<13)
		for i := range vec {
			vec[i] = complex(1/math.Sqrt(float64(len(vec))), 0)
		}
		s.lanes[l] = refLane{vec: vec, work: make([]int, len(s.keys))}
	}
	return s
}

// sample times n units.
func (s *speedRef) sample(n int) {
	for i := 0; i < n; i++ {
		t0, c0 := time.Now(), cpuTime()
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.lanes[1].run(s.keys)
		}()
		s.lanes[0].run(s.keys)
		wg.Wait()
		s.wall = append(s.wall, float64(time.Since(t0)))
		s.cpu = append(s.cpu, float64(cpuTime()-c0))
	}
}

func (l *refLane) run(keys []int) {
	refSweep(l.vec)
	copy(l.work, keys)
	sort.Ints(l.work)
}

// refSweep rotates every amplitude pair at every stride; the rotation is
// unitary, so the vector's norm stays 1 however often it runs.
func refSweep(v []complex128) {
	const c, sn = 0.8, 0.6
	for stride := 1; stride < len(v); stride <<= 1 {
		for i := 0; i < len(v); i++ {
			if i&stride != 0 {
				continue
			}
			a, b := v[i], v[i|stride]
			v[i] = complex(c, 0)*a - complex(0, sn)*b
			v[i|stride] = complex(0, -sn)*a + complex(c, 0)*b
		}
	}
}

// scale is refNominal over the unit's mean wall time: the factor that
// turns a time measured during the run into one at the nominal speed.
func (s *speedRef) scale() float64 {
	return float64(refNominal) / mean(s.wall)
}

// cpuScale is refNominalCPU over the unit's mean process CPU time: the
// same for a CPU time.
func (s *speedRef) cpuScale() float64 {
	return float64(refNominalCPU) / mean(s.cpu)
}

// note describes the scaling for a time metric's report line.
func (s *speedRef) note() string {
	return fmt.Sprintf("scaled by %.4f: reference unit mean %.1fus, p5 %.1fus, over %d units",
		s.scale(), mean(s.wall)/1e3, quantile(s.wall, 0.05)/1e3, len(s.wall))
}

// cpuNote describes the scaling for a CPU metric's report line.
func (s *speedRef) cpuNote() string {
	return fmt.Sprintf("scaled by %.4f: reference unit mean %.1fus CPU, p5 %.1fus, over %d units",
		s.cpuScale(), mean(s.cpu)/1e3, quantile(s.cpu, 0.05)/1e3, len(s.cpu))
}
