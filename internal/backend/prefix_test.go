package backend

import (
	"math"
	"math/rand"
	"testing"

	"biasmit/internal/circuit"
	"biasmit/internal/device"
	"biasmit/internal/quantum"
	"biasmit/internal/schedule"
)

// CacheEdgeCase is a run the no-event prefix cache takes down one of its
// less common paths. want checks that a walk of the run's trajectories
// (see walkTrajectories) really took that path.
type CacheEdgeCase struct {
	Name string
	Dev  *device.Device
	C    *circuit.Circuit
	Opt  Options
	want func(t *testing.T, w cacheWalk)
}

// cacheWalk records how the cache served a sequence of trajectories.
type cacheWalk struct {
	prog   *program
	stride int
	// first holds each trajectory's first event site, -1 for none;
	// restored marks the events the cache served from a checkpoint or
	// from |00…0⟩ rather than from its frontier.
	first    []int
	restored []bool
}

// restoredAt reports whether some restored event fell on a site
// satisfying ok.
func (w cacheWalk) restoredAt(ok func(j int) bool) bool {
	for i, j := range w.first {
		if w.restored[i] && ok(j) {
			return true
		}
	}
	return false
}

// CacheEdgeCases returns the runs the cache tests sweep.
func CacheEdgeCases() []CacheEdgeCase {
	line := func(n int, gate1Err, t1 float64) *device.Device {
		d, err := device.Synthetic(device.SyntheticSpec{NumQubits: n, Topology: "line", Seed: 3})
		if err != nil {
			panic(err)
		}
		for i := range d.Qubits {
			d.Qubits[i].Gate1Error = gate1Err
			d.Qubits[i].T1 = t1
		}
		return d
	}
	// Eight of melbourne's qubits, two layers deep: about 70 sites, so
	// the 4 checkpoints a 2^8 state leaves room for sit many sites
	// apart.
	mel8 := circuit.New(14, "mel8")
	for layer := 0; layer < 2; layer++ {
		for q := 0; q <= 6; q++ {
			mel8.H(q)
		}
		mel8.H(8)
		for q := 0; q < 6; q++ {
			mel8.CX(q, q+1)
		}
		mel8.CX(6, 8).T(3)
	}
	// Every melbourne qubit: a 2^14 state is larger than the whole
	// checkpoint budget.
	mel14 := circuit.New(14, "mel14")
	for q := 0; q < 14; q++ {
		mel14.H(q)
	}
	for q := 0; q < 6; q++ {
		mel14.CX(q, q+1).CX(q+7, q+8)
	}
	mel14.CX(6, 8).CX(2, 12)
	return []CacheEdgeCase{
		{
			Name: "no-sites",
			Dev:  device.IBMQX4(),
			C:    circuit.New(5, "ghz5").H(0).CX(1, 0).CX(2, 1).CX(3, 2).CX(3, 4),
			Opt:  Options{NoGateNoise: true, NoDecay: true},
			want: func(t *testing.T, w cacheWalk) {
				if len(w.prog.sites) != 0 {
					t.Fatalf("%d sites, want none", len(w.prog.sites))
				}
			},
		},
		{
			Name: "pauli-event-at-site-0",
			Dev:  line(3, 0.9, 60),
			C:    circuit.New(3, "kick").H(0).CX(0, 1).X(2).CX(1, 2),
			want: func(t *testing.T, w cacheWalk) {
				if w.prog.entries[w.prog.sites[0]].kind != sitePauli1 || !w.restoredAt(func(j int) bool { return j == 0 }) {
					t.Fatal("no restored Pauli event at site 0")
				}
			},
		},
		{
			Name: "damping-event-at-site-0",
			Dev:  line(3, 0, 0.02),
			C:    circuit.New(3, "decay").X(0).CX(0, 1).H(2).CX(1, 2),
			want: func(t *testing.T, w cacheWalk) {
				if w.prog.entries[w.prog.sites[0]].kind != siteDamp || !w.restoredAt(func(j int) bool { return j == 0 }) {
					t.Fatal("no restored damping event at site 0")
				}
			},
		},
		{
			// Qubit 2 decays with γ = 1/2 in the last gate that has a
			// site, and qubit 1 (T1 = 0: no decay sites) adds steps
			// after it: half the walks end without an event, and later
			// events at the last site restore the state before it, not
			// the cached final state.
			Name: "damping-event-at-last-site",
			Dev: func() *device.Device {
				d := line(3, 0, 60)
				d.Qubits[1].T1 = 0
				d.Qubits[2].T1 = d.Gate1Duration / math.Ln2
				return d
			}(),
			C:   circuit.New(3, "last").H(0).X(2).H(1).T(1),
			Opt: Options{NoGateNoise: true},
			want: func(t *testing.T, w cacheWalk) {
				last := len(w.prog.sites) - 1
				if w.prog.entries[w.prog.sites[last]].kind != siteDamp || !w.restoredAt(func(j int) bool { return j == last }) {
					t.Fatal("no restored damping event at the last site")
				}
			},
		},
		{
			Name: "melbourne-stride",
			Dev:  device.IBMQMelbourne(),
			C:    mel8,
			want: func(t *testing.T, w cacheWalk) {
				if w.prog.width != 8 || w.stride < 2 {
					t.Fatalf("width %d stride %d, want 8 active qubits and stride > 1", w.prog.width, w.stride)
				}
				if !w.restoredAt(func(j int) bool { return j > 0 && j%w.stride == 0 }) {
					t.Fatal("no restored event on a checkpoint")
				}
				if !w.restoredAt(func(j int) bool { return j%w.stride != 0 }) {
					t.Fatal("no restored event between checkpoints")
				}
			},
		},
		{
			Name: "replay-from-reset",
			Dev:  device.IBMQMelbourne(),
			C:    mel14,
			want: func(t *testing.T, w cacheWalk) {
				if w.prog.width != 14 || w.stride != 0 {
					t.Fatalf("width %d stride %d, want 14 and no checkpoints", w.prog.width, w.stride)
				}
				if !w.restoredAt(func(j int) bool { return j > 0 }) {
					t.Fatal("no event replayed from |00…0⟩")
				}
			},
		},
		{
			// Qubit 4 idles through the chain on 0–3, so its gap gets
			// an inversion pair: X steps and their Pauli sites.
			Name: "idle-inversion",
			Dev:  device.IBMQX4(),
			C:    circuit.New(5, "idle").H(4).H(2).CX(2, 3).CX(1, 2).CX(1, 0).CX(2, 1).CX(3, 2).CX(3, 4),
			Opt:  Options{ScheduleAwareDecay: true, IdleInversion: true},
			want: func(t *testing.T, w cacheWalk) {
				for _, e := range w.prog.entries {
					if e.kind == stepX {
						return
					}
				}
				t.Fatal("no idle-inversion step compiled")
			},
		},
	}
}

// tape is a rand.Source that records the values it hands out.
type tape struct {
	rand.Source
	draws []int64
}

func (t *tape) Int63() int64 {
	v := t.Source.Int63()
	t.draws = append(t.draws, v)
	return v
}

// walkTrajectories runs n trajectories of ec through one prefix cache
// and, from an rng with the same seed, through runTrajectoryInto (the
// loop NoFastPath runs). Every final state must match bit for bit and
// both rngs must stop at the same point of their stream.
func walkTrajectories(t *testing.T, ec CacheEdgeCase, seed int64, n int) cacheWalk {
	t.Helper()
	opt := ec.Opt.withDefaults(ec.Dev.NumQubits)
	var idle *idlePlan
	if opt.ScheduleAwareDecay && !opt.NoDecay {
		before, final, err := schedule.PerOpIdle(ec.C, ec.Dev)
		if err != nil {
			t.Fatal(err)
		}
		idle = &idlePlan{before: before, final: final}
	}
	prog, err := compile(ec.C, ec.Dev, opt, idle)
	if err != nil {
		t.Fatal(err)
	}
	pc := acquirePrefix(prog)
	defer pc.release()
	w := cacheWalk{prog: prog, stride: pc.stride}
	got := quantum.NewState(prog.width)
	want := quantum.NewState(prog.width)
	src := &tape{Source: rand.NewSource(seed)}
	rngGot := rand.New(src)
	rngWant := rand.New(rand.NewSource(seed))
	gotAmps := make([]complex128, 1<<uint(prog.width))
	wantAmps := make([]complex128, len(gotAmps))
	for i := 0; i < n; i++ {
		known, complete := len(pc.thr), pc.final != nil
		src.draws = src.draws[:0]
		final := got
		if pc.trajectory(got, rngGot) != nil {
			final = pc.frontier
		}
		runTrajectoryInto(want, ec.C, ec.Dev, opt, idle, prog.reg, rngWant)
		final.Save(gotAmps)
		want.Save(wantAmps)
		for k, a := range gotAmps {
			b := wantAmps[k]
			if math.Float64bits(real(a)) != math.Float64bits(real(b)) || math.Float64bits(imag(a)) != math.Float64bits(imag(b)) {
				t.Fatalf("trajectory %d: amplitude %d is %v, the loop computed %v", i, k, a, b)
			}
		}
		// The walk draws one Float64 per site until the first event.
		first := -1
		for j, v := range src.draws {
			if j < len(prog.sites) && float64(v)/(1<<63) < pc.thr[j] {
				first = j
				break
			}
		}
		w.first = append(w.first, first)
		// An event is served from the frontier iff the walk had not
		// completed and the event lies at or past the last learned site.
		w.restored = append(w.restored, first >= 0 && (complete || first < known-1))
		if a, b := rngGot.Int63(), rngWant.Int63(); a != b {
			t.Fatalf("trajectory %d: rng streams diverged", i)
		}
	}
	return w
}

// TestPrefixCacheMatchesTrajectoryLoop walks every edge case's
// trajectories through the cache and the uncached loop side by side.
func TestPrefixCacheMatchesTrajectoryLoop(t *testing.T) {
	for _, ec := range CacheEdgeCases() {
		t.Run(ec.Name, func(t *testing.T) {
			n := 2000
			if ec.Name == "replay-from-reset" {
				n = 60
			}
			ec.want(t, walkTrajectories(t, ec, 5, n))
		})
	}
}

// TestPrefixCacheEdgesMatchNaive runs the edge cases end to end through
// both RunContext paths at trajectory batches of 1 and 7 and one or two
// workers.
func TestPrefixCacheEdgesMatchNaive(t *testing.T) {
	for _, ec := range CacheEdgeCases() {
		shots := 200
		if ec.Name == "replay-from-reset" {
			shots = 14
		}
		for _, batch := range []int{1, 7} {
			for _, workers := range []int{1, 2} {
				opt := ec.Opt
				opt.Shots = shots
				opt.Seed = 9
				opt.ShotsPerTrajectory = batch
				opt.Workers = workers
				fast, err := Run(ec.C, ec.Dev, opt)
				if err != nil {
					t.Fatal(err)
				}
				opt.NoFastPath = true
				naive, err := Run(ec.C, ec.Dev, opt)
				if err != nil {
					t.Fatal(err)
				}
				for _, o := range naive.Outcomes() {
					if naive.Get(o) != fast.Get(o) {
						t.Fatalf("%s batch=%d workers=%d: counts differ at %s: naive %d, fast %d",
							ec.Name, batch, workers, o, naive.Get(o), fast.Get(o))
					}
				}
				if naive.Total() != fast.Total() || len(naive.Outcomes()) != len(fast.Outcomes()) {
					t.Fatalf("%s batch=%d workers=%d: histograms differ", ec.Name, batch, workers)
				}
			}
		}
	}
}
