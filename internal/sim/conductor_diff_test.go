package sim

import (
	"fmt"
	"reflect"
	"testing"
)

// The conductor's differential harness: one byte program builds a lane
// layout — region count, lookahead bound matrix, global-lane script and
// whether a GlobalHorizon hook certifies internal global events — and
// drives every lane's handlers, and the layout runs at workers 1, 2
// and 6 and through RunSerial. Worker count is a throughput knob only,
// so every lane's execution log and the conductor's stats must be
// identical; the serial loop runs the same schedule with every region
// lane on one engine, so its lane logs must be identical too.
//
// Handlers read the program through lane-local cursors (phase B runs
// lanes concurrently). Under the conductor, cross-lane sends go into
// per-(source, destination) outboxes and the Merge hook drains them
// with Each, one job per destination, under (source lane, emission
// number) tie keys — the transport's contract, so the engine's
// sort-free tie band is on the path. Under RunSerial a cross-lane send
// takes the same key straight into the shared engine's tie band.

// condProg is a byte program with a cursor.
type condProg struct {
	prog []byte
	pc   int
}

func (p *condProg) byte() int {
	if p.pc >= len(p.prog) {
		return 0
	}
	p.pc++
	return int(p.prog[p.pc-1])
}

// condMsg is one buffered cross-lane send.
type condMsg struct {
	at  Time
	id  uint64
	seq uint64
}

// condLane is a region lane's handler and everything it writes.
type condLane struct {
	run    *condRun
	lane   int // conductor lane index
	script condProg
	budget int
	nextID uint64
	emit   uint64
	out    [][]condMsg // by destination conductor lane
	log    []int64
}

// condRun is one execution of a program.
type condRun struct {
	c *Conductor
	// engines is each lane's engine by conductor lane index: the
	// conductor's own, or under RunSerial a global engine and one
	// engine every region lane shares.
	engines []*Engine
	serial  bool
	bounds  [][]Time
	lanes   []*condLane // by conductor lane; [0] unused
	global  condProg
	glog    []int64
	touch   []Time // pending lane-touching global events
}

func (l *condLane) HandleEvent(now Time, id, _ uint64) {
	l.log = append(l.log, int64(now), int64(id))
	if l.budget <= 0 {
		return
	}
	l.budget--
	e := l.run.engines[l.lane]
	for n := l.script.byte() % 3; n > 0; n-- {
		switch op := l.script.byte(); {
		case op%4 < 2:
			e.ScheduleCall(Time(l.script.byte()%6), l, l.id(), 0)
		default:
			// A cross-lane send, never faster than the pair's bound.
			regions := len(l.run.lanes) - 1
			dst := 1 + l.script.byte()%regions
			if dst == l.lane {
				e.ScheduleCall(1, l, l.id(), 0)
				continue
			}
			at := now + l.run.bounds[l.lane-1][dst-1] + Time(l.script.byte()%4)
			if l.run.serial {
				e.ScheduleCallAtOrdered(at, l.run.lanes[dst], l.id(), 0, uint64(l.lane)<<48|l.emit)
			} else {
				l.out[dst] = append(l.out[dst], condMsg{at: at, id: l.id(), seq: l.emit})
			}
			l.emit++
		}
	}
}

func (l *condLane) id() uint64 {
	l.nextID++
	return uint64(l.lane)<<32 | l.nextID
}

// merge drains every outbox addressed to conductor lane d, sources in
// lane order, each in emission order.
func (r *condRun) merge(d int) {
	dl := r.lanes[d]
	e := r.c.lanes[d]
	for s := 1; s < len(r.lanes); s++ {
		src := r.lanes[s]
		for _, m := range src.out[d] {
			if m.at <= e.Now() {
				panic(fmt.Sprintf("merge back-dates: arrival %d <= lane %d clock %d", m.at, d, e.Now()))
			}
			e.ScheduleCallAtOrdered(m.at, dl, m.id, 0, uint64(s)<<48|m.seq)
		}
		src.out[d] = src.out[d][:0]
	}
}

// globalEvent is the global lane's handler: internal events log only;
// touching events also inject straight into a region lane, which is
// legal because every region engine is idle in phase A.
type globalEvent struct{ r *condRun }

func (g globalEvent) HandleEvent(now Time, touching, _ uint64) {
	r := g.r
	r.glog = append(r.glog, int64(now), int64(touching))
	if touching == 0 {
		return
	}
	for i, at := range r.touch {
		if at == now {
			r.touch = append(r.touch[:i], r.touch[i+1:]...)
			break
		}
	}
	l := r.lanes[1+r.global.byte()%(len(r.lanes)-1)]
	r.engines[l.lane].ScheduleCallAt(now+Time(r.global.byte()%3), l, l.id(), 0)
}

// horizon is the GlobalHorizon hook: the earliest pending touching
// global event.
func (r *condRun) horizon() Time {
	h := Never
	for _, at := range r.touch {
		h = min(h, at)
	}
	return h
}

// runCondProgram runs prog on the conductor at the given worker count,
// or through RunSerial when workers is 0 (its stats are then zero).
func runCondProgram(prog []byte, workers int) (*condRun, ConductorStats, []EngineStats) {
	setup := &condProg{prog: prog}
	regions := 1 + setup.byte()%6
	r := &condRun{c: NewConductor(regions), serial: workers == 0, global: condProg{prog: prog, pc: min(len(prog), 1)}}
	r.engines = r.c.lanes
	if r.serial {
		lanes := NewEngine()
		r.engines = []*Engine{NewEngine()}
		for i := 0; i < regions; i++ {
			r.engines = append(r.engines, lanes)
		}
	}
	r.bounds = make([][]Time, regions)
	for j := range r.bounds {
		r.bounds[j] = make([]Time, regions)
		for i := range r.bounds[j] {
			r.bounds[j][i] = Time(1 + setup.byte()%12)
		}
	}
	r.c.SetBounds(r.bounds)
	r.lanes = make([]*condLane, 1+regions)
	for i := 1; i <= regions; i++ {
		// Lanes read the program from different offsets, so their
		// scripts differ.
		l := &condLane{run: r, lane: i, script: condProg{prog: prog, pc: min(len(prog), 7*i)},
			budget: 40 + setup.byte()%80, out: make([][]condMsg, 1+regions)}
		r.lanes[i] = l
		for n := 1 + setup.byte()%3; n > 0; n-- {
			r.engines[i].ScheduleCallAt(Time(setup.byte()%20), l, l.id(), 0)
		}
	}
	for n := setup.byte() % 6; n > 0; n-- {
		at, touching := Time(setup.byte()%60), uint64(setup.byte()%2)
		if touching == 1 {
			r.touch = append(r.touch, at)
		}
		r.engines[0].ScheduleCallAt(at, globalEvent{r}, touching, 0)
	}
	if r.serial {
		RunSerial(r.engines[0], r.engines[1])
		return r, ConductorStats{}, nil
	}
	if setup.byte()%2 == 1 {
		r.c.GlobalHorizon = r.horizon
	}
	r.c.Merge = func() int {
		n := 0
		for _, l := range r.lanes[1:] {
			for _, out := range l.out {
				n += len(out)
			}
		}
		r.c.Each(regions, func(k int) { r.merge(1 + k) })
		return n
	}
	r.c.Run(workers)
	var st []EngineStats
	for _, e := range r.c.lanes {
		st = append(st, e.Stats())
	}
	return r, r.c.Stats(), st
}

// condProgram runs prog through RunSerial and on the conductor at
// workers 1, 2 and 6, and fails on the first difference: every lane's
// log against the serial run's, the conductor's stats across worker
// counts.
func condProgram(t *testing.T, prog []byte) {
	t.Helper()
	ref, _, _ := runCondProgram(prog, 0)
	_, refStats, refEngines := runCondProgram(prog, 1)
	for _, w := range []int{1, 2, 6} {
		got, stats, engines := runCondProgram(prog, w)
		for i := 1; i < len(ref.lanes); i++ {
			if !reflect.DeepEqual(got.lanes[i].log, ref.lanes[i].log) {
				t.Fatalf("program %q workers=%d: lane %d log\n %v\nwant (serial)\n %v", prog, w, i, got.lanes[i].log, ref.lanes[i].log)
			}
		}
		if !reflect.DeepEqual(got.glog, ref.glog) {
			t.Fatalf("program %q workers=%d: global log %v, want (serial) %v", prog, w, got.glog, ref.glog)
		}
		if !reflect.DeepEqual(stats, refStats) {
			t.Fatalf("program %q workers=%d: stats %+v, want %+v", prog, w, stats, refStats)
		}
		if !reflect.DeepEqual(engines, refEngines) {
			t.Fatalf("program %q workers=%d: engine stats %+v, want %+v", prog, w, engines, refEngines)
		}
	}
}

// TestConductorMatchesAcrossWorkersRandomized drives seeded random
// programs through the harness: the conductor at every worker count,
// and the serial loop, run each lane through one event sequence.
func TestConductorMatchesAcrossWorkersRandomized(t *testing.T) {
	programs := 300
	if testing.Short() {
		programs = 60
	}
	for seed := 1; seed <= programs; seed++ {
		rng := NewRNG(uint64(seed))
		prog := make([]byte, 32+rng.IntN(400))
		for i := range prog {
			prog[i] = byte(rng.IntN(256))
		}
		condProgram(t, prog)
	}
}

// FuzzConductorOrder feeds arbitrary byte programs to the same harness.
// The seed corpus (here and under testdata/fuzz) runs as a regular test.
func FuzzConductorOrder(f *testing.F) {
	f.Add([]byte{})
	// Six lanes, unit bounds, every lane sending across.
	f.Add([]byte{5, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
		80, 2, 3, 80, 2, 3, 80, 2, 3, 80, 2, 3, 80, 2, 3, 80, 2, 3, 2, 3, 3, 2, 3, 3, 2, 3, 2, 2, 3, 3, 1, 1})
	// Two lanes, wide asymmetric bounds, touching and internal global
	// events under a horizon hook.
	f.Add([]byte{1, 11, 3, 7, 9, 100, 1, 4, 60, 2, 10, 5, 20, 1, 30, 0, 40, 1, 50, 0, 1, 2, 3, 3, 2, 1, 3, 3, 0, 1, 2, 3})
	f.Fuzz(func(t *testing.T, prog []byte) { condProgram(t, prog) })
}
