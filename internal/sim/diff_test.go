package sim

import (
	"slices"
	"testing"
)

// The differential harness: one byte program is interpreted twice, once
// against sim.Engine and once against refEngine (the pre-wheel heap),
// and both must produce the same dispatch sequence and the same
// counters after every Run*. The program's bytes drive the top-level
// calls and, as events fire, what each callback does — so as long as
// the two queues pop in the same order they read the same bytes.

// diffQueue is the surface the interpreter drives.
type diffQueue interface {
	Now() Time
	LastEventAt() Time
	Pending() int
	counters() (maxPending int, processed, scheduled uint64)
	Schedule(delay Time, fn Event)
	ScheduleCall(delay Time, h Handler, a, b uint64)
	ScheduleCallAt(at Time, h Handler, a, b uint64)
	ScheduleCallAtOrdered(at Time, h Handler, a, b uint64, key uint64)
	Run()
	RunUntil(deadline Time)
	Stop()
	newTimer(fn Event) diffTimer
}

type diffTimer interface {
	Reset(delay Time)
	ResetAt(at Time)
	Stop() bool
	When() (Time, bool)
}

// wheelQueue adapts *Engine to diffQueue.
type wheelQueue struct{ *Engine }

func (q wheelQueue) newTimer(fn Event) diffTimer { return q.NewTimer(fn) }
func (q wheelQueue) counters() (int, uint64, uint64) {
	st := q.Stats()
	return st.MaxPending, st.Processed, st.Scheduled
}

// diffRun is one interpretation of a program against one queue.
type diffRun struct {
	q      diffQueue
	prog   []byte
	pc     int
	nextID uint64
	timers [4]diffTimer
	log    []int64
}

func (r *diffRun) byte() int {
	if r.pc >= len(r.prog) {
		return 0
	}
	r.pc++
	return int(r.prog[r.pc-1])
}

// delay draws a delay: zero, within a few buckets, straddling the
// horizon (from a callback now is the wheel's base, so these land on
// either side of the near/far boundary), or anywhere up to three
// horizons out.
func (r *diffRun) delay() Time {
	switch r.byte() % 5 {
	case 0:
		return 0
	case 1:
		return Time(r.byte() % 8)
	case 2:
		return Time(r.byte())
	case 3:
		return wheelSize - 2 + Time(r.byte()%4)
	default:
		return Time(r.byte()<<8|r.byte()) % (3*wheelSize + 1)
	}
}

func (r *diffRun) id() uint64 {
	r.nextID++
	return r.nextID
}

// HandleEvent is the typed-call dispatch: a is the event's id.
func (r *diffRun) HandleEvent(now Time, a, b uint64) { r.fired(now, a) }

func (r *diffRun) fired(now Time, id uint64) {
	r.log = append(r.log, int64(id), int64(now), int64(r.q.Now()))
	for n := r.byte() % 4; n > 0; n-- {
		r.op()
	}
}

// op performs one scheduling action; it runs both at top level and
// from inside callbacks.
func (r *diffRun) op() {
	q := r.q
	switch r.byte() % 12 {
	case 0:
		id := r.id()
		q.Schedule(r.delay(), func(now Time) { r.fired(now, id) })
	case 1:
		q.ScheduleCall(r.delay(), r, r.id(), 0)
	case 2:
		q.ScheduleCallAt(q.Now()+r.delay()-3, r, r.id(), 0) // sometimes in the past
	case 3, 4:
		// Ordered keys are unique through their low bits; the high byte
		// comes from the program, so keys arrive in any order —
		// descending included — and may land in the bucket being drained.
		id := r.id()
		q.ScheduleCallAtOrdered(q.Now()+r.delay(), r, id, 0, uint64(r.byte())<<32|id)
	case 5:
		// A burst of ordered events at one instant, keys descending.
		at, hi := q.Now()+r.delay(), uint64(r.byte())
		for n := r.byte() % 6; n > 0; n-- {
			id := r.id()
			q.ScheduleCallAtOrdered(at, r, id, 0, (hi+uint64(n))<<32|id)
		}
	case 6:
		r.timers[r.byte()%4].Reset(r.delay())
	case 7:
		r.timers[r.byte()%4].ResetAt(q.Now() + r.delay() - 3)
	case 8:
		t := r.timers[r.byte()%4]
		at, ok := t.When()
		stopped := t.Stop()
		r.log = append(r.log, -1, int64(at), b2i(ok), b2i(stopped))
	case 9:
		if r.byte()%4 == 0 {
			q.Stop()
		}
	case 10:
		// A key from one of a few streams (key>>48), ascending within
		// its stream as the conductor's merge delivers them — the case
		// the engine drains without a comparison sort.
		id := r.id()
		q.ScheduleCallAtOrdered(q.Now()+r.delay(), r, id, 0, uint64(r.byte()%5)<<48|id)
	case 11:
		// A merge-like burst at one instant: streams interleaved, each
		// ascending.
		at := q.Now() + r.delay()
		for n := r.byte() % 8; n > 0; n-- {
			id := r.id()
			q.ScheduleCallAtOrdered(at, r, id, 0, uint64(r.byte()%4)<<48|id)
		}
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// checkpoint logs every counter the two queues must agree on.
func (r *diffRun) checkpoint() {
	maxPending, processed, scheduled := r.q.counters()
	r.log = append(r.log, -2, int64(r.q.Now()), int64(r.q.LastEventAt()), int64(r.q.Pending()),
		int64(maxPending), int64(processed), int64(scheduled))
}

func (r *diffRun) run() []int64 {
	for i := range r.timers {
		id := r.id()
		r.timers[i] = r.q.newTimer(func(now Time) { r.fired(now, id) })
	}
	for r.pc < len(r.prog) {
		switch r.byte() % 8 {
		case 0:
			r.q.Run()
			r.checkpoint()
		case 1:
			r.q.RunUntil(r.q.Now() + r.delay())
			r.checkpoint()
		case 2:
			// Coast far past the horizon; whatever is scheduled next lands
			// beyond the wheel's reach until the next pop re-bases it.
			r.q.RunUntil(r.q.Now() + Time(r.byte())*wheelSize/16)
			r.checkpoint()
		default:
			r.op()
		}
	}
	// Drain: a pending Stop inhibits one Run, so three always suffice
	// once the program (and with it every callback's appetite) is spent.
	for i := 0; i < 3; i++ {
		r.q.Run()
		r.checkpoint()
	}
	return r.log
}

// diffProgram runs prog through both queues and fails on the first
// divergence.
func diffProgram(t *testing.T, prog []byte) {
	t.Helper()
	got := (&diffRun{q: wheelQueue{NewEngine()}, prog: prog}).run()
	want := (&diffRun{q: &refEngine{}, prog: prog}).run()
	if slices.Equal(got, want) {
		return
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	t.Fatalf("program %q: logs diverge at entry %d of %d/%d:\n wheel %v\n heap  %v",
		prog, i, len(got), len(want), got[i:min(i+12, len(got))], want[i:min(i+12, len(want))])
}

// TestEngineMatchesReferenceOrder drives seeded random programs through
// the wheel and the reference heap.
func TestEngineMatchesReferenceOrder(t *testing.T) {
	programs := 3000
	if testing.Short() {
		programs = 500
	}
	for seed := 1; seed <= programs; seed++ {
		rng := NewRNG(uint64(seed))
		prog := make([]byte, 64+rng.IntN(2000))
		for i := range prog {
			prog[i] = byte(rng.IntN(256))
		}
		diffProgram(t, prog)
	}
}

// FuzzEngineOrder feeds arbitrary byte programs to the same harness.
// The seed corpus (here and under testdata/fuzz) runs as a regular test.
func FuzzEngineOrder(f *testing.F) {
	f.Add([]byte{})
	// Two ordered events at 5 ms, keys descending, then a FIFO event at
	// 5 ms that must run first — and whose callback drops a still lower
	// key into the bucket being drained.
	f.Add([]byte{3, 3, 2, 5, 9, 3, 3, 2, 5, 1, 3, 1, 2, 5, 0, 1, 3, 0, 0, 0, 0, 0})
	// One timer three horizons out, one just inside the horizon; a
	// callback pulls the far one near, another stops both.
	f.Add([]byte{3, 6, 0, 4, 0x30, 0, 3, 6, 1, 3, 1, 3, 1, 1, 2, 3, 1, 1, 4, 0, 1, 6, 0, 2, 9, 2, 8, 1, 8, 0})
	// Coast four horizons on an empty queue, then schedule at and just
	// after the clock (the far tier, until a pop re-bases the wheel).
	f.Add([]byte{2, 64, 3, 1, 1, 3, 3, 0, 0, 3, 3, 0, 7, 1, 1, 1, 0, 0, 0, 0})
	// Stop before Run (inhibits it), then Stop from the first callback.
	f.Add([]byte{3, 9, 0, 3, 1, 1, 1, 3, 1, 1, 2, 3, 1, 1, 3, 0, 0, 1, 9, 4, 0, 0, 0})
	f.Fuzz(func(t *testing.T, prog []byte) { diffProgram(t, prog) })
}
