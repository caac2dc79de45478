package sim

import (
	"slices"
	"testing"
)

// TestStopInsideEvent verifies that Stop called from within an event
// finishes that event, runs nothing further, and leaves the queue
// intact for a later resume.
func TestStopInsideEvent(t *testing.T) {
	e := NewEngine()
	var ran []int
	for i := 0; i < 5; i++ {
		i := i
		e.Schedule(Time(10*i), func(Time) {
			ran = append(ran, i)
			if i == 2 {
				e.Stop()
			}
		})
	}
	e.Run()
	if len(ran) != 3 {
		t.Fatalf("ran %v, want events 0-2", ran)
	}
	if e.Now() != 20 {
		t.Fatalf("clock stopped at %v, want 20", e.Now())
	}
	if e.Pending() != 2 {
		t.Fatalf("pending %d, want 2", e.Pending())
	}
	e.Run()
	if len(ran) != 5 {
		t.Fatalf("resume ran %v, want all 5", ran)
	}
}

// TestRunUntilEqualTimestampBurst schedules a large burst at one
// timestamp, interleaved with events just past the deadline, and
// verifies RunUntil executes exactly the burst in FIFO order.
func TestRunUntilEqualTimestampBurst(t *testing.T) {
	e := NewEngine()
	const burst = 500
	var order []int
	for i := 0; i < burst; i++ {
		i := i
		// Interleave: a deadline event and a past-deadline event per
		// iteration, so heap shape cannot accidentally produce FIFO.
		e.Schedule(100, func(Time) { order = append(order, i) })
		e.Schedule(101, func(Time) { t.Error("past-deadline event ran") })
	}
	e.RunUntil(100)
	if len(order) != burst {
		t.Fatalf("ran %d burst events, want %d", len(order), burst)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("burst order not FIFO at %d: got %d", i, v)
		}
	}
	if e.Now() != 100 {
		t.Fatalf("clock %v, want 100", e.Now())
	}
}

// TestTimerCancelThenFire covers the cancel-then-fire race: a timer
// stopped before its deadline must not fire, even when another event
// at the exact deadline timestamp still runs, and even when the freed
// slot is immediately reused by a new event.
func TestTimerCancelThenFire(t *testing.T) {
	e := NewEngine()
	fired := 0
	timer := e.NewTimer(func(Time) { fired++ })
	timer.Reset(50)
	sibling := 0
	e.Schedule(50, func(Time) { sibling++ })
	e.Schedule(10, func(Time) {
		if !timer.Stop() {
			t.Error("Stop should report a pending occurrence")
		}
		// Reuse the freed slot at the timer's old deadline.
		e.Schedule(40, func(Time) { sibling++ })
	})
	e.Run()
	if fired != 0 {
		t.Fatalf("cancelled timer fired %d times", fired)
	}
	if sibling != 2 {
		t.Fatalf("sibling events ran %d times, want 2", sibling)
	}
	if timer.Stop() {
		t.Fatal("second Stop should report idle")
	}
	// The handle stays usable after cancellation.
	timer.Reset(5)
	e.Run()
	if fired != 1 {
		t.Fatalf("reset-after-stop fired %d times, want 1", fired)
	}
}

// TestTimerRescheduleInCallback drives a periodic loop entirely from
// the timer's own callback.
func TestTimerRescheduleInCallback(t *testing.T) {
	e := NewEngine()
	var at []Time
	var timer *Timer
	timer = e.NewTimer(func(now Time) {
		at = append(at, now)
		if len(at) < 4 {
			timer.Reset(10)
		}
	})
	timer.Reset(10)
	e.Run()
	want := []Time{10, 20, 30, 40}
	if len(at) != len(want) {
		t.Fatalf("fired at %v, want %v", at, want)
	}
	for i := range want {
		if at[i] != want[i] {
			t.Fatalf("fired at %v, want %v", at, want)
		}
	}
	if timer.Pending() {
		t.Fatal("timer should be idle after the loop ends")
	}
}

// TestTimerResetWhilePending verifies a pending timer moves — both
// later and earlier — and that the occurrence fires exactly once, at
// the final deadline.
func TestTimerResetWhilePending(t *testing.T) {
	e := NewEngine()
	var fired []Time
	timer := e.NewTimer(func(now Time) { fired = append(fired, now) })
	timer.Reset(100)
	e.Schedule(10, func(Time) { timer.Reset(200) })   // push out: fires at 210
	e.Schedule(20, func(Time) { timer.ResetAt(150) }) // pull in: fires at 150
	e.Run()
	if len(fired) != 1 || fired[0] != 150 {
		t.Fatalf("fired %v, want exactly [150]", fired)
	}
	if at, ok := timer.When(); ok {
		t.Fatalf("timer still pending at %v", at)
	}
}

// TestTimerResetAtPastIsMonotonic is the regression test for the
// ResetAt "clamped to now" contract: resetting a timer into the past —
// from callbacks mid-run, onto a pending occurrence, and after
// RunUntil has advanced an idle clock — must never rewind the engine
// clock. Every observed firing time and every Now() reading must be
// non-decreasing.
func TestTimerResetAtPastIsMonotonic(t *testing.T) {
	e := NewEngine()
	var fired []Time
	last := Time(-1)
	observe := func(now Time) {
		if now < last {
			t.Fatalf("clock rewound: event at %v after %v", now, last)
		}
		if e.Now() != now {
			t.Fatalf("Now() = %v inside event at %v", e.Now(), now)
		}
		last = now
	}
	timer := e.NewTimer(func(now Time) { observe(now); fired = append(fired, now) })
	// Abuse 1: re-queue a pending occurrence into the past from a
	// callback. The timer is pending at 500; at t=100 it is reset to
	// t=5, which must clamp to 100 and fire there.
	timer.Reset(500)
	e.Schedule(100, func(now Time) { observe(now); timer.ResetAt(5) })
	e.Schedule(200, func(now Time) { observe(now) })
	e.Run()
	if len(fired) != 1 || fired[0] != 100 {
		t.Fatalf("fired %v, want exactly [100] (clamped to now)", fired)
	}
	// Abuse 2: schedule an idle timer into the past after RunUntil has
	// advanced the clock past every event. The occurrence must fire at
	// the clamped clock, not rewind it.
	e.RunUntil(1000)
	if e.Now() != 1000 {
		t.Fatalf("clock %v after RunUntil, want 1000", e.Now())
	}
	timer.ResetAt(e.Now() - 999)
	if at, ok := timer.When(); !ok || at != 1000 {
		t.Fatalf("pending at %v (ok=%v), want clamp to 1000", at, ok)
	}
	e.Run()
	if len(fired) != 2 || fired[1] != 1000 {
		t.Fatalf("fired %v, want second firing at 1000", fired)
	}
	if e.Now() != 1000 {
		t.Fatalf("clock %v after clamped firing, want 1000", e.Now())
	}
}

// TestTimerFIFOAgainstSchedule asserts the determinism contract: a
// Reset consumes the next sequence number exactly like a Schedule, so
// a timer firing at the same timestamp as plain events keeps its
// schedule-order position.
func TestTimerFIFOAgainstSchedule(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Schedule(30, func(Time) { order = append(order, "a") })
	timer := e.NewTimer(func(Time) { order = append(order, "timer") })
	timer.Reset(30)
	e.Schedule(30, func(Time) { order = append(order, "b") })
	e.Run()
	if len(order) != 3 || order[0] != "a" || order[1] != "timer" || order[2] != "b" {
		t.Fatalf("order %v, want [a timer b]", order)
	}
}

// TestScheduleCallTyped exercises the closure-free dispatch path,
// including FIFO interleaving with closure events.
type recordingHandler struct {
	calls [][3]uint64 // now, a, b
}

func (r *recordingHandler) HandleEvent(now Time, a, b uint64) {
	r.calls = append(r.calls, [3]uint64{uint64(now), a, b})
}

func TestScheduleCallTyped(t *testing.T) {
	e := NewEngine()
	h := &recordingHandler{}
	e.ScheduleCall(20, h, 1, 10)
	e.ScheduleCall(10, h, 2, 20)
	e.ScheduleCallAt(20, h, 3, 30)
	e.ScheduleCall(-5, h, 4, 40) // clamped to now
	e.Run()
	want := [][3]uint64{{0, 4, 40}, {10, 2, 20}, {20, 1, 10}, {20, 3, 30}}
	if len(h.calls) != len(want) {
		t.Fatalf("calls %v, want %v", h.calls, want)
	}
	for i := range want {
		if h.calls[i] != want[i] {
			t.Fatalf("call %d = %v, want %v", i, h.calls[i], want[i])
		}
	}
	e.ScheduleCall(1, nil, 0, 0)
	e.Run()
	if len(h.calls) != len(want) {
		t.Fatal("nil handler should be ignored")
	}
}

// TestEngineSlotReuse floods the engine through several
// schedule/drain cycles and checks event storage does not grow beyond
// the high-water mark of concurrently pending events.
func TestEngineSlotReuse(t *testing.T) {
	e := NewEngine()
	const pending = 64
	for cycle := 0; cycle < 50; cycle++ {
		for i := 0; i < pending; i++ {
			e.Schedule(Time(i), func(Time) {})
		}
		e.Run()
	}
	if got := e.Stats().Slots; got > pending {
		t.Fatalf("event storage grew to %d for %d concurrent events", got, pending)
	}
}

// holdModel is the classic hold model: every event schedules one
// successor, so the queue stays at its initial depth; the engine stops
// when the budget is spent. Delays are exponential with mean 1 s, so a
// few percent take the far tier.
type holdModel struct {
	e      *Engine
	rng    *RNG
	budget int
}

func (h *holdModel) HandleEvent(Time, uint64, uint64) {
	if h.budget--; h.budget == 0 {
		h.e.Stop()
	}
	h.e.ScheduleCall(h.rng.ExpTime(Second), h, 0, 0)
}

// TestEngineSteadyStateAllocatesNothing: once event storage has reached
// its high-water mark, scheduling and draining allocate nothing — FIFO,
// ordered, far-tier and timer events alike.
func TestEngineSteadyStateAllocatesNothing(t *testing.T) {
	e := NewEngine()
	h := &countingHandler{}
	timer := e.NewTimer(func(Time) {})
	cycle := func() {
		for i := 0; i < 64; i++ {
			switch i % 4 {
			case 0:
				e.ScheduleCall(Time(i), h, 0, 0)
			case 1:
				e.ScheduleCallAtOrdered(e.Now()+7, h, 0, 0, uint64(64-i))
			case 2:
				e.ScheduleCall(2*wheelSize+Time(i), h, 0, 0)
			default:
				timer.Reset(Time(i))
			}
		}
		e.Run()
	}
	if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
		t.Errorf("a 64-event schedule/drain cycle allocates %v times", allocs)
	}

	hold := &holdModel{e: NewEngine(), rng: NewRNG(1)}
	for i := 0; i < 32_000; i++ {
		hold.e.ScheduleCall(hold.rng.ExpTime(Second), hold, 0, 0)
	}
	run := func() {
		hold.budget = 1_000_000
		hold.e.Run()
	}
	if allocs := testing.AllocsPerRun(1, run); allocs != 0 {
		t.Errorf("a 1M-event hold run at depth 32k allocates %v times", allocs)
	}
	if got := hold.e.Pending(); got != 32_000 {
		t.Fatalf("hold model depth drifted to %d", got)
	}
}

// TestShuffleMatchesPerm asserts the draw-compatibility contract
// between Shuffle and rand.Rand.Perm on twin streams: shuffling a slice
// in place leaves at m the element xs[perm[m]], for the permutation the
// same stream's Perm draws, and consumes the same draws.
func TestShuffleMatchesPerm(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 64, 513} {
		tw := newRNGTwin(99)
		perm := tw.ref.Perm(n)
		xs := make([]int32, n)
		for i := range xs {
			xs[i] = int32(3*i + 1)
		}
		got := append([]int32(nil), xs...)
		Shuffle(tw.got, got)
		for m := range perm {
			if got[m] != xs[perm[m]] {
				t.Fatalf("n=%d: Shuffle diverged from Perm indexing at %d", n, m)
			}
		}
		tw.samePosition(t, "the shuffle")
	}
}

// TestWeightedMatchesWeightedChoice asserts the precomputed sampler
// reproduces WeightedChoice's picks draw for draw, including zero
// weights and the same RNG stream consumption.
func TestWeightedMatchesWeightedChoice(t *testing.T) {
	weights := []float64{0, 0.3, 0, 0.25, 0.2, 0, 0.15, 0.1}
	w, err := NewWeighted(weights)
	if err != nil {
		t.Fatal(err)
	}
	a := NewRNG(7)
	b := NewRNG(7)
	for i := 0; i < 100_000; i++ {
		want, err := a.WeightedChoice(weights)
		if err != nil {
			t.Fatal(err)
		}
		if got := w.Sample(b); got != want {
			t.Fatalf("draw %d: Sample=%d WeightedChoice=%d", i, got, want)
		}
	}
	if _, err := NewWeighted([]float64{0, -1}); err == nil {
		t.Fatal("non-positive weights must error")
	}
	if _, err := NewWeighted(nil); err == nil {
		t.Fatal("empty weights must error")
	}
}

// TestWeightedDistribution checks the sampler's empirical frequencies
// track the weights (the distribution-preservation requirement for
// the mining pool switch-over).
func TestWeightedDistribution(t *testing.T) {
	weights := []float64{1, 2, 0, 5}
	w, err := NewWeighted(weights)
	if err != nil {
		t.Fatal(err)
	}
	g := NewRNG(11)
	counts := make([]int, len(weights))
	const n = 400_000
	for i := 0; i < n; i++ {
		counts[w.Sample(g)]++
	}
	if counts[2] != 0 {
		t.Fatalf("zero weight drawn %d times", counts[2])
	}
	total := 1.0 + 2 + 5
	for i, c := range counts {
		if weights[i] == 0 {
			continue
		}
		got := float64(c) / n
		want := weights[i] / total
		if got < want-0.01 || got > want+0.01 {
			t.Fatalf("index %d frequency %.4f, want ~%.4f", i, got, want)
		}
	}
}

// TestOrderedBandDrainOrder pins the ordered tie band's drain on the
// layouts its insert places by key stream (key>>48) — streams
// interleaved and ascending, more streams than it tracks, and a stream
// that arrived out of order — against plain key order.
func TestOrderedBandDrainOrder(t *testing.T) {
	cases := map[string][]uint64{}
	var merge, many, late []uint64
	for seq := uint64(0); seq < 8; seq++ {
		for src := uint64(0); src < 6; src++ {
			merge = append(merge, src<<48|seq)
		}
	}
	for seq := uint64(0); seq < 3; seq++ {
		for src := uint64(0); src < 2*ordStreams; src++ {
			many = append(many, src<<48|seq)
		}
	}
	late = append(late, merge...)
	late[7], late[19] = late[19], late[7] // stream 1 out of order
	cases["merge"], cases["many streams"], cases["out of order"] = merge, many, late
	for name, keys := range cases {
		e := NewEngine()
		var got []uint64
		h := handlerFunc(func(_ Time, key, _ uint64) { got = append(got, key) })
		for _, k := range keys {
			e.ScheduleCallAtOrdered(5, h, k, 0, k)
		}
		e.Run()
		want := slices.Sorted(slices.Values(keys))
		if !slices.Equal(got, want) {
			t.Errorf("%s: drained %x, want %x", name, got, want)
		}
	}
}
