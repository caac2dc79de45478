package sim

import (
	"runtime"
	"slices"
	"testing"
)

// settledGoroutines returns the goroutine count once it is no higher
// than want, yielding while exiting goroutines finish: a helper has
// signalled its exit a few instructions before it is gone.
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 10_000 && n > want; i++ {
		runtime.Gosched()
		n = runtime.NumGoroutine()
	}
	return n
}

// TestConductorLeavesNoGoroutine: Run starts its helpers and stops them
// before it returns — normally and when a lane panics.
func TestConductorLeavesNoGoroutine(t *testing.T) {
	for _, workers := range []int{1, 2, 6} {
		before := runtime.NumGoroutine()
		_, _, cs := runPingPong(6, workers)
		if cs.Windows == 0 {
			t.Fatal("ping-pong ran no window")
		}
		if n := settledGoroutines(before); n != before {
			t.Errorf("workers=%d: %d goroutines after Run, %d before", workers, n, before)
		}

		c := NewConductor(6)
		for r := 0; r < 6; r++ {
			c.Lane(r).Schedule(5, func(Time) {})
		}
		c.Lane(3).Schedule(5, func(Time) { panic("boom") })
		func() {
			defer func() {
				if _, ok := recover().(*LanePanic); !ok {
					t.Errorf("workers=%d: Run did not panic with a *LanePanic", workers)
				}
			}()
			c.Run(workers)
		}()
		if n := settledGoroutines(before); n != before {
			t.Errorf("workers=%d: %d goroutines after a lane panic, %d before", workers, n, before)
		}
	}
}

// TestConductorEachPanicIsLowestIndex: a panic in an Each job — the
// transport's back-date assertion in a merge, say — reaches Run's
// caller as the lowest panicking index's value whatever the worker
// timing, after every other job of the batch has run.
func TestConductorEachPanicIsLowestIndex(t *testing.T) {
	for _, workers := range []int{1, 2, 6} {
		c := NewConductor(6)
		c.Lane(0).Schedule(5, func(Time) {})
		ran := make([]bool, 6)
		c.Merge = func() int {
			c.Each(6, func(i int) {
				ran[i] = true
				if i == 2 || i == 4 {
					panic(i)
				}
			})
			return 0
		}
		var got any
		func() {
			defer func() { got = recover() }()
			c.Run(workers)
		}()
		if got != 2 {
			t.Fatalf("workers=%d: Run panicked with %v, want 2", workers, got)
		}
		if !slices.Equal(ran, []bool{true, true, true, true, true, true}) {
			t.Fatalf("workers=%d: jobs run %v, want all six", workers, ran)
		}
	}
}

// TestEachOutsideRunIsInline: outside Run, Each is a plain loop on the
// caller's goroutine, in index order.
func TestEachOutsideRunIsInline(t *testing.T) {
	var order []int
	NewConductor(3).Each(4, func(i int) { order = append(order, i) })
	if !slices.Equal(order, []int{0, 1, 2, 3}) {
		t.Fatalf("Each ran %v, want [0 1 2 3]", order)
	}
}

// TestCrewSpinsOnlyOnSpareProcessors: at most GOMAXPROCS−1 helpers may
// spin, worker 0 included only when there is a second processor, so
// workers > GOMAXPROCS never busy-waits against the workers that hold
// the processors.
func TestCrewSpinsOnlyOnSpareProcessors(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, tc := range []struct{ procs, workers, spinners int }{
		{1, 6, 0}, {2, 6, 1}, {2, 2, 1}, {4, 6, 3}, {4, 2, 1},
	} {
		runtime.GOMAXPROCS(tc.procs)
		cr := newCrew(tc.workers)
		spinners := 0
		for h := range cr.helpers {
			if cr.helpers[h].spin {
				spinners++
			}
		}
		cr.stop()
		if spinners != tc.spinners || cr.lead.spin != (tc.procs > 1) {
			t.Errorf("GOMAXPROCS=%d workers=%d: %d spinning helpers (lead %v), want %d (lead %v)",
				tc.procs, tc.workers, spinners, cr.lead.spin, tc.spinners, tc.procs > 1)
		}
	}
}
