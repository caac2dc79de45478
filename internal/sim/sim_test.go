package sim

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestTimeConversions(t *testing.T) {
	if Second != 1000 || Minute != 60000 || Hour != 3600000 {
		t.Fatal("time constants wrong")
	}
	if (2 * Second).Duration() != 2*time.Second {
		t.Fatal("duration conversion wrong")
	}
	if (1500 * Millisecond).Seconds() != 1.5 {
		t.Fatal("seconds conversion wrong")
	}
	if (Second).String() != "1s" {
		t.Fatalf("string: %q", Second.String())
	}
}

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(30, func(Time) { order = append(order, 3) })
	e.Schedule(10, func(Time) { order = append(order, 1) })
	e.Schedule(20, func(Time) { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order: %v", order)
	}
	if e.Now() != 30 {
		t.Fatalf("clock: %v", e.Now())
	}
	if e.Processed() != 3 {
		t.Fatalf("processed: %d", e.Processed())
	}
}

func TestEngineFIFOTies(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		e.Schedule(5, func(Time) { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie order not FIFO at %d: %v", i, v)
		}
	}
}

// TestEngineOrderedTies pins the ordered-band contract: at an equal
// timestamp, every FIFO-scheduled event runs before every ordered
// event, and ordered events run in ascending key order no matter what
// order the ScheduleCallAtOrdered calls arrived in.
func TestEngineOrderedTies(t *testing.T) {
	e := NewEngine()
	var order []uint64
	h := handlerFunc(func(_ Time, a, _ uint64) { order = append(order, a) })
	// Ordered events submitted with shuffled keys, before the FIFO ones.
	for _, key := range []uint64{40, 10, 30, 20} {
		e.ScheduleCallAtOrdered(5, h, 100+key, 0, key)
	}
	e.ScheduleCallAt(5, h, 1, 0)
	e.ScheduleCallAt(5, h, 2, 0)
	e.Run()
	want := []uint64{1, 2, 110, 120, 130, 140}
	if len(order) != len(want) {
		t.Fatalf("ran %d events, want %d: %v", len(order), len(want), order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("tie order: got %v, want %v", order, want)
		}
	}
	if e.Stats().Scheduled != 6 {
		t.Fatalf("scheduled: %d, want 6", e.Stats().Scheduled)
	}
}

// TestEngineOrderedPastClamp mirrors the FIFO clamp: an ordered event
// aimed at the past runs at the current clock, never before it.
func TestEngineOrderedPastClamp(t *testing.T) {
	e := NewEngine()
	var got Time
	h := handlerFunc(func(now Time, _, _ uint64) { got = now })
	e.Schedule(50, func(now Time) {
		e.ScheduleCallAtOrdered(10, h, 0, 0, 1)
	})
	e.Run()
	if got != 50 {
		t.Fatalf("clamped ordered event ran at %d, want 50", got)
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var fired []Time
	e.Schedule(10, func(now Time) {
		fired = append(fired, now)
		e.Schedule(5, func(now Time) {
			fired = append(fired, now)
		})
	})
	e.Run()
	if len(fired) != 2 || fired[0] != 10 || fired[1] != 15 {
		t.Fatalf("fired: %v", fired)
	}
}

func TestEngineNegativeDelayClamped(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, func(now Time) {
		e.Schedule(-100, func(inner Time) {
			if inner < now {
				t.Errorf("event ran in the past: %v < %v", inner, now)
			}
		})
	})
	e.Run()
}

func TestEngineNilEventIgnored(t *testing.T) {
	e := NewEngine()
	e.Schedule(1, nil)
	e.Run()
	if e.Processed() != 0 {
		t.Fatal("nil event should be ignored")
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 0; i < 10; i++ {
		e.Schedule(Time(i), func(Time) {
			count++
			if count == 3 {
				e.Stop()
			}
		})
	}
	e.Run()
	if count != 3 {
		t.Fatalf("want 3 events before stop, got %d", count)
	}
	if e.Pending() != 7 {
		t.Fatalf("pending: %d", e.Pending())
	}
	// A later Run resumes.
	e.Run()
	if count != 10 {
		t.Fatalf("resume: %d", count)
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, at := range []Time{5, 10, 15, 20} {
		at := at
		e.Schedule(at, func(now Time) { fired = append(fired, now) })
	}
	e.RunUntil(12)
	if len(fired) != 2 {
		t.Fatalf("fired: %v", fired)
	}
	if e.Now() != 12 {
		t.Fatalf("clock should advance to deadline: %v", e.Now())
	}
	e.RunFor(8)
	if len(fired) != 4 || e.Now() != 20 {
		t.Fatalf("fired %v now %v", fired, e.Now())
	}
}

func TestScheduleAt(t *testing.T) {
	e := NewEngine()
	var at Time = -1
	e.ScheduleAt(50, func(now Time) { at = now })
	e.Run()
	if at != 50 {
		t.Fatalf("at: %v", at)
	}
	// Past absolute times clamp to now.
	e.ScheduleAt(10, func(now Time) { at = now })
	e.Run()
	if at != 50 {
		t.Fatalf("past event should run at now: %v", at)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must yield same stream")
		}
	}
	c := NewRNG(43)
	same := true
	a2 := NewRNG(42)
	for i := 0; i < 10; i++ {
		if a2.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds should differ")
	}
}

func TestRNGForkIndependence(t *testing.T) {
	// Forks with different labels from identical parents must produce
	// different streams; identical labels identical streams.
	p1 := NewRNG(7)
	p2 := NewRNG(7)
	f1 := p1.Fork("mining")
	f2 := p2.Fork("mining")
	if f1.Uint64() != f2.Uint64() {
		t.Fatal("same label fork must match")
	}
	p3 := NewRNG(7)
	g := p3.Fork("network")
	h := NewRNG(7).Fork("mining")
	if g.Uint64() == h.Uint64() {
		t.Fatal("different label forks should differ")
	}
}

func TestExponentialMean(t *testing.T) {
	g := NewRNG(1)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += g.Exponential(13300)
	}
	mean := sum / n
	if math.Abs(mean-13300) > 200 {
		t.Fatalf("exponential mean: want ~13300, got %v", mean)
	}
	if g.Exponential(0) != 0 || g.Exponential(-1) != 0 {
		t.Fatal("non-positive mean must return 0")
	}
}

func TestExpTimeNonNegative(t *testing.T) {
	g := NewRNG(2)
	for i := 0; i < 1000; i++ {
		if d := g.ExpTime(100); d < 0 {
			t.Fatal("negative exponential time")
		}
	}
}

func TestBernoulli(t *testing.T) {
	g := NewRNG(3)
	if g.Bernoulli(0) || g.Bernoulli(-1) {
		t.Fatal("p<=0 must be false")
	}
	if !g.Bernoulli(1) || !g.Bernoulli(2) {
		t.Fatal("p>=1 must be true")
	}
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if g.Bernoulli(0.3) {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.3) > 0.01 {
		t.Fatalf("bernoulli(0.3): got %v", frac)
	}
}

func TestZipfSkew(t *testing.T) {
	g := NewRNG(5)
	counts := make([]int, 10)
	z := NewZipf(g, 10, 1.2)
	for i := 0; i < 50000; i++ {
		counts[z.Sample()]++
	}
	if counts[0] <= counts[9] {
		t.Fatalf("zipf not skewed: first %d last %d", counts[0], counts[9])
	}
	if NewZipf(g, 1, 1.2).Sample() != 0 || NewZipf(g, 0, 1.2).Sample() != 0 {
		t.Fatal("degenerate zipf must return 0")
	}
}

func TestWeightedChoice(t *testing.T) {
	g := NewRNG(6)
	counts := make([]int, 3)
	weights := []float64{1, 0, 3}
	for i := 0; i < 40000; i++ {
		idx, err := g.WeightedChoice(weights)
		if err != nil {
			t.Fatal(err)
		}
		counts[idx]++
	}
	if counts[1] != 0 {
		t.Fatalf("zero weight drawn %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if ratio < 2.6 || ratio > 3.4 {
		t.Fatalf("weight ratio: want ~3, got %v", ratio)
	}
	if _, err := g.WeightedChoice([]float64{0, 0}); err == nil {
		t.Fatal("all-zero weights must error")
	}
	if _, err := g.WeightedChoice(nil); err == nil {
		t.Fatal("empty weights must error")
	}
}

func TestWeightedChoiceInRangeProperty(t *testing.T) {
	f := func(seed uint64, raw []float64) bool {
		g := NewRNG(seed)
		weights := make([]float64, len(raw))
		anyPositive := false
		for i, w := range raw {
			w = math.Abs(w)
			if math.IsInf(w, 0) || math.IsNaN(w) {
				w = 1
			}
			weights[i] = w
			if w > 0 {
				anyPositive = true
			}
		}
		idx, err := g.WeightedChoice(weights)
		if !anyPositive {
			return err != nil
		}
		return err == nil && idx >= 0 && idx < len(weights) && weights[idx] > 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestShuffleAndPerm(t *testing.T) {
	g := NewRNG(8)
	xs := []int{1, 2, 3, 4, 5}
	Shuffle(g, xs)
	if len(xs) != 5 {
		t.Fatal("shuffle changed length")
	}
	seen := map[int]bool{}
	for _, x := range xs {
		seen[x] = true
	}
	for i := 1; i <= 5; i++ {
		if !seen[i] {
			t.Fatalf("shuffle lost element %d", i)
		}
	}
	p := g.Perm(4)
	seenIdx := map[int]bool{}
	for _, x := range p {
		seenIdx[x] = true
	}
	if len(seenIdx) != 4 {
		t.Fatalf("perm not a permutation: %v", p)
	}
}

func TestEngineDeterministicReplay(t *testing.T) {
	run := func() []Time {
		e := NewEngine()
		g := NewRNG(99)
		var out []Time
		var tick func(Time)
		count := 0
		tick = func(now Time) {
			out = append(out, now)
			count++
			if count < 50 {
				e.Schedule(g.ExpTime(100), tick)
			}
		}
		e.Schedule(0, tick)
		e.Run()
		return out
	}
	a := run()
	b := run()
	if len(a) != len(b) {
		t.Fatal("replay length mismatch")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}
