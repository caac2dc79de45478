package geo

import (
	"math"
	"testing"

	"repro/internal/sim"
)

// refSample is LatencyModel.Sample as it was before the one-draw table
// sampler (latency model version 2), kept as the reference the sampler
// is pinned against: a standard normal through math.Exp for the
// jitter, then a Bernoulli draw for the retransmit.
func refSample(m LatencyModel, rng *sim.RNG, from, to Region, bytes int) sim.Time {
	base := baseOneWayMillis[from][to]
	jitter := 1.0
	if m.JitterSigma > 0 {
		jitter = math.Exp(0 + m.JitterSigma*rng.NormFloat64())
	}
	transfer := 0.0
	if m.BytesPerMillisecond > 0 && bytes > 0 {
		transfer = float64(bytes) / m.BytesPerMillisecond
	}
	d := base*jitter + transfer
	if m.RetransmitProb > 0 && rng.Bernoulli(m.RetransmitProb) {
		d += m.RetransmitPenaltyMillis + base
	}
	if f := m.minPairMillis(base); d < f {
		d = f
	}
	return sim.Time(d)
}

// refModels are the latency models the reference tests cover: the
// default, and the default with one knob moved.
func refModels() map[string]LatencyModel {
	with := func(f func(*LatencyModel)) LatencyModel {
		m := DefaultLatencyModel()
		f(&m)
		return m
	}
	return map[string]LatencyModel{
		"default":      DefaultLatencyModel(),
		"sigma=0":      with(func(m *LatencyModel) { m.JitterSigma = 0 }),
		"sigma=0.05":   with(func(m *LatencyModel) { m.JitterSigma = 0.05 }),
		"sigma=1":      with(func(m *LatencyModel) { m.JitterSigma = 1 }),
		"sigma=3":      with(func(m *LatencyModel) { m.JitterSigma = 3 }),
		"floor=0":      with(func(m *LatencyModel) { m.JitterFloor = 0 }),
		"retransmit=0": with(func(m *LatencyModel) { m.RetransmitProb = 0 }),
		"retransmit=1": with(func(m *LatencyModel) { m.RetransmitProb = 1 }),
	}
}

// delayHistogram counts delays per millisecond; quantile reads it as
// the sorted sample would be read.
type delayHistogram struct {
	count []int
	n     int
}

func (h *delayHistogram) add(d sim.Time) {
	for int(d) >= len(h.count) {
		h.count = append(h.count, 0)
	}
	h.count[d]++
	h.n++
}

// quantile returns the sample's element at rank ⌊q·n⌋ (0-based).
func (h *delayHistogram) quantile(q float64) sim.Time {
	rank, seen := int(q*float64(h.n)), 0
	for d, c := range h.count {
		if seen += c; seen > rank {
			return sim.Time(d)
		}
	}
	return sim.Time(len(h.count) - 1)
}

// TestSampleMatchesReference draws 10^6 delays per region pair from
// the default model through Sample and through the reference, each on
// its own stream, at a transaction message's size: the median, p90 and
// p99 of every pair must agree within 1 ms, and no sample may undercut
// the pair's floor. -short draws as many: 10^5 draws leave a p99 2-3 ms
// from the reference on some pairs.
func TestSampleMatchesReference(t *testing.T) {
	const draws = 1_000_000
	const size = 127
	m := DefaultLatencyModel()
	got, want := sim.NewRNG(11), sim.NewRNG(12)
	for _, from := range Regions() {
		for _, to := range Regions() {
			floor, _ := m.MinPairDelay(from, to)
			var table, ref delayHistogram
			for i := 0; i < draws; i++ {
				d, err := m.Sample(got, from, to, size)
				if err != nil {
					t.Fatal(err)
				}
				if d < floor {
					t.Fatalf("%v->%v draw %d: %v undercuts the floor %v", from, to, i, d, floor)
				}
				table.add(d)
				ref.add(refSample(m, want, from, to, size))
			}
			for _, q := range []float64{0.5, 0.9, 0.99} {
				g, w := table.quantile(q), ref.quantile(q)
				if g < w-1 || g > w+1 {
					t.Errorf("%v->%v q%.2f: Sample %v, reference %v", from, to, q, g, w)
				}
			}
		}
	}
}

// TestSampleRetransmitShare counts loss episodes, made unmistakable by
// a penalty no jitter reaches: their share of 10^6 draws must lie
// within 4 binomial standard deviations of RetransmitProb, and be
// exactly 0 at probability 0 and exactly 1 at probability 1.
func TestSampleRetransmitShare(t *testing.T) {
	const draws = 1_000_000
	const penalty = 1e6
	for _, p := range []float64{0, 0.001, 0.03, 0.5, 1} {
		m := DefaultLatencyModel()
		m.RetransmitProb, m.RetransmitPenaltyMillis = p, penalty
		rng := sim.NewRNG(5)
		lost := 0
		for i := 0; i < draws; i++ {
			d, err := m.Sample(rng, EasternAsia, SouthAmerica, 600)
			if err != nil {
				t.Fatal(err)
			}
			if d >= penalty {
				lost++
			}
		}
		sd := math.Sqrt(draws * p * (1 - p))
		if math.Abs(float64(lost)-draws*p) > 4*sd {
			t.Errorf("p=%v: %d of %d draws retransmitted, want %v ± %.1f", p, lost, draws, draws*p, 4*sd)
		}
	}
}

// TestSampleDrawsOneUint64 runs Sample beside a twin stream that draws
// one Uint64 per call, over every reference model, region pair and
// size: the two streams must end in the same state.
func TestSampleDrawsOneUint64(t *testing.T) {
	for name, m := range refModels() {
		got, twin := sim.NewRNG(3), sim.NewRNG(3)
		for _, from := range Regions() {
			for _, to := range Regions() {
				for _, size := range []int{0, 127, 40 << 10} {
					for i := 0; i < 50; i++ {
						if _, err := m.Sample(got, from, to, size); err != nil {
							t.Fatal(err)
						}
						twin.Uint64()
					}
				}
			}
		}
		if got.Uint64() != twin.Uint64() {
			t.Fatalf("%s: Sample did not draw exactly one Uint64 per call", name)
		}
	}
}
