package geo

import (
	"math"
	"sort"
	"testing"

	"repro/internal/sim"
)

// TestSampleEdgeCases pins LatencyModel.Sample's boundary behavior:
// same-region hops, zero-size messages, disabled knobs, invalid
// regions and the floor.
func TestSampleEdgeCases(t *testing.T) {
	det := LatencyModel{MinDelayMillis: 1} // no jitter, no transfer, no loss
	cases := []struct {
		name     string
		model    LatencyModel
		from, to Region
		bytes    int
		want     sim.Time // exact expectation for deterministic models; <0 = error expected
	}{
		{"same region deterministic", det, WesternEurope, WesternEurope, 0, 8},
		{"cross region deterministic", det, EasternAsia, SouthAmerica, 0, 140},
		{"asymmetric pair matches matrix", det, NorthAmerica, Oceania, 0, 80},
		{"zero-size message pays no transfer", LatencyModel{BytesPerMillisecond: 1, MinDelayMillis: 1}, NorthAmerica, NorthAmerica, 0, 15},
		{"transfer term adds bytes/rate", LatencyModel{BytesPerMillisecond: 100, MinDelayMillis: 1}, NorthAmerica, NorthAmerica, 1000, 25},
		{"negative size ignored", LatencyModel{BytesPerMillisecond: 100, MinDelayMillis: 1}, NorthAmerica, NorthAmerica, -500, 15},
		{"floor clamps small delays", LatencyModel{MinDelayMillis: 50}, WesternEurope, WesternEurope, 0, 50},
		{"invalid from", det, Region(0), WesternEurope, 0, -1},
		{"invalid to", det, WesternEurope, Region(99), 0, -1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := sim.NewRNG(42)
			got, err := tc.model.Sample(rng, tc.from, tc.to, tc.bytes)
			if tc.want < 0 {
				if err == nil {
					t.Fatalf("want error, got %v", got)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.want {
				t.Fatalf("Sample(%v->%v, %d bytes) = %v, want %v", tc.from, tc.to, tc.bytes, got, tc.want)
			}
		})
	}
}

// TestSampleJitterBounds checks the jitter multiplier's shape: every
// sample respects the floor, the sample median sits near the base
// delay (the log-normal multiplier has median 1), and spread grows
// with sigma.
func TestSampleJitterBounds(t *testing.T) {
	const n = 20000
	base, err := BaseDelay(WesternEurope, CentralEurope)
	if err != nil {
		t.Fatal(err)
	}
	sampleAll := func(sigma float64) []float64 {
		rng := sim.NewRNG(99)
		m := LatencyModel{JitterSigma: sigma, MinDelayMillis: 1}
		out := make([]float64, n)
		for i := range out {
			d, err := m.Sample(rng, WesternEurope, CentralEurope, 0)
			if err != nil {
				t.Fatal(err)
			}
			if d < 1 {
				t.Fatalf("sample %v under the 1 ms floor", d)
			}
			out[i] = float64(d)
		}
		return out
	}
	spread := func(xs []float64) (median, sd float64) {
		var sum, sq float64
		for _, x := range xs {
			sum += x
		}
		mean := sum / float64(len(xs))
		for _, x := range xs {
			sq += (x - mean) * (x - mean)
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		return sorted[len(sorted)/2], math.Sqrt(sq / float64(len(xs)))
	}
	narrowMedian, narrowSD := spread(sampleAll(0.1))
	wideMedian, wideSD := spread(sampleAll(0.5))
	for name, med := range map[string]float64{"narrow": narrowMedian, "wide": wideMedian} {
		if med < 0.85*float64(base) || med > 1.15*float64(base) {
			t.Fatalf("%s jitter median %v strays from base %v", name, med, base)
		}
	}
	if wideSD <= narrowSD {
		t.Fatalf("spread must grow with sigma: sd(0.5)=%v <= sd(0.1)=%v", wideSD, narrowSD)
	}
}

// TestMinPairDelayIsTightLowerBound is the property test backing the
// sharded conductor's lookahead soundness: over adversarial model
// configurations — jitter sigma from zero to extreme, floors off and
// dominant, retransmission forced on, transfer terms on and off — no
// Sample for any region pair may ever undercut MinPairDelay for that
// pair. The conductor turns MinPairDelay into phase-B deadlines; one
// undercutting sample would back-date a cross-lane event.
func TestMinPairDelayIsTightLowerBound(t *testing.T) {
	models := []struct {
		name string
		m    LatencyModel
	}{
		{"default", DefaultLatencyModel()},
		{"no jitter", LatencyModel{MinDelayMillis: 1, JitterFloor: 0.25}},
		{"extreme sigma", LatencyModel{JitterSigma: 3.0, JitterFloor: 0.25, MinDelayMillis: 1}},
		{"floor disabled", LatencyModel{JitterSigma: 1.5, MinDelayMillis: 1}},
		{"floor dominant", LatencyModel{JitterSigma: 2.0, JitterFloor: 1.5, MinDelayMillis: 1}},
		{"min-delay dominant", LatencyModel{JitterSigma: 0.5, JitterFloor: 0.01, MinDelayMillis: 40}},
		{"retransmit always", LatencyModel{JitterSigma: 1.0, JitterFloor: 0.25, MinDelayMillis: 1, RetransmitProb: 1, RetransmitPenaltyMillis: 180}},
		{"transfer heavy", LatencyModel{JitterSigma: 1.0, JitterFloor: 0.25, MinDelayMillis: 1, BytesPerMillisecond: 10}},
		{"everything on", LatencyModel{JitterSigma: 2.5, JitterFloor: 0.6, MinDelayMillis: 3, BytesPerMillisecond: 1250, RetransmitProb: 0.5, RetransmitPenaltyMillis: 90}},
	}
	sizes := []int{0, 1, 100_000}
	const perPair = 400
	for _, tc := range models {
		t.Run(tc.name, func(t *testing.T) {
			rng := sim.NewRNG(1234)
			for _, from := range Regions() {
				for _, to := range Regions() {
					floor, err := tc.m.MinPairDelay(from, to)
					if err != nil {
						t.Fatal(err)
					}
					if floor < sim.Time(tc.m.MinDelayMillis) {
						t.Fatalf("MinPairDelay(%v,%v)=%v under MinDelayMillis %v",
							from, to, floor, tc.m.MinDelayMillis)
					}
					for _, size := range sizes {
						for i := 0; i < perPair; i++ {
							d, err := tc.m.Sample(rng, from, to, size)
							if err != nil {
								t.Fatal(err)
							}
							if d < floor {
								t.Fatalf("Sample(%v->%v, %d bytes) = %v undercuts MinPairDelay %v (model %s, draw %d)",
									from, to, size, d, floor, tc.name, i)
							}
						}
					}
				}
			}
		})
	}
}

// TestMinPairDelayDefaultWidensLookahead pins the concrete bound the
// tentpole is about: under the default model the NA->EA floor is 18 ms
// (0.25 x 75), not the uniform 1 ms the conductor assumed before
// per-pair bounds.
func TestMinPairDelayDefaultWidensLookahead(t *testing.T) {
	m := DefaultLatencyModel()
	d, err := m.MinPairDelay(NorthAmerica, EasternAsia)
	if err != nil {
		t.Fatal(err)
	}
	if d != 18 {
		t.Fatalf("NA->EA MinPairDelay = %v, want 18 (0.25 x 75 ms truncated)", d)
	}
	// Intra-region floors stay above the global 1 ms minimum too.
	d, err = m.MinPairDelay(WesternEurope, WesternEurope)
	if err != nil {
		t.Fatal(err)
	}
	if d != 2 {
		t.Fatalf("WE->WE MinPairDelay = %v, want 2 (0.25 x 8 ms)", d)
	}
	if _, err := m.MinPairDelay(Region(0), NorthAmerica); err == nil {
		t.Fatal("MinPairDelay accepted an invalid region")
	}
}

// FuzzSampleFloor feeds sampleAt arbitrary draws u for σ in [0, 3],
// every region pair and any size: no delay may undercut MinPairDelay,
// and with the low 32 bits (the retransmit) fixed neither the jitter
// multiplier nor the delay may decrease as the high 32 bits (the
// quantile) rise by step — mostly within one table cell, sometimes
// across a knot.
func FuzzSampleFloor(f *testing.F) {
	f.Add(uint64(0), uint16(1), 0.25, uint8(0), uint8(1), uint32(127))
	f.Add(^uint64(0)>>1, uint16(1<<15), 3.0, uint8(5), uint8(5), uint32(0))
	f.Add(uint64(1)<<52-1, uint16(0xffff), 1.0, uint8(2), uint8(3), uint32(40<<10))
	f.Fuzz(func(t *testing.T, u uint64, step uint16, sigma float64, from, to uint8, bytes uint32) {
		if !(sigma >= 0 && sigma <= 3) {
			t.Skip()
		}
		m := DefaultLatencyModel()
		m.JitterSigma = sigma
		rf, rt := Regions()[from%NumRegions], Regions()[to%NumRegions]
		base := baseOneWayMillis[rf][rt]
		floor, err := m.MinPairDelay(rf, rt)
		if err != nil {
			t.Fatal(err)
		}
		d := m.sampleAt(base, int(bytes), u)
		if d < floor {
			t.Fatalf("%v->%v σ=%v u=%#x: delay %v undercuts MinPairDelay %v", rf, rt, sigma, u, d, floor)
		}
		h := uint32(u >> 32)
		hi := uint32(min(uint64(h)+uint64(step), math.MaxUint32))
		if sigma > 0 {
			if tb := jitterFor(sigma); tb.at(hi) < tb.at(h) {
				t.Fatalf("σ=%v: multiplier fell from %v to %v as the quantile rose %#x -> %#x", sigma, tb.at(h), tb.at(hi), h, hi)
			}
		}
		if up := m.sampleAt(base, int(bytes), uint64(hi)<<32|u&math.MaxUint32); up < d {
			t.Fatalf("%v->%v σ=%v: delay fell from %v to %v as the quantile rose %#x -> %#x", rf, rt, sigma, d, up, h, hi)
		}
	})
}

// BenchmarkSample is one default-model draw, cycled over every region
// pair at a transaction message's and a block's size.
func BenchmarkSample(b *testing.B) {
	m := DefaultLatencyModel()
	rng := sim.NewRNG(1)
	regions := Regions()
	for i := 0; i < b.N; i++ {
		if _, err := m.Sample(rng, regions[i%NumRegions], regions[(i/NumRegions)%NumRegions], 127+(i&1)*40<<10); err != nil {
			b.Fatal(err)
		}
	}
}
