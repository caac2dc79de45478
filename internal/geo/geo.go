// Package geo models the geographic substrate of the reproduction:
// world regions, an empirical inter-region latency matrix, log-normal
// jitter, bandwidth-derived transfer delays, and the NTP clock-offset
// model the paper quotes for its measurement error (§II).
//
// The paper's geographic findings (Figs. 2 and 3) are driven by the
// asymmetry of Internet backbone latencies between continents; this
// package encodes that asymmetry from published backbone RTT figures.
package geo

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/sim"
)

// Region is a coarse geographic area hosting nodes. The first four are
// the paper's measurement-node locations.
type Region int

// Regions of the simulated world.
const (
	NorthAmerica Region = iota + 1
	EasternAsia
	WesternEurope
	CentralEurope
	SouthAmerica
	Oceania
)

// NumRegions is the number of modeled regions.
const NumRegions = 6

// Regions lists every region in a stable order.
func Regions() []Region {
	return []Region{NorthAmerica, EasternAsia, WesternEurope, CentralEurope, SouthAmerica, Oceania}
}

// String returns the paper's abbreviation for the region.
func (r Region) String() string {
	switch r {
	case NorthAmerica:
		return "NA"
	case EasternAsia:
		return "EA"
	case WesternEurope:
		return "WE"
	case CentralEurope:
		return "CE"
	case SouthAmerica:
		return "SA"
	case Oceania:
		return "OC"
	default:
		return fmt.Sprintf("Region(%d)", int(r))
	}
}

// Name returns the paper's long region name.
func (r Region) Name() string {
	switch r {
	case NorthAmerica:
		return "North America"
	case EasternAsia:
		return "Eastern Asia"
	case WesternEurope:
		return "Western Europe"
	case CentralEurope:
		return "Central Europe"
	case SouthAmerica:
		return "South America"
	case Oceania:
		return "Oceania"
	default:
		return r.String()
	}
}

// Valid reports whether r is a known region.
func (r Region) Valid() bool {
	return r >= NorthAmerica && r <= Oceania
}

// baseOneWayMillis holds median one-way backbone delays between
// regions in milliseconds, derived from published inter-continent RTT
// measurements (RTT/2, rounded). Intra-region entries model national
// backbone hops.
var baseOneWayMillis = [NumRegions + 1][NumRegions + 1]float64{
	NorthAmerica:  {NorthAmerica: 15, EasternAsia: 75, WesternEurope: 45, CentralEurope: 55, SouthAmerica: 65, Oceania: 80},
	EasternAsia:   {NorthAmerica: 75, EasternAsia: 16, WesternEurope: 92, CentralEurope: 86, SouthAmerica: 140, Oceania: 60},
	WesternEurope: {NorthAmerica: 45, EasternAsia: 92, WesternEurope: 8, CentralEurope: 12, SouthAmerica: 95, Oceania: 140},
	CentralEurope: {NorthAmerica: 55, EasternAsia: 86, WesternEurope: 12, CentralEurope: 9, SouthAmerica: 105, Oceania: 135},
	SouthAmerica:  {NorthAmerica: 65, EasternAsia: 140, WesternEurope: 95, CentralEurope: 105, SouthAmerica: 25, Oceania: 145},
	Oceania:       {NorthAmerica: 80, EasternAsia: 60, WesternEurope: 140, CentralEurope: 135, SouthAmerica: 145, Oceania: 20},
}

// DefaultNodeShare is the fraction of network nodes hosted in each
// region, following the Ethereum peer geolocation shares reported by
// Kim et al. (IMC'18): North America and Europe dominate the node
// population even though Asian pools dominate the hashrate.
var DefaultNodeShare = map[Region]float64{
	NorthAmerica:  0.36,
	EasternAsia:   0.17,
	WesternEurope: 0.22,
	CentralEurope: 0.15,
	SouthAmerica:  0.05,
	Oceania:       0.05,
}

// LatencyModel converts a (from, to, message size) triple into a
// one-way delay sample. It combines the backbone base delay, a
// log-normal jitter factor, and a bandwidth-proportional transfer
// term.
type LatencyModel struct {
	// JitterSigma is the sigma of the log-normal jitter multiplier
	// applied to the base delay (mu=0 so the multiplier's median is
	// 1.0).
	JitterSigma float64
	// JitterFloor clamps the final sampled delay from below at
	// JitterFloor × base(from, to): no sample may undercut that
	// fraction of the pair's median backbone delay. A log-normal
	// multiplier is unbounded below, so without this clamp the only
	// latency every pair is guaranteed to pay is MinDelayMillis —
	// which is also the only per-pair lower bound the sharded
	// conductor could assume for its lookahead. The clamp is what
	// makes MinPairDelay (and therefore a topology-aware lookahead
	// bound) non-trivial. Zero disables the clamp; the effective
	// floor is always max(MinDelayMillis, JitterFloor × base).
	JitterFloor float64
	// BytesPerMillisecond models last-mile/backbone throughput. The
	// paper's measurement hosts had >= 8 Gbps; typical full nodes are
	// far slower, dominating block transfer time. 1250 B/ms = 10 Mbps.
	BytesPerMillisecond float64
	// MinDelayMillis is a floor on any hop (kernel + software stack).
	MinDelayMillis float64
	// RetransmitProb is the per-message probability of a TCP loss
	// episode: the message is not dropped (TCP retransmits) but pays
	// RetransmitPenaltyMillis plus another base delay. This produces
	// the heavy right tail of real one-way delays (the paper's Fig. 1
	// p99 of 317 ms against a 74 ms median).
	RetransmitProb float64
	// RetransmitPenaltyMillis approximates a retransmission timeout.
	RetransmitPenaltyMillis float64
}

// DefaultLatencyModel returns the model used by all experiments unless
// overridden.
func DefaultLatencyModel() LatencyModel {
	return LatencyModel{
		JitterSigma:             0.25,
		JitterFloor:             0.25,
		BytesPerMillisecond:     1250, // 10 Mbps
		MinDelayMillis:          1,
		RetransmitProb:          0.03,
		RetransmitPenaltyMillis: 180,
	}
}

// BaseDelay returns the median one-way backbone delay between two
// regions, without jitter or transfer time.
func BaseDelay(from, to Region) (sim.Time, error) {
	if !from.Valid() || !to.Valid() {
		return 0, fmt.Errorf("geo: invalid region pair (%v, %v)", from, to)
	}
	return sim.Time(baseOneWayMillis[from][to]), nil
}

// Sample draws a one-way delay for a message of size bytes from one
// region to another. It returns an error on invalid regions; otherwise
// it draws exactly one rng.Uint64() and hands it to sampleAt.
func (m LatencyModel) Sample(rng *sim.RNG, from, to Region, bytes int) (sim.Time, error) {
	if !from.Valid() || !to.Valid() {
		return 0, fmt.Errorf("geo: invalid region pair (%v, %v)", from, to)
	}
	return m.sampleAt(baseOneWayMillis[from][to], bytes, rng.Uint64()), nil
}

// sampleAt is Sample after its draw u, for a pair of the given base
// delay. The high 32 bits of u pick the jitter multiplier's quantile
// (jitterTable.at); the low 32 bits decide the retransmit, which
// happens when they fall below RetransmitProb·2³² (never at 0, always
// at 1). The delay is
//
//	max(base·jitter + transfer [+ penalty + base], floor)
//
// truncated to sim.Time. The clamp mirrors minPairMillis exactly, so
// MinPairDelay is a true lower bound on every sample.
func (m LatencyModel) sampleAt(base float64, bytes int, u uint64) sim.Time {
	jitter := 1.0
	if m.JitterSigma > 0 {
		jitter = jitterFor(m.JitterSigma).at(uint32(u >> 32))
	}
	d := base * jitter
	if m.BytesPerMillisecond > 0 && bytes > 0 {
		d += float64(bytes) / m.BytesPerMillisecond
	}
	if float64(uint32(u)) < m.RetransmitProb*0x1p32 {
		// One loss episode: RTO plus a fresh traversal of the path.
		d += m.RetransmitPenaltyMillis + base
	}
	if f := m.minPairMillis(base); d < f {
		d = f
	}
	return sim.Time(d)
}

// jitterBits is log2 of the jitter table's cell count: 4,096 cells,
// whose knots take 32 KB.
const jitterBits = 12

// jitterTable is the inverse CDF of the log-normal jitter multiplier
// exp(σ·Z), Z standard normal, for one σ: knot[i] is its value at the
// quantile i/2^jitterBits (knot[0] is unused).
type jitterTable struct {
	sigma float64
	knot  [1 << jitterBits]float64
}

// newJitterTable builds the table of one σ.
func newJitterTable(sigma float64) *jitterTable {
	t := &jitterTable{sigma: sigma}
	for i := 1; i < len(t.knot); i++ {
		t.knot[i] = t.exact(float64(i) / (1 << jitterBits))
	}
	return t
}

// exact is the multiplier at quantile q: exp(σ·Φ⁻¹(q)).
func (t *jitterTable) exact(q float64) float64 {
	return math.Exp(t.sigma * math.Sqrt2 * math.Erfinv(2*q-1))
}

// at is the multiplier at the quantile (h + 1/2)/2³². Inside the table
// it interpolates linearly between the cell's two knots, which keeps it
// nondecreasing in h; the two end cells, where the quantile function
// runs off to 0 and to infinity, are computed exactly, so neither tail
// is truncated.
func (t *jitterTable) at(h uint32) float64 {
	const cellBits = 32 - jitterBits
	i := h >> cellBits
	if i == 0 || i == 1<<jitterBits-1 {
		return t.exact((float64(h) + 0.5) * 0x1p-32)
	}
	f := (float64(h&(1<<cellBits-1)) + 0.5) * (1.0 / (1 << cellBits))
	return t.knot[i] + f*(t.knot[i+1]-t.knot[i])
}

// defaultJitter is the default model's table, built once at start-up;
// lastJitter caches the table of the last other σ asked for.
var (
	defaultJitter = newJitterTable(DefaultLatencyModel().JitterSigma)
	lastJitter    atomic.Pointer[jitterTable]
)

// jitterFor returns the table of σ, building it if it is neither the
// default's nor the last one built.
func jitterFor(sigma float64) *jitterTable {
	if sigma == defaultJitter.sigma {
		return defaultJitter
	}
	if t := lastJitter.Load(); t != nil && t.sigma == sigma {
		return t
	}
	t := newJitterTable(sigma)
	lastJitter.Store(t)
	return t
}

// minPairMillis is the effective per-pair floor in milliseconds for a
// given base delay: max(MinDelayMillis, JitterFloor × base).
func (m LatencyModel) minPairMillis(base float64) float64 {
	f := m.MinDelayMillis
	if jf := m.JitterFloor * base; jf > f {
		f = jf
	}
	return f
}

// MinPairDelay returns the smallest delay Sample can return for the
// region pair: max(MinDelayMillis, JitterFloor × base(from, to)),
// truncated to sim.Time exactly as Sample truncates its result. The
// jitter clamp enforces the floor directly; the transfer and
// retransmit terms only ever add delay, so they cannot undercut it.
// This is the quantity the sharded conductor may soundly use as a
// cross-lane lookahead bound.
func (m LatencyModel) MinPairDelay(from, to Region) (sim.Time, error) {
	if !from.Valid() || !to.Valid() {
		return 0, fmt.Errorf("geo: invalid region pair (%v, %v)", from, to)
	}
	return sim.Time(m.minPairMillis(baseOneWayMillis[from][to])), nil
}

// PlaceNodes assigns n nodes to regions proportionally to share,
// deterministically (largest-remainder apportionment) so a campaign's
// topology depends only on its configuration, not on RNG draws.
func PlaceNodes(n int, share map[Region]float64) ([]Region, error) {
	if n < 0 {
		return nil, fmt.Errorf("geo: negative node count %d", n)
	}
	regions := Regions()
	var total float64
	for _, r := range regions {
		if share[r] < 0 {
			return nil, fmt.Errorf("geo: negative share for %v", r)
		}
		total += share[r]
	}
	if total <= 0 {
		return nil, fmt.Errorf("geo: no positive region share")
	}
	counts := make([]int, len(regions))
	remainders := make([]float64, len(regions))
	assigned := 0
	for i, r := range regions {
		exact := float64(n) * share[r] / total
		counts[i] = int(exact)
		remainders[i] = exact - float64(counts[i])
		assigned += counts[i]
	}
	for assigned < n {
		best := 0
		for i := 1; i < len(regions); i++ {
			if remainders[i] > remainders[best] {
				best = i
			}
		}
		counts[best]++
		remainders[best] = -1
		assigned++
	}
	out := make([]Region, 0, n)
	for i, r := range regions {
		for k := 0; k < counts[i]; k++ {
			out = append(out, r)
		}
	}
	return out, nil
}
