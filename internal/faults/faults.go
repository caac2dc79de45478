// Package faults injects dependability events into running campaigns:
// node crash/recover cycles whose recovered nodes redial uniformly
// sampled live peers, region-level network partitions that heal,
// per-link message loss and latency degradation layered over the
// geographic model, and continuous peer churn (nodes joining and
// leaving the overlay).
//
// The source paper measures Ethereum's overlay only while healthy;
// this package opens the degraded-network scenario families (specs
// D1-D3, scenario files with a "faults" block). Every fault schedule
// derives from a dedicated fork of the campaign seed, so faulted
// campaigns inherit the repository's determinism contract unchanged:
// byte-identical artifacts at any -parallel setting.
package faults

import (
	"errors"
	"fmt"

	"repro/internal/geo"
	"repro/internal/sim"
)

// Fault errors, returned by the link filter and surfaced through
// p2p's MessagesDropped accounting.
var (
	// ErrPartitioned reports a send crossing an active partition.
	ErrPartitioned = errors.New("faults: link crosses an active partition")
	// ErrLinkLoss reports a send dropped by the loss model.
	ErrLinkLoss = errors.New("faults: message lost")
)

// Config describes every fault class a campaign injects. A nil section
// disables that class; at least one must be set.
type Config struct {
	// Crash drives the crash/recover process.
	Crash *Crash
	// Partitions lists region-level splits with fixed start/heal times.
	Partitions []Partition
	// Loss degrades individual links.
	Loss *Loss
	// Churn drives continuous joins and departures.
	Churn *Churn
}

// Crash configures the crash/recover process: at exponential
// intervals a uniformly chosen eligible node goes down, and recovers
// after an exponential outage, redialing `degree` uniformly sampled
// live peers.
type Crash struct {
	// MeanBetween is the mean interval between crash events across the
	// whole overlay.
	MeanBetween sim.Time
	// MeanDowntime is the mean outage duration.
	MeanDowntime sim.Time
	// MaxCrashes bounds total crash events (0 = unlimited until the
	// campaign's workload completes).
	MaxCrashes int
}

// Partition is one scheduled region-level split: the listed regions
// form one side, the rest of the world the other. While active, every
// transport send crossing the cut is dropped and inter-pool head
// visibility across it is deferred until the heal.
type Partition struct {
	// Start is when the split begins.
	Start sim.Time
	// Duration is how long it lasts; the partition heals at
	// Start+Duration.
	Duration sim.Time
	// Regions is the isolated side (non-empty, not the whole world).
	Regions []geo.Region
}

// End returns the heal time.
func (p Partition) End() sim.Time { return p.Start + p.Duration }

// Active reports whether the partition is in force at now.
func (p Partition) Active(now sim.Time) bool {
	return now >= p.Start && now < p.End()
}

// isolates reports whether the region is on the partition's listed
// side.
func (p Partition) isolates(r geo.Region) bool {
	for _, pr := range p.Regions {
		if pr == r {
			return true
		}
	}
	return false
}

// Separates reports whether the partition puts the two regions on
// opposite sides of the cut.
func (p Partition) Separates(a, b geo.Region) bool {
	return p.isolates(a) != p.isolates(b)
}

// Loss configures per-link degradation applied to every surviving
// send: an independent drop probability (overlay-level outages, not
// the TCP retransmits geo already models) and an additional
// exponential delay.
type Loss struct {
	// DropProb is the per-message drop probability in [0, 1].
	DropProb float64
	// ExtraDelayMean is the mean of an exponential extra delay added
	// to every delivered message (0 disables).
	ExtraDelayMean sim.Time
}

// Churn configures continuous overlay membership change: at
// exponential intervals a node either joins (a fresh node dials
// `degree` uniformly sampled live peers) or leaves permanently.
type Churn struct {
	// MeanBetween is the mean interval between churn events.
	MeanBetween sim.Time
	// JoinFraction is the probability an event is a join rather than a
	// leave (nil = 0.5, holding the expected overlay size steady).
	JoinFraction *float64
	// MaxEvents bounds total churn events (0 = unlimited until the
	// campaign's workload completes).
	MaxEvents int
}

// joinFraction resolves the effective join probability.
func (c *Churn) joinFraction() float64 {
	if c.JoinFraction == nil {
		return 0.5
	}
	return *c.JoinFraction
}

// Enabled reports whether any fault class is configured.
func (c *Config) Enabled() bool {
	return c != nil && (c.Crash != nil || len(c.Partitions) > 0 || c.Loss != nil || c.Churn != nil)
}

// Validate checks every schedule invariant the injector relies on.
func (c *Config) Validate() error {
	if c == nil {
		return nil
	}
	if !c.Enabled() {
		return errors.New("faults: config enables no fault class")
	}
	if cr := c.Crash; cr != nil {
		if cr.MeanBetween <= 0 {
			return fmt.Errorf("faults: crash mean_between %v must be > 0", cr.MeanBetween)
		}
		if cr.MeanDowntime <= 0 {
			return fmt.Errorf("faults: crash mean_downtime %v must be > 0", cr.MeanDowntime)
		}
		if cr.MaxCrashes < 0 {
			return fmt.Errorf("faults: negative max_crashes %d", cr.MaxCrashes)
		}
	}
	for i, p := range c.Partitions {
		if p.Start < 0 {
			return fmt.Errorf("faults: partition %d starts at negative time %v", i, p.Start)
		}
		if p.Duration <= 0 {
			return fmt.Errorf("faults: partition %d duration %v must be > 0", i, p.Duration)
		}
		if len(p.Regions) == 0 {
			return fmt.Errorf("faults: partition %d isolates no region", i)
		}
		if len(p.Regions) >= geo.NumRegions {
			return fmt.Errorf("faults: partition %d isolates every region (both sides must be non-empty)", i)
		}
		seen := map[geo.Region]bool{}
		for _, r := range p.Regions {
			if !r.Valid() {
				return fmt.Errorf("faults: partition %d lists invalid region %v", i, r)
			}
			if seen[r] {
				return fmt.Errorf("faults: partition %d lists region %s twice", i, r)
			}
			seen[r] = true
		}
	}
	if l := c.Loss; l != nil {
		if l.DropProb < 0 || l.DropProb > 1 {
			return fmt.Errorf("faults: loss drop_prob %v outside [0,1]", l.DropProb)
		}
		if l.ExtraDelayMean < 0 {
			return fmt.Errorf("faults: negative loss extra_delay_mean %v", l.ExtraDelayMean)
		}
		if l.DropProb == 0 && l.ExtraDelayMean == 0 {
			return errors.New("faults: loss section sets neither drop_prob nor extra_delay_mean")
		}
	}
	if ch := c.Churn; ch != nil {
		if ch.MeanBetween <= 0 {
			return fmt.Errorf("faults: churn mean_between %v must be > 0", ch.MeanBetween)
		}
		if jf := ch.joinFraction(); jf < 0 || jf > 1 {
			return fmt.Errorf("faults: churn join_fraction %v outside [0,1]", jf)
		}
		if ch.MaxEvents < 0 {
			return fmt.Errorf("faults: negative churn max_events %d", ch.MaxEvents)
		}
	}
	return nil
}

// separated reports whether any partition active at now separates the
// two regions.
func (c *Config) separated(now sim.Time, a, b geo.Region) bool {
	for _, p := range c.Partitions {
		if p.Active(now) && p.Separates(a, b) {
			return true
		}
	}
	return false
}

// healAfter returns how long from now until every partition currently
// separating the two regions has healed (0 when none does).
func (c *Config) healAfter(now sim.Time, a, b geo.Region) sim.Time {
	var wait sim.Time
	for _, p := range c.Partitions {
		if p.Active(now) && p.Separates(a, b) {
			if d := p.End() - now; d > wait {
				wait = d
			}
		}
	}
	return wait
}

// Stats is the injector's ground-truth event accounting, feeding the
// availability analysis.
type Stats struct {
	// Crashes / Recoveries count crash events and completed recoveries.
	Crashes, Recoveries int
	// Joins / Leaves count churn events.
	Joins, Leaves int
	// DroppedPartition / DroppedLoss count sends vetoed by the link
	// filter, by cause. (Down-endpoint drops are counted by p2p.)
	DroppedPartition, DroppedLoss uint64
	// CrashDowntime is the summed node-outage time (crash outages
	// only; departed nodes are not "unavailable", they are gone).
	CrashDowntime sim.Time
	// PartitionTime is the summed active-partition time within the
	// run's horizon.
	PartitionTime sim.Time
	// DownAtEnd counts nodes still crashed when the run finished.
	DownAtEnd int
}
