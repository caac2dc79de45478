// Package relay is the block-relay vocabulary the simulated overlay
// and its configuration share: the disciplines (Mode), their knobs
// (Config) and accounting (Counters), the protocol timing constants,
// and the compact sketch's wire-size model.
//
// Five disciplines ship: the eth/63 sqrt-push rule the paper's
// network runs, its push-all and announce-only ablation endpoints, a
// BIP152-shaped compact-block protocol (short-ID sketches
// reconstructed from the receiver's transaction pool with a
// deterministic missing-tx round trip and full-body fallback), and a
// push/pull hybrid with a configurable push fan-out fraction. The
// transport runs them (internal/p2p, relay.go there); this package
// does not import it, so configuration code names a discipline
// without pulling in the overlay. Its conformance suite drives every
// discipline through a real p2p.Network on both lane layouts and pins
// each run to a recorded digest.
package relay

import (
	"fmt"

	"repro/internal/sim"
)

// Protocol timing constants, shared by every relay discipline. They
// model the two-phase Geth behavior the paper's network exhibits: a
// push is relayed after cheap PoW/header validation, the announcement
// wave waits for full import (state execution), and pulls pay a
// request-handling cost at each end.
const (
	// ValidateDelay is paid before the push wave (header/PoW check).
	ValidateDelay sim.Time = 4
	// ImportDelay is paid by relayers before the announce wave (full
	// state execution; the block's origin gateway skips it).
	ImportDelay sim.Time = 200
	// AnnounceHandleDelay is paid before acting on an announcement or
	// sketch (scheduling the pull).
	AnnounceHandleDelay sim.Time = 1
)

// ShortIDBytes is the wire size of one transaction short identifier
// (BIP152 uses 6-byte siphash-derived IDs). The transport models the
// short-ID layer as exact — a sketch transaction resolves iff the
// receiver's pool holds its hash; at 48 bits a collision is ~2^-48 per
// pair — so only the identifiers' size is modelled, never their values.
const ShortIDBytes = 6

// SketchWireBytes returns the serialized size a sketch of n
// transactions adds beyond the block header: a count prefix plus one
// short ID per transaction.
func SketchWireBytes(n int) int {
	return 2 + n*ShortIDBytes
}

// Counters is the relay accounting the bandwidth analysis reports.
// Only the compact discipline populates the sketch fields; they are
// zero for the disciplines without sketches.
type Counters struct {
	// SketchesSent counts compact sketches put on the wire (pushes and
	// pull responses). A sketch received and not discarded as already
	// held or pending is one reconstruction attempt (Attempts).
	SketchesSent uint64
	// ReconstructFull counts sketches reconstructed entirely from the
	// receiver's transaction pool (the hit case).
	ReconstructFull uint64
	// ReconstructPartial counts reconstructions that needed the
	// missing-tx round trip.
	ReconstructPartial uint64
	// ReconstructFallback counts sketches abandoned for a full-body
	// fetch (missing fraction above the configured threshold).
	ReconstructFallback uint64
	// MissingTxs / MissingTxBytes total the transactions fetched
	// through missing-tx round trips.
	MissingTxs     uint64
	MissingTxBytes uint64
	// ParentPulls counts catch-up fetches: GetBlock requests for the
	// unknown parent of a delivered block, under every discipline.
	ParentPulls uint64
}

// Add accumulates o into c (region lanes fold into the network's
// totals).
func (c *Counters) Add(o Counters) {
	c.SketchesSent += o.SketchesSent
	c.ReconstructFull += o.ReconstructFull
	c.ReconstructPartial += o.ReconstructPartial
	c.ReconstructFallback += o.ReconstructFallback
	c.MissingTxs += o.MissingTxs
	c.MissingTxBytes += o.MissingTxBytes
	c.ParentPulls += o.ParentPulls
}

// Attempts returns the number of sketch reconstructions attempted.
func (c *Counters) Attempts() uint64 {
	return c.ReconstructFull + c.ReconstructPartial + c.ReconstructFallback
}

// HitRate returns the fraction of attempts reconstructed without a
// full-body fallback (full and partial hits). Zero when no sketches
// were processed.
func (c *Counters) HitRate() float64 {
	a := c.Attempts()
	if a == 0 {
		return 0
	}
	return float64(c.ReconstructFull+c.ReconstructPartial) / float64(a)
}

// Config selects and parameterizes a relay discipline. The zero value
// is the paper's sqrt-push discipline with default knobs.
type Config struct {
	// Mode selects the discipline.
	Mode Mode
	// PushFraction is the hybrid protocol's full-body push fan-out
	// fraction of candidate peers (0 < f <= 1; 0 means the default).
	PushFraction float64
	// FallbackThreshold is the compact protocol's missing-transaction
	// count fraction above which it abandons the sketch and fetches
	// the full body (0 < t <= 1; 0 means the default).
	FallbackThreshold float64
}

// Default knob values.
const (
	// DefaultPushFraction pushes full bodies to a quarter of the
	// candidates in hybrid mode.
	DefaultPushFraction = 0.25
	// DefaultFallbackThreshold abandons a sketch when more than half
	// its transactions are missing from the pool.
	DefaultFallbackThreshold = 0.5
)

// Validate checks the knobs against their documented ranges.
func (c Config) Validate() error {
	if c.Mode < 0 || int(c.Mode) >= len(modeNames) {
		return fmt.Errorf("relay: unknown mode %s", c.Mode)
	}
	if c.PushFraction < 0 || c.PushFraction > 1 {
		return fmt.Errorf("relay: push fraction %v outside [0,1]", c.PushFraction)
	}
	if c.FallbackThreshold < 0 || c.FallbackThreshold > 1 {
		return fmt.Errorf("relay: fallback threshold %v outside [0,1]", c.FallbackThreshold)
	}
	return nil
}

// Discipline is a Config that New validated and gave its default
// knobs: the value a network runs (p2p.Network.SetRelay).
type Discipline Config

// New validates cfg and fills its zero knobs with the defaults.
func New(cfg Config) (Discipline, error) {
	if err := cfg.Validate(); err != nil {
		return Discipline{}, err
	}
	if cfg.PushFraction == 0 {
		cfg.PushFraction = DefaultPushFraction
	}
	if cfg.FallbackThreshold == 0 {
		cfg.FallbackThreshold = DefaultFallbackThreshold
	}
	return Discipline(cfg), nil
}

// MustNew is New for known-good configurations (tests, fixtures).
func MustNew(cfg Config) Discipline {
	d, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return d
}
