// Package relay implements pluggable block-relay protocols for the
// simulated overlay: the dissemination discipline that was previously
// hard-wired into internal/p2p is expressed as a Protocol driven
// through a narrow Env interface the host network implements.
//
// The package deliberately does not import internal/p2p — protocols
// are pure dissemination logic over an abstract environment, so p2p
// can host them (it implements Env) and tests can drive them against
// fixture environments without an import cycle.
//
// Four disciplines ship: the legacy sqrt-push and announce-only rules
// (moved here byte-identically — a legacy scenario produces the same
// artifacts it did before the extraction), push-all, a BIP152-shaped
// compact-block protocol (short-ID sketches reconstructed from the
// receiver's transaction pool with a deterministic missing-tx round
// trip and full-body fallback), and a push/pull hybrid with a
// configurable push fan-out fraction.
package relay

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/types"
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

// Env is the per-node view of the host network a protocol drives. The
// host (internal/p2p) implements it with zero allocations on the push
// path: candidate enumeration and fan-out permutations fill shared
// scratch buffers, exactly as the pre-extraction hot path did.
//
// Candidate indexes returned by Candidates/Fanout are only valid until
// the next Candidates call. Peer identifiers (the `peer` arguments)
// are the host's stable node IDs.
type Env interface {
	// NodeID is the hosting node's stable identifier.
	NodeID() int
	// HasBlock reports whether the node already holds the full block.
	HasBlock(h types.Hash) bool
	// KnownTx reports whether the node's transaction pool has seen the
	// transaction — the receiver-side visibility compact reconstruction
	// runs on.
	KnownTx(h types.Hash) bool

	// Candidates fills the host's shared scratch with the node's up
	// peers not yet known to have h, in stable peer order, and returns
	// the count.
	Candidates(h types.Hash) int
	// Fanout returns a random permutation of [0, n) drawn from the
	// network RNG — the draw-identical successor of rng.Perm(n).
	Fanout(n int) []int

	// PushBlock sends the full block to candidate i at virtual time
	// `at`, marking the peer as knowing it.
	PushBlock(i int, at sim.Time, b *types.Block)
	// PushCompact sends a short-ID sketch of the block to candidate i.
	PushCompact(i int, at sim.Time, b *types.Block)
	// Announce sends a hash announcement to candidate i.
	Announce(i int, at sim.Time, h types.Hash)

	// RequestBlock asks peer for the full block body (GetBlock).
	RequestBlock(peer int, at sim.Time, h types.Hash)
	// RequestCompact asks peer for a compact sketch of the block.
	RequestCompact(peer int, at sim.Time, h types.Hash)
	// RequestTxns asks peer for `count` missing transactions of block h
	// totalling `bytes` serialized bytes (the deterministic missing-tx
	// round trip; the byte total sizes the response message).
	RequestTxns(peer int, at sim.Time, h types.Hash, count, bytes int)

	// ScheduleWave queues the node's deferred announce wave for h,
	// `delay` after now.
	ScheduleWave(delay sim.Time, h types.Hash, origin bool)
	// AcceptBlock hands a fully available block body to the node: it
	// is recorded, measurement-visible state updates, and the
	// protocol's OnBlock runs for onward dissemination.
	AcceptBlock(now sim.Time, b *types.Block)

	// SetPending records an in-flight reconstruction or fallback fetch
	// for h (b may be nil for a full-body fallback). It reports false,
	// without overwriting, when one is already pending.
	SetPending(h types.Hash, b *types.Block) bool
	// HasPending reports whether a fetch/reconstruction is in flight.
	HasPending(h types.Hash) bool
	// TakePending removes and returns the pending entry for h.
	TakePending(h types.Hash) (*types.Block, bool)
}

// Protocol is one block-relay discipline. A Protocol instance belongs
// to exactly one network (its counters are per-campaign state); New
// constructs a fresh instance per campaign.
type Protocol interface {
	// Mode identifies the discipline.
	Mode() Mode
	// OnBlock runs dissemination phase 1 after the hosting node accepts
	// a full block. origin marks the mining gateway that built it.
	OnBlock(env Env, now sim.Time, b *types.Block, origin bool)
	// OnWave runs the deferred announce wave scheduled by OnBlock.
	OnWave(env Env, now sim.Time, h types.Hash, origin bool)
	// OnAnnouncePull fetches a block the node first learned of through
	// a hash announcement from peer `from`.
	OnAnnouncePull(env Env, now sim.Time, from int, h types.Hash)
	// Counters exposes the protocol's accounting (shared struct,
	// updated in place).
	Counters() *Counters
}

// CompactHandler is implemented by protocols that speak the compact
// message family (sketches, missing-tx round trips). The host network
// routes those message kinds here.
type CompactHandler interface {
	// OnCompact processes a received short-ID sketch for b.
	OnCompact(env Env, now sim.Time, from int, b *types.Block)
	// OnBlockTxns processes the missing transactions of block h
	// arriving from the sketch sender, completing reconstruction.
	OnBlockTxns(env Env, now sim.Time, from int, h types.Hash)
}

// Counters is the per-protocol accounting the bandwidth analysis
// reports. Only the compact protocol populates the reconstruction
// fields; every field is zero for disciplines it does not apply to.
type Counters struct {
	// SketchesSent / SketchesReceived count compact sketches on the
	// wire (pushes, pull responses).
	SketchesSent     uint64
	SketchesReceived uint64
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
}

// Add accumulates o into c (per-lane instances fold into the primary).
func (c *Counters) Add(o Counters) {
	c.SketchesSent += o.SketchesSent
	c.SketchesReceived += o.SketchesReceived
	c.ReconstructFull += o.ReconstructFull
	c.ReconstructPartial += o.ReconstructPartial
	c.ReconstructFallback += o.ReconstructFallback
	c.MissingTxs += o.MissingTxs
	c.MissingTxBytes += o.MissingTxBytes
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

// Config selects and parameterizes a relay protocol. The zero value
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

// New constructs a fresh protocol instance for one network. Zero
// knobs take their defaults.
func New(cfg Config) (Protocol, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	switch cfg.Mode {
	case SqrtPush, PushAll, AnnounceOnly:
		return &pushRelay{mode: cfg.Mode}, nil
	case Hybrid:
		f := cfg.PushFraction
		if f == 0 {
			f = DefaultPushFraction
		}
		return &pushRelay{mode: Hybrid, fraction: f}, nil
	case Compact:
		t := cfg.FallbackThreshold
		if t == 0 {
			t = DefaultFallbackThreshold
		}
		return &compactRelay{fallback: t}, nil
	default:
		return nil, fmt.Errorf("relay: unknown mode %s", cfg.Mode)
	}
}

// MustNew is New for known-good configurations (tests, fixtures).
func MustNew(cfg Config) Protocol {
	p, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return p
}
