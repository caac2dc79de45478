package analysis

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/p2p"
	"repro/internal/p2p/relay"
)

// VantageBandwidth is one measurement node's ingress/egress totals.
type VantageBandwidth struct {
	Name        string
	MessagesIn  uint64
	BytesIn     uint64
	MessagesOut uint64
	BytesOut    uint64
}

// Bandwidth is the per-protocol transport accounting of one campaign:
// class-level byte counters, per-vantage ingress/egress, and the
// compact-relay reconstruction profile. core.RunCampaign assembles it
// from the network's counters; the "bandwidth" scenario output
// renders it.
type Bandwidth struct {
	// Protocol names the relay discipline the campaign ran.
	Protocol string
	// TotalMessages / TotalBytes are the network-wide send totals
	// (equal to the sums over Classes by construction).
	TotalMessages uint64
	TotalBytes    uint64
	// DroppedMessages counts fault-discarded sends and deliveries.
	DroppedMessages uint64
	// Blocks is the campaign's produced block-height budget, the
	// normalizer for per-block costs.
	Blocks uint64
	// Classes lists per-message-class totals in wire-kind order.
	Classes []p2p.ClassTotal
	// Vantages lists the measurement nodes' ingress/egress, in
	// attachment order.
	Vantages []VantageBandwidth
	// Reconstruction is the relay protocol's sketch accounting (all
	// zero for disciplines without sketches).
	Reconstruction relay.Counters
}

// BytesPerBlock normalizes the byte total by the block budget.
func (b *Bandwidth) BytesPerBlock() float64 {
	if b.Blocks == 0 {
		return 0
	}
	return float64(b.TotalBytes) / float64(b.Blocks)
}

// errNoBandwidth guards against rendering an unassembled report.
var errNoBandwidth = errors.New("analysis: nil bandwidth report")

// RenderBandwidth renders the paper-style bandwidth table: class
// breakdown, per-vantage ingress/egress and — when sketches ran — the
// reconstruction profile.
func RenderBandwidth(b *Bandwidth) (string, error) {
	if b == nil {
		return "", errNoBandwidth
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "Bandwidth accounting — relay protocol %s\n", b.Protocol)
	fmt.Fprintf(&sb, "  totals: %d messages, %.2f MB (%.1f KB/block over %d blocks)",
		b.TotalMessages, float64(b.TotalBytes)/1e6, b.BytesPerBlock()/1e3, b.Blocks)
	if b.DroppedMessages > 0 {
		fmt.Fprintf(&sb, ", %d dropped", b.DroppedMessages)
	}
	sb.WriteString("\n")
	fmt.Fprintf(&sb, "  %-16s %12s %14s %8s\n", "class", "messages", "bytes", "share")
	for _, c := range b.Classes {
		share := 0.0
		if b.TotalBytes > 0 {
			share = float64(c.Bytes) / float64(b.TotalBytes)
		}
		fmt.Fprintf(&sb, "  %-16s %12d %14d %7.1f%%\n", c.Kind.String(), c.Messages, c.Bytes, share*100)
	}
	if len(b.Vantages) > 0 {
		fmt.Fprintf(&sb, "  %-16s %12s %14s %12s %14s\n", "vantage", "msgs in", "bytes in", "msgs out", "bytes out")
		for _, v := range b.Vantages {
			fmt.Fprintf(&sb, "  %-16s %12d %14d %12d %14d\n", v.Name, v.MessagesIn, v.BytesIn, v.MessagesOut, v.BytesOut)
		}
	}
	if r := b.Reconstruction; r.Attempts() > 0 || r.SketchesSent > 0 {
		fmt.Fprintf(&sb, "  reconstruction: %d sketches sent, %d received; full %d, round-trip %d, fallback %d (hit rate %.1f%%)\n",
			r.SketchesSent, r.Attempts(), r.ReconstructFull, r.ReconstructPartial, r.ReconstructFallback, r.HitRate()*100)
		if r.ReconstructPartial > 0 {
			fmt.Fprintf(&sb, "  missing txs fetched: %d (%.2f MB)\n", r.MissingTxs, float64(r.MissingTxBytes)/1e6)
		}
	}
	return sb.String(), nil
}
