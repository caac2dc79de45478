package p2p

import (
	"strings"
	"testing"

	"repro/internal/geo"
	"repro/internal/p2p/relay"
)

// shardedPair builds a minimal region-lane network: one node in each
// of two regions, connected, started, no traffic yet. It returns the
// nodes and the lanes owning them.
func shardedPair(t *testing.T) (net *Network, a, b *Node, src, dst *netLane) {
	t.Helper()
	f := newLayoutFixture(t, true, 11, relay.SqrtPush)
	a = addNode(t, f.net, geo.NorthAmerica, 0)
	b = addNode(t, f.net, geo.EasternAsia, 0)
	if err := f.net.Connect(a, b); err != nil {
		t.Fatal(err)
	}
	f.start(t)
	return f.net, a, b, f.net.laneOf(a.idx()), f.net.laneOf(b.idx())
}

// TestMergeCrossBackdatePanics pins the merge's time-discipline
// assertion: a cross-lane message whose arrival is at or before the
// destination lane's clock must panic loudly instead of being clamped
// to "now" by the engine (which would silently reorder it after
// same-time events that already ran). This is the regression test for
// the conductor deadline bug where multi-hop causal chains let a
// lane's clock outrun future arrivals.
func TestMergeCrossBackdatePanics(t *testing.T) {
	net, a, b, src, dst := shardedPair(t)

	// Advance the destination lane's clock past the manufactured
	// arrival time, as a buggy deadline computation would.
	dst.engine.RunUntil(100)

	src.cross = append(src.cross, crossMsg{at: 100, f: flight{to: b.idx(), from: a.idx(), kind: MsgNewBlock, size: 64, srcPos: -1}})

	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("mergeCross accepted a back-dated cross-lane message")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "back-dates") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	net.mergeCross()
}

// TestMergeCrossFutureArrivalOK is the control: an arrival strictly
// after the destination lane's clock merges cleanly.
func TestMergeCrossFutureArrivalOK(t *testing.T) {
	net, a, b, src, dst := shardedPair(t)
	dst.engine.RunUntil(100)

	src.cross = append(src.cross, crossMsg{at: 101, f: flight{to: b.idx(), from: a.idx(), kind: MsgNewBlock, size: 64, srcPos: -1}})
	if got := net.mergeCross(); got != 1 {
		t.Fatalf("mergeCross merged %d messages, want 1", got)
	}
	if len(src.cross) != 0 {
		t.Fatal("cross buffer not drained")
	}
}
