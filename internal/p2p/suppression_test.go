package p2p

import (
	"testing"

	"repro/internal/geo"
	"repro/internal/p2p/relay"
	"repro/internal/sim"
)

// zeroLatency makes timing assertions exact.
func zeroLatencyNetwork(t *testing.T, seed uint64) *Network {
	t.Helper()
	m := geo.LatencyModel{JitterSigma: 0, BytesPerMillisecond: 0, MinDelayMillis: 1}
	return NewNetwork(sim.NewEngine(), sim.NewRNG(seed), m)
}

func TestNoDuplicateSendsToSamePeer(t *testing.T) {
	net := zeroLatencyNetwork(t, 1)
	a := addNode(t, net, geo.WesternEurope, 0)
	b := addNode(t, net, geo.WesternEurope, 0)
	if err := net.Connect(a, b); err != nil {
		t.Fatal(err)
	}
	blk := testBlock(1, "Ethermine")
	deliveries := 0
	b.SetObserver(func(_ sim.Time, _ NodeID, msg *Message) {
		if msg.Kind == MsgNewBlock || msg.Kind == MsgNewBlockHashes {
			deliveries++
		}
	})
	a.InjectBlock(0, blk)
	net.Engine().Run()
	// With one peer, a pushes once; the announce wave must be fully
	// suppressed by the push's known-mark.
	if deliveries != 1 {
		t.Fatalf("b received %d block messages, want exactly 1", deliveries)
	}
}

func TestBidirectionalSuppression(t *testing.T) {
	// After b receives the block from a, b must not send it back.
	net := zeroLatencyNetwork(t, 2)
	a := addNode(t, net, geo.WesternEurope, 0)
	b := addNode(t, net, geo.WesternEurope, 0)
	if err := net.Connect(a, b); err != nil {
		t.Fatal(err)
	}
	backToA := 0
	a.SetObserver(func(_ sim.Time, _ NodeID, msg *Message) {
		if msg.Kind == MsgNewBlock || msg.Kind == MsgNewBlockHashes {
			backToA++
		}
	})
	a.InjectBlock(0, testBlock(1, "Sparkpool"))
	net.Engine().Run()
	if backToA != 0 {
		t.Fatalf("block echoed back to its sender %d times", backToA)
	}
}

func TestOriginAnnouncesImmediately(t *testing.T) {
	// The origin's announce wave fires right after validation, while
	// a relayer's waits for the import delay.
	net := zeroLatencyNetwork(t, 3)
	origin := addNode(t, net, geo.WesternEurope, 0)
	// Enough peers that sqrt(n) pushes leave announce targets.
	var watchers []*Node
	for i := 0; i < 16; i++ {
		w := addNode(t, net, geo.WesternEurope, 0)
		w.setRelayEnabled(false) // pure observers: no relaying noise
		if err := net.Connect(origin, w); err != nil {
			t.Fatal(err)
		}
		watchers = append(watchers, w)
	}
	var firstAnnounce sim.Time = -1
	for _, w := range watchers {
		w.SetObserver(func(now sim.Time, _ NodeID, msg *Message) {
			if msg.Kind == MsgNewBlockHashes && (firstAnnounce < 0 || now < firstAnnounce) {
				firstAnnounce = now
			}
		})
	}
	origin.InjectBlock(0, testBlock(1, "F2pool2"))
	net.Engine().Run()
	if firstAnnounce < 0 {
		t.Fatal("no announcements observed")
	}
	if firstAnnounce >= relay.ImportDelay {
		t.Fatalf("origin announce delayed by import time: %v", firstAnnounce)
	}
}

func TestRelayerAnnouncesAfterImport(t *testing.T) {
	net := zeroLatencyNetwork(t, 4)
	origin := addNode(t, net, geo.WesternEurope, 0)
	relayer := addNode(t, net, geo.WesternEurope, 0)
	if err := net.Connect(origin, relayer); err != nil {
		t.Fatal(err)
	}
	// The relayer has extra observer-only peers so its announce wave
	// has targets.
	var watchers []*Node
	for i := 0; i < 16; i++ {
		w := addNode(t, net, geo.WesternEurope, 0)
		w.setRelayEnabled(false)
		if err := net.Connect(relayer, w); err != nil {
			t.Fatal(err)
		}
		watchers = append(watchers, w)
	}
	var firstAnnounce sim.Time = -1
	for _, w := range watchers {
		w.SetObserver(func(now sim.Time, _ NodeID, msg *Message) {
			if msg.Kind == MsgNewBlockHashes && (firstAnnounce < 0 || now < firstAnnounce) {
				firstAnnounce = now
			}
		})
	}
	origin.InjectBlock(0, testBlock(1, "Nanopool"))
	net.Engine().Run()
	if firstAnnounce < 0 {
		t.Fatal("no announcements observed")
	}
	if firstAnnounce < relay.ImportDelay {
		t.Fatalf("relayer announced before import completed: %v", firstAnnounce)
	}
}

func TestKnownPeerEviction(t *testing.T) {
	// The per-block suppression state is bounded: after more than
	// knownPeerCap blocks, the oldest entries are dropped.
	net := zeroLatencyNetwork(t, 5)
	a := addNode(t, net, geo.WesternEurope, 0)
	b := addNode(t, net, geo.WesternEurope, 0)
	if err := net.Connect(a, b); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < knownPeerCap+20; i++ {
		a.InjectBlock(0, testBlock(uint64(i+1), "Ethermine"))
		net.Engine().Run()
	}
	if got := int(net.rows[a.idx()].knowCount); got > knownPeerCap {
		t.Fatalf("suppression window grew to %d entries (cap %d)", got, knownPeerCap)
	}
	if got := len(net.spill[a.idx()]); got != 0 {
		t.Fatalf("healthy run produced %d spill marks", got)
	}
}

// TestWindowSlotMatchesRing pins windowSlot — which answers for the
// newest block from the node row without scanning — to the ring itself,
// across wrap-around, eviction and marks that revisit older blocks.
func TestWindowSlotMatchesRing(t *testing.T) {
	net := zeroLatencyNetwork(t, 5)
	a := addNode(t, net, geo.WesternEurope, 0)
	b := addNode(t, net, geo.WesternEurope, 0)
	if err := net.Connect(a, b); err != nil {
		t.Fatal(err)
	}
	i := a.idx()
	ring := net.knowSlot[i*knownPeerCap : (i+1)*knownPeerCap]
	for blk := int32(0); blk < 3*knownPeerCap; blk++ {
		net.markPeerKnows(i, blk, b.idx(), 0)
		if blk%5 == 4 {
			net.markPeerKnows(i, blk-3, b.idx(), 0) // an older block, still tracked
		}
		for probe := int32(0); probe <= blk+1; probe++ {
			want := int32(-1)
			for s, held := range ring {
				if held == probe+1 {
					want = int32(s)
				}
			}
			if got := net.windowSlot(i, probe); got != want {
				t.Fatalf("after block %d: windowSlot(%d) = %d, the ring says %d", blk, probe, got, want)
			}
		}
	}
}

func TestAnnouncementMarksSenderAsKnowing(t *testing.T) {
	net := zeroLatencyNetwork(t, 6)
	a := addNode(t, net, geo.WesternEurope, 0)
	b := addNode(t, net, geo.WesternEurope, 0)
	if err := net.Connect(a, b); err != nil {
		t.Fatal(err)
	}
	blk := testBlock(1, "HuoBi.pro")
	h := blk.Hash()
	// b hears an announcement from a; b must record that a knows the
	// block even before fetching it.
	net.home.handle(0, &flight{to: b.idx(), from: a.idx(), srcPos: -1, kind: MsgNewBlockHashes, block: net.blockIdx.intern(h)})
	if !b.peerKnowsBlock(h, a.ID()) {
		t.Fatal("announcement did not mark sender knowledge")
	}
}

func TestPushPolicies(t *testing.T) {
	countKinds := func(mode relay.Mode) (pushes, announces int) {
		net := zeroLatencyNetwork(t, 7)
		net.SetRelay(relay.MustNew(relay.Config{Mode: mode}))
		origin := addNode(t, net, geo.WesternEurope, 0)
		for i := 0; i < 16; i++ {
			w := addNode(t, net, geo.WesternEurope, 0)
			w.setRelayEnabled(false)
			if err := net.Connect(origin, w); err != nil {
				t.Fatal(err)
			}
			w.SetObserver(func(_ sim.Time, _ NodeID, msg *Message) {
				switch msg.Kind {
				case MsgNewBlock:
					pushes++
				case MsgNewBlockHashes:
					announces++
				}
			})
		}
		origin.InjectBlock(0, testBlock(1, "Zhizhu"))
		net.Engine().Run()
		return pushes, announces
	}
	sqrtPush, sqrtAnn := countKinds(relay.SqrtPush)
	allPush, allAnn := countKinds(relay.PushAll)
	annPush, annAnn := countKinds(relay.AnnounceOnly)
	if sqrtPush != 4 { // sqrt(16)
		t.Fatalf("sqrt policy pushed %d", sqrtPush)
	}
	if sqrtAnn != 12 {
		t.Fatalf("sqrt policy announced %d", sqrtAnn)
	}
	if allPush != 16 || allAnn != 0 {
		t.Fatalf("push-all: %d/%d", allPush, allAnn)
	}
	// Announce-only: announce wave to all 16; observers don't pull
	// (relay disabled), so no pushes arrive.
	if annPush != 0 || annAnn != 16 {
		t.Fatalf("announce-only: %d/%d", annPush, annAnn)
	}
}

// The relay mode's name table — including the unknown(N) rendering
// run-dir metadata relies on — is covered by the relay package's
// TestModeString.
