package core

import (
	"fmt"
	"strconv"
	"testing"

	"repro/internal/analysis"
	"repro/internal/discovery"
	"repro/internal/p2p"
	"repro/internal/sim"
)

// wireKademlia wires an overlay the way devp2p does: every node gets a
// random 256-bit identity, the discovery universe bootstraps and
// converges, and each node dials `degree` peers sampled from its
// routing table. Because identities carry no geographic structure,
// the resulting topology is location-independent — the property the
// paper's §III-B1 analysis rests on.
func wireKademlia(network *p2p.Network, rng *sim.RNG, degree int) error {
	if degree < 1 {
		return fmt.Errorf("core: degree %d < 1", degree)
	}
	universe, err := discovery.NewUniverse(discovery.DefaultBucketSize)
	if err != nil {
		return err
	}
	nodes := network.Nodes()
	byID := make(map[discovery.NodeID]*p2p.Node, len(nodes))
	for _, n := range nodes {
		id := discovery.IDFromLabel("overlay-node-" + strconv.Itoa(int(n.ID())))
		if err := universe.Join(id); err != nil {
			return err
		}
		byID[id] = n
	}
	if err := universe.Bootstrap(rng, 3, 2); err != nil {
		return err
	}
	// Dial in overlay insertion order: SamplePeers consumes RNG draws,
	// so iterating the byID map here would make the wiring depend on
	// map order — a nondeterminism the campaign contract forbids.
	for _, node := range nodes {
		id := discovery.IDFromLabel("overlay-node-" + strconv.Itoa(int(node.ID())))
		peers, err := universe.SamplePeers(rng, id, degree)
		if err != nil {
			return err
		}
		for _, pid := range peers {
			target, ok := byID[pid]
			if !ok {
				continue
			}
			// Peer-limit refusals are expected; discovery keeps
			// candidates available elsewhere.
			_ = network.Connect(node, target)
		}
	}
	return nil
}

// withKademliaWiring makes NewCampaign wire through wireKademlia until
// the test ends. The discovery stream is forked from the campaign's
// root stream at the point the random wiring would run.
func withKademliaWiring(t *testing.T) {
	t.Helper()
	random := wireOverlay
	wireOverlay = func(network *p2p.Network, root *sim.RNG, degree int) error {
		return wireKademlia(network, root.Fork("discovery"), degree)
	}
	t.Cleanup(func() { wireOverlay = random })
}

// TestKademliaWiringPreservesGeoFindings validates the statistical
// shortcut: the devp2p-style discovery wiring and uniform random
// wiring must yield the same geographic conclusions (EA first, NA
// last), because node identities carry no location structure
// (§III-B1).
func TestKademliaWiringPreservesGeoFindings(t *testing.T) {
	run := func() map[string]float64 {
		t.Helper()
		res, err := RunCampaign(smallCampaign(31))
		if err != nil {
			t.Fatal(err)
		}
		first, err := analysis.FirstObservations(res.Index)
		if err != nil {
			t.Fatal(err)
		}
		return first.Share
	}
	random := run()
	withKademliaWiring(t)
	kademlia := run()
	for _, shares := range []map[string]float64{random, kademlia} {
		if shares["EA"] < shares["NA"] {
			t.Fatalf("EA must lead NA under both wirings: %+v", shares)
		}
		if shares["EA"] < 0.25 {
			t.Fatalf("EA share collapsed: %+v", shares)
		}
	}
	// The wirings should agree within a loose band.
	if diff := random["EA"] - kademlia["EA"]; diff > 0.25 || diff < -0.25 {
		t.Fatalf("wirings disagree on EA: %v vs %v", random["EA"], kademlia["EA"])
	}
}

// TestKademliaWiringConnectsEveryone also checks that the seam took:
// the discovery overlay is not the random one.
func TestKademliaWiringConnectsEveryone(t *testing.T) {
	random, err := NewCampaign(smallCampaign(32))
	if err != nil {
		t.Fatal(err)
	}
	withKademliaWiring(t)
	c, err := NewCampaign(smallCampaign(32))
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i, n := range c.network.Nodes() {
		if n.PeerCount() == 0 {
			t.Fatalf("node %d isolated under kademlia wiring", n.ID())
		}
		same = same && n.PeerCount() == random.network.Nodes()[i].PeerCount()
	}
	if same {
		t.Fatal("kademlia wiring built the random overlay's degree sequence")
	}
}
