package p2p

import (
	"runtime"
	"testing"

	"repro/internal/geo"
	"repro/internal/sim"
)

// bytesPerNodeBudget is the documented steady-state heap budget for
// one overlay node (struct-of-arrays core, the campaign's wiring — a
// degree-8 overlay plus its hubs — and no traffic). docs/PERFORMANCE.md
// ("Memory layout") explains where the bytes go; raise it only with a
// matching doc update.
const bytesPerNodeBudget = 4096

// heapAlloc settles the heap and reports live bytes.
func heapAlloc() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestBytesPerNodeCeiling pins the per-node heap cost of the
// struct-of-arrays core: a 10,000-node overlay wired the way
// core.NewCampaign wires it must stay under bytesPerNodeBudget per node.
// This is the short tier of `make test-stress` — a layout regression
// (per-node maps creeping back in, a dense slice gaining a fat field)
// fails here long before the 100k tier becomes unaffordable.
//
// The hubs are what make adjacency garbage: 4 measurement nodes at N/2
// peers and 27 pool gateways at N/3 (half of their peers from the
// gateway's own region) push most nodes' peer spans past capacity. The
// arena must stay within twice its live edge cells, which only holds
// because grow compacts it.
func TestBytesPerNodeCeiling(t *testing.T) {
	const (
		n           = 10_000
		vantages    = 4
		gateways    = 27
		gatewayBias = 0.5
	)
	before := heapAlloc()
	engine := sim.NewEngine()
	net := NewNetwork(engine, sim.NewRNG(7), geo.DefaultLatencyModel())
	share := geo.DefaultNodeShare
	placement, err := geo.PlaceNodes(n, share)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range placement {
		if _, err := net.AddNode(r, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := net.WireRandom(8); err != nil {
		t.Fatal(err)
	}
	regions := geo.Regions()
	for h := 0; h < vantages+gateways; h++ {
		hub, err := net.AddNode(regions[h%len(regions)], 0)
		if err != nil {
			t.Fatal(err)
		}
		if h < vantages {
			err = net.ConnectSample(hub, n/2)
		} else {
			err = net.ConnectSampleBiased(hub, n/3, gatewayBias)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	after := heapAlloc()
	nodes := uint64(net.Len())
	perNode := (after - before) / nodes
	live := 0
	for _, s := range net.top.spans {
		live += int(s.len)
	}
	t.Logf("steady-state heap: %d bytes total, %d bytes/node over %d nodes (budget %d); arena %d cells (capacity %d) for %d live",
		after-before, perNode, nodes, bytesPerNodeBudget, len(net.top.adj), cap(net.top.adj), live)
	if perNode > bytesPerNodeBudget {
		t.Errorf("bytes per node %d exceeds budget %d — update docs/PERFORMANCE.md if the layout change is intentional",
			perNode, bytesPerNodeBudget)
	}
	if len(net.top.adj) > 2*live {
		t.Errorf("adjacency arena holds %d cells for %d live edge cells, more than twice", len(net.top.adj), live)
	}
	runtime.KeepAlive(net)
	runtime.KeepAlive(engine)
}
