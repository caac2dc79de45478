package p2p

import (
	"testing"

	"repro/internal/geo"
	"repro/internal/sim"
)

// refTopology is the naive reference model the CSR adjacency layer is
// checked against: per node an ordered peer list (what the old
// []*Node peers slice held) with each edge's suppression mask beside
// it, and a down flag. Every operation is the obvious O(n)
// implementation.
type refTopology struct {
	peers [][]int32
	masks [][]uint64
	down  []bool
}

func newRefTopology(n int) *refTopology {
	return &refTopology{peers: make([][]int32, n), masks: make([][]uint64, n), down: make([]bool, n)}
}

func (m *refTopology) connected(i, j int32) bool {
	for _, p := range m.peers[i] {
		if p == j {
			return true
		}
	}
	return false
}

func (m *refTopology) connect(i, j int32) {
	if i == j || m.connected(i, j) {
		return
	}
	m.peers[i] = append(m.peers[i], j)
	m.peers[j] = append(m.peers[j], i)
	m.masks[i] = append(m.masks[i], 0)
	m.masks[j] = append(m.masks[j], 0)
}

// stamp sets the mask of edge i→j, which must exist.
func (m *refTopology) stamp(i, j int32, mask uint64) {
	for k, p := range m.peers[i] {
		if p == j {
			m.masks[i][k] = mask
		}
	}
}

func (m *refTopology) remove(i, j int32) {
	ps := m.peers[i]
	for k, p := range ps {
		if p == j {
			m.peers[i] = append(ps[:k], ps[k+1:]...)
			m.masks[i] = append(m.masks[i][:k], m.masks[i][k+1:]...)
			return
		}
	}
}

func (m *refTopology) disconnect(i, j int32) {
	if !m.connected(i, j) {
		return
	}
	m.remove(i, j)
	m.remove(j, i)
}

func (m *refTopology) crash(i int32) {
	if m.down[i] {
		return
	}
	m.down[i] = true
	for _, p := range m.peers[i] {
		m.remove(p, i)
	}
	m.peers[i] = nil
	m.masks[i] = nil
}

func (m *refTopology) recover(i int32) { m.down[i] = false }

// checkTopology compares the live network's CSR state against the
// reference model: per-node degree, exact peer order, every edge's
// suppression mask, the down flag, the adj/revAdj reciprocity
// invariant, and connected() on all pairs.
func checkTopology(t *testing.T, net *Network, model *refTopology, step int) {
	t.Helper()
	n := int32(len(model.peers))
	for i := int32(0); i < n; i++ {
		sp := net.top.spans[i]
		if int(sp.len) != len(model.peers[i]) {
			t.Fatalf("step %d: node %d degree %d, model %d", step, i+1, sp.len, len(model.peers[i]))
		}
		if net.down[i] != model.down[i] {
			t.Fatalf("step %d: node %d down=%v, model %v", step, i+1, net.down[i], model.down[i])
		}
		for p := int32(0); p < sp.len; p++ {
			e := sp.off + p
			j := net.top.adj[e]
			if j != model.peers[i][p] {
				t.Fatalf("step %d: node %d peer order at %d: %d, model %d",
					step, i+1, p, j+1, model.peers[i][p]+1)
			}
			if got, want := net.top.knowMask[e], model.masks[i][p]; got != want {
				t.Fatalf("step %d: edge %d->%d mask %#x, model %#x", step, i+1, j+1, got, want)
			}
			q := net.top.revAdj[e]
			spj := net.top.spans[j]
			if q < 0 || q >= spj.len {
				t.Fatalf("step %d: edge %d->%d revAdj %d out of span len %d", step, i+1, j+1, q, spj.len)
			}
			if net.top.adj[spj.off+q] != i || net.top.revAdj[spj.off+q] != p {
				t.Fatalf("step %d: edge %d->%d reciprocity broken (q=%d)", step, i+1, j+1, q)
			}
		}
		for j := int32(0); j < n; j++ {
			if i == j {
				continue
			}
			if got, want := net.top.connected(i, j), model.connected(i, j); got != want {
				t.Fatalf("step %d: connected(%d,%d)=%v, model %v", step, i+1, j+1, got, want)
			}
		}
	}
}

// churnNodes sizes the network the property test and the fuzz target
// drive.
const churnNodes = 12

// applyChurn drives script against an n-node network (n ≤ 256) and the
// reference model, checking equivalence after every step. Each 3-byte
// chunk is one operation: opcode, then two node operands. It returns
// the network and the arena length an arena that never compacts would
// have reached: every grow appends its new capacity to the tail.
func applyChurn(t *testing.T, n int32, script []byte) (*Network, int) {
	t.Helper()
	engine := sim.NewEngine()
	net := NewNetwork(engine, sim.NewRNG(1), geo.DefaultLatencyModel())
	nodes := make([]*Node, n)
	for i := range nodes {
		nd, err := net.AddNode(geo.WesternEurope, 0)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = nd
	}
	model := newRefTopology(int(n))
	caps := make([]int32, n)
	uncompacted := 0
	for k := 0; k+2 < len(script); k += 3 {
		op := script[k] % 4
		x := int32(script[k+1]) % n
		y := int32(script[k+2]) % n
		switch op {
		case 0:
			if x != y {
				if err := net.Connect(nodes[x], nodes[y]); err != nil {
					t.Fatalf("step %d: connect(%d,%d): %v", k/3, x+1, y+1, err)
				}
				model.connect(x, y)
				// Distinct masks on both directions, so relocation,
				// compaction and left shifts must carry them along.
				mask := uint64(k+1) << 1
				net.top.knowMask[net.top.spans[x].off+net.top.position(x, y)] = mask
				net.top.knowMask[net.top.spans[y].off+net.top.position(y, x)] = mask | 1
				model.stamp(x, y, mask)
				model.stamp(y, x, mask|1)
			}
		case 1:
			net.Disconnect(nodes[x], nodes[y])
			model.disconnect(x, y)
		case 2:
			net.CrashNode(nodes[x])
			model.crash(x)
		case 3:
			net.RecoverNode(nodes[x])
			model.recover(x)
		}
		for i, c := range caps {
			if sc := net.top.spans[i].cap; sc != c {
				uncompacted += int(sc)
				caps[i] = sc
			}
		}
		checkTopology(t, net, model, k/3)
	}
	return net, uncompacted
}

// TestAdjacencyChurnMatchesReference is the property test for the CSR
// layer under churn: random Connect/Disconnect/CrashNode/RecoverNode
// sequences leave the arena exactly where the naive ordered-list model
// says, including relocation (growth) and shift-left (removal) paths.
func TestAdjacencyChurnMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		rng := sim.NewRNG(seed)
		script := make([]byte, 600)
		for i := range script {
			script[i] = byte(rng.IntN(256))
		}
		applyChurn(t, churnNodes, script)
	}
}

// TestAdjacencyHubCompaction grows a hub through four span doublings
// while its peers churn around it: they link to each other past their
// own first capacity, drop the hub, crash, recover and redial. The
// relocations leave dead windows behind, so grow must compact the
// arena between them. Every step is checked against the reference
// model; at the end the arena must be shorter than one that never
// compacted.
func TestAdjacencyHubCompaction(t *testing.T) {
	const n = 80 // hub degree reaches 79: spans of 8, 16, 32, 64, 128
	var script []byte
	op := func(code, x, y byte) { script = append(script, code, x, y) }
	for k := byte(1); k < n; k++ {
		op(0, 0, k)
		for _, d := range []int{1, 3, 7, 13, 29} {
			op(0, k, byte((int(k)+d)%n))
		}
		if k%5 == 0 {
			op(1, 0, k-2)
			op(2, k-4, 0)
			op(3, k-4, 0)
			op(0, k-4, 0)
			op(0, k-4, k-1)
			op(0, 0, k-2)
		}
	}
	net, uncompacted := applyChurn(t, n, script)
	if hub := net.top.spans[0].cap; hub < 128 {
		t.Fatalf("hub span capacity %d: the script no longer grows it through four doublings", hub)
	}
	if got := len(net.top.adj); got >= uncompacted {
		t.Fatalf("arena length %d, a never-compacted arena %d: compaction did not run", got, uncompacted)
	}
	t.Logf("arena %d cells, %d without compaction", len(net.top.adj), uncompacted)
}

// FuzzAdjacencyChurn fuzzes arbitrary churn scripts against the
// reference model (the committed corpus under testdata/fuzz runs as
// part of the regular test suite). Spans relocate and the arena
// compacts on the way; `make fuzz-smoke` runs it past the corpus.
func FuzzAdjacencyChurn(f *testing.F) {
	// Connect a few pairs, then a crash and a recover.
	f.Add([]byte{0, 1, 2, 0, 2, 3, 0, 3, 1, 2, 2, 0, 3, 2, 0})
	// Growth past the initial span capacity, then disconnects.
	seed := make([]byte, 0, 60)
	for i := byte(1); i < 12; i++ {
		seed = append(seed, 0, 0, i)
	}
	seed = append(seed, 1, 0, 5, 1, 0, 1, 2, 0, 0)
	f.Add(seed)
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 4096 {
			script = script[:4096]
		}
		applyChurn(t, churnNodes, script)
	})
}
