package p2p

import (
	"cmp"
	"slices"
)

// CSR-style adjacency for the struct-of-arrays node core.
//
// All peer lists live in one shared arena: node i owns the contiguous
// window adj[spans[i].off : spans[i].off+spans[i].len], in dial order
// (the exact order the old per-node []*Node peer slices kept, so every
// fan-out permutation and candidate scan draws identically). Two
// parallel arenas ride on the same edge indexing:
//
//   - revAdj[e] is the *position* (not offset) of the reverse edge in
//     the target's span. Positions survive span relocation, so only
//     in-span shifts (Disconnect, CrashNode) need fixups — and each
//     fixup is O(1) because the reverse edge tells us where to look.
//     Sends capture revAdj so the receiver can mark per-peer knowledge
//     without scanning its span (measurement nodes hold thousands of
//     peers).
//   - knowMask[e] is the per-directed-edge suppression word: bit s set
//     means the peer on this edge is known to have the block in window
//     slot s of the owning node's recent-block window (see know.go).
//
// Growth is the mutable overflow path churn and rewiring need: a full
// span relocates to the arena tail with doubled capacity, leaving its
// old window dead. Hub attachment makes that the common case, not the
// exception: a pool gateway or measurement node wired to thousands of
// peers pushes most of their spans past capacity, and without reuse
// the 10k-node campaign's arena held 918,632 cells (1,079,296 of slice
// capacity) for 379,982 live edges. So grow first compacts the arena
// in place whenever its dead cells exceed a fixed share of the spans'
// summed capacity (compact, adjCompactShare); docs/PERFORMANCE.md
// ("Memory layout") has the cell counts measured since. The arena's
// three arrays are allocated once, at the size Network.Reserve derives
// from the campaign's edge count (arenaCells); an arena that outgrows
// it doubles.

// adjCompactShare bounds arena garbage: grow compacts once the dead
// cells exceed capSum/adjCompactShare. Every cell a relocation kills is
// matched by at least as much new capacity (doubling a span kills its
// old cap and adds as much again), so from one compaction to the next
// capSum grows by more than 1/(adjCompactShare-1) — a third at 4 — and
// the copying stays amortised O(1) per cell. A quarter holds the arena
// to 1.25× its windows (plus the window being relocated) for about one
// full copy per 4/3× of growth; small arenas are cheap to copy, so
// there is no absolute floor.
const adjCompactShare = 4

// arenaCells is the arena length a network holding live edge cells
// stays within, the size Network.Reserve gives the arena. Spans double
// when full, so a span's capacity is at most twice its length (for any
// span of at least adjInitialCap/2 peers, i.e. every node that dials
// four or more), and capSum at most twice the live cells; grow keeps
// the dead cells within capSum/adjCompactShare. So the arena holds at
// most 2 × (1 + 1/adjCompactShare) = 5/2 cells per live cell, plus the
// one window a relocation has just killed. The 10k-node campaign
// reaches 556,264 cells for 379,982 live (1.46 per live cell). Nothing
// writes the reserved tail before a window lands in it, so on pages
// fresh from the OS it costs address space rather than resident memory.
func arenaCells(live int) int {
	return live * 2 * (adjCompactShare + 1) / adjCompactShare
}

// span is one node's window into the adjacency arena.
type span struct {
	off, len, cap int32
}

// adjacency is the network-owned CSR peer table.
type adjacency struct {
	spans    []span
	adj      []int32  // peer node indices (NodeID-1)
	revAdj   []int32  // position of the reverse edge in the peer's span
	knowMask []uint64 // per-edge recent-window suppression bits
	// capSum is the sum of the spans' capacities: every arena cell
	// beyond it is a dead window.
	capSum int
	// order is compact's scratch (the spans in offset order), kept so
	// that each compaction reuses it.
	order []int32
}

const adjInitialCap = 8

// addNode appends an empty span for a freshly registered node.
func (t *adjacency) addNode() {
	t.spans = append(t.spans, span{})
}

// degree returns node i's current connection count.
func (t *adjacency) degree(i int32) int { return int(t.spans[i].len) }

// peerAt returns the peer index at position p of node i's span.
func (t *adjacency) peerAt(i int32, p int32) int32 {
	return t.adj[t.spans[i].off+p]
}

// position scans node i's span for peer j, returning its position or
// -1. O(degree); hot paths avoid it by carrying positions (fromPos on
// deliveries, revAdj on sends).
func (t *adjacency) position(i, j int32) int32 {
	s := t.spans[i]
	base := t.adj[s.off : s.off+s.len : s.off+s.len]
	for p := range base {
		if base[p] == j {
			return int32(p)
		}
	}
	return -1
}

// connected reports whether i and j share an edge, scanning the
// shorter span so attaching a huge-degree node stays cheap.
func (t *adjacency) connected(i, j int32) bool {
	if t.spans[j].len < t.spans[i].len {
		i, j = j, i
	}
	return t.position(i, j) >= 0
}

// grow relocates node i's span to the arena tail with at least double
// the capacity, copying edges, reverse positions and suppression masks.
// It compacts first when the arena's garbage passes its bound.
func (t *adjacency) grow(i int32) {
	if len(t.adj)-t.capSum > t.capSum/adjCompactShare {
		t.compact()
	}
	// Read the span only now: compaction moves every window.
	s := t.spans[i]
	newCap := s.cap * 2
	if newCap < adjInitialCap {
		newCap = adjInitialCap
	}
	newOff := int32(len(t.adj))
	end := int(newOff + newCap)
	if end > cap(t.adj) {
		t.reserve(max(end, 2*cap(t.adj)))
	}
	// The new window's cells past s.len are not cleared: link writes
	// all three arrays before any reader looks past a span's length.
	t.adj = t.adj[:end]
	t.revAdj = t.revAdj[:end]
	t.knowMask = t.knowMask[:end]
	copy(t.adj[newOff:newOff+s.len], t.adj[s.off:s.off+s.len])
	copy(t.revAdj[newOff:newOff+s.len], t.revAdj[s.off:s.off+s.len])
	copy(t.knowMask[newOff:newOff+s.len], t.knowMask[s.off:s.off+s.len])
	t.spans[i] = span{off: newOff, len: s.len, cap: newCap}
	t.capSum += int(newCap - s.cap)
}

// reserve gives the arena's three arrays capacity for cells cells.
func (t *adjacency) reserve(cells int) {
	t.adj = grownTo(t.adj, cells)
	t.revAdj = grownTo(t.revAdj, cells)
	t.knowMask = grownTo(t.knowMask, cells)
}

// compact slides every window down over the dead cells, in offset
// order, keeping each span's capacity; the arena's backing arrays are
// reused, so the relocation that follows appends into the freed tail.
// Cells move with their edges — positions, reverse positions and masks
// are per-span, so only the offsets change and no reader sees a
// different peer, mask or draw.
//
// Compaction rewrites every node's offset, so it is sound only while
// no lane is running: link, grow's one caller, runs while the overlay
// is built and in phase A (fault rewiring, churn joins), when every
// region lane is idle.
func (t *adjacency) compact() {
	order := grownTo(t.order[:0], len(t.spans))
	for i, s := range t.spans {
		if s.cap > 0 {
			order = append(order, int32(i))
		}
	}
	slices.SortFunc(order, func(a, b int32) int { return cmp.Compare(t.spans[a].off, t.spans[b].off) })
	var w int32
	for _, i := range order {
		s := &t.spans[i]
		// w never passes s.off: every window before this one ended
		// at or below it, so each copy moves cells down or not at all.
		copy(t.adj[w:w+s.len], t.adj[s.off:s.off+s.len])
		copy(t.revAdj[w:w+s.len], t.revAdj[s.off:s.off+s.len])
		copy(t.knowMask[w:w+s.len], t.knowMask[s.off:s.off+s.len])
		s.off = w
		w += s.cap
	}
	t.adj = t.adj[:w]
	t.revAdj = t.revAdj[:w]
	t.knowMask = t.knowMask[:w]
	t.order = order
}

// link appends the undirected edge i<->j, wiring both reverse
// positions. The caller has already checked limits and duplicates.
func (t *adjacency) link(i, j int32) {
	if t.spans[i].len == t.spans[i].cap {
		t.grow(i)
	}
	if t.spans[j].len == t.spans[j].cap {
		t.grow(j)
	}
	si, sj := &t.spans[i], &t.spans[j]
	ei := si.off + si.len
	ej := sj.off + sj.len
	t.adj[ei] = j
	t.adj[ej] = i
	t.revAdj[ei] = sj.len
	t.revAdj[ej] = si.len
	t.knowMask[ei] = 0
	t.knowMask[ej] = 0
	si.len++
	sj.len++
}

// removeAt deletes the edge at position p of node i's span,
// shifting later entries left (order-preserving, so surviving peer
// iteration stays deterministic) and repairing the reverse positions
// of every shifted edge. Returns the suppression mask the removed edge
// held, so the caller can preserve its knowledge (spill list).
func (t *adjacency) removeAt(i int32, p int32) uint64 {
	s := &t.spans[i]
	e := s.off + p
	mask := t.knowMask[e]
	for q := p + 1; q < s.len; q++ {
		from := s.off + q
		to := from - 1
		peer := t.adj[from]
		t.adj[to] = peer
		t.revAdj[to] = t.revAdj[from]
		t.knowMask[to] = t.knowMask[from]
		// The reverse edge stored position q for us; it is now q-1.
		t.revAdj[t.spans[peer].off+t.revAdj[from]] = q - 1
	}
	s.len--
	return mask
}

// unlink removes the undirected edge between i and j, returning the
// two suppression masks (i's view of j, j's view of i). ok reports
// whether the edge existed.
func (t *adjacency) unlink(i, j int32) (maskI, maskJ uint64, ok bool) {
	pi := t.position(i, j)
	if pi < 0 {
		return 0, 0, false
	}
	pj := t.revAdj[t.spans[i].off+pi]
	maskJ = t.removeAt(j, pj)
	maskI = t.removeAt(i, pi)
	return maskI, maskJ, true
}
