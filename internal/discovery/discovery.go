// Package discovery implements a devp2p-discv4-style Kademlia node
// table: 256-bit random node identifiers, XOR distance, k-buckets and
// iterative FindNode lookups.
//
// Ethereum derives neighbor relationships from these random IDs, which
// is why the paper can assert that peer selection is independent of
// geographic location (§III-B1). The reproduction wires its overlay
// uniformly at random (a statistical shortcut); a core test wires it
// through this substrate instead and checks both wirings produce the
// same geographic findings, validating the shortcut. The fault
// injector's churn joins redial through converged tables.
package discovery

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/sim"
)

// IDLen is the identifier length in bytes (devp2p: keccak256 of the
// node key; SHA-256-sized here).
const IDLen = 32

// NodeID is a 256-bit node identifier.
type NodeID [IDLen]byte

// DefaultBucketSize is Kademlia's k (devp2p uses 16).
const DefaultBucketSize = 16

// NumBuckets is the number of distance buckets.
const NumBuckets = IDLen * 8

// RandomID draws a uniformly random identifier.
func RandomID(rng *sim.RNG) NodeID {
	var id NodeID
	for i := 0; i < IDLen; i += 8 {
		v := rng.Uint64()
		for j := 0; j < 8; j++ {
			id[i+j] = byte(v >> uint(8*j))
		}
	}
	return id
}

// IDFromLabel derives a deterministic identifier from a label.
func IDFromLabel(label string) NodeID {
	return NodeID(sha256.Sum256([]byte(label)))
}

// LogDist returns the logarithmic XOR distance between two IDs: the
// bit index (from the top) of the first differing bit, mapped to
// bucket numbers 1..256; 0 means equal.
func LogDist(a, b NodeID) int {
	for i := 0; i < IDLen; i++ {
		x := a[i] ^ b[i]
		if x != 0 {
			return NumBuckets - 8*i - bits.LeadingZeros8(x)
		}
	}
	return 0
}

// CompareDistance orders two candidate IDs by XOR distance to a
// target: negative when a is closer, positive when b is closer, zero
// when equidistant (a == b).
func CompareDistance(target, a, b NodeID) int {
	for i := 0; i < IDLen; i++ {
		da := a[i] ^ target[i]
		db := b[i] ^ target[i]
		if da != db {
			if da < db {
				return -1
			}
			return 1
		}
	}
	return 0
}

// distKey is the XOR distance from a target to an ID as four big-endian
// words: keys compare word by word exactly as CompareDistance orders
// IDs, and distinct IDs have distinct keys.
type distKey [4]uint64

func distanceKey(target, id NodeID) distKey {
	var k distKey
	for w := range k {
		k[w] = binary.BigEndian.Uint64(id[8*w:]) ^ binary.BigEndian.Uint64(target[8*w:])
	}
	return k
}

// keyed is an ID with its distance key to the target being sorted on.
type keyed struct {
	key distKey
	id  NodeID
}

func compareKeyed(a, b keyed) int {
	for w := range a.key {
		if a.key[w] != b.key[w] {
			if a.key[w] < b.key[w] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// sortUnique orders keyed IDs by distance, in place, and drops
// duplicates. No two distinct IDs share a distance, so the order is the
// one exact order there is, whatever the sort's stability.
func sortUnique(c []keyed) []keyed {
	slices.SortFunc(c, compareKeyed)
	out := c[:0]
	for i := range c {
		if i == 0 || c[i].id != c[i-1].id {
			out = append(out, c[i])
		}
	}
	return out
}

// ids returns the IDs of c in a new slice.
func ids(c []keyed) []NodeID {
	out := make([]NodeID, len(c))
	for i := range c {
		out[i] = c[i].id
	}
	return out
}

// Table is a Kademlia routing table: one k-sized bucket per
// logarithmic distance.
type Table struct {
	self    NodeID
	k       int
	buckets [NumBuckets + 1][]NodeID
	present map[NodeID]bool
	// lo and hi bound the non-empty buckets (lo > hi: none). Buckets
	// only grow, and a table of m IDs fills little more than the top
	// log2(m) of them, so closest walks that span, not all 257.
	lo, hi int
}

// Table errors.
var (
	ErrSelfInsert = errors.New("discovery: cannot insert self")
	ErrBadK       = errors.New("discovery: bucket size must be >= 1")
)

// NewTable creates a table for the given node with bucket size k.
func NewTable(self NodeID, k int) (*Table, error) {
	if k < 1 {
		return nil, ErrBadK
	}
	return &Table{self: self, k: k, present: make(map[NodeID]bool), lo: NumBuckets + 1}, nil
}

// Len returns the number of stored IDs.
func (t *Table) Len() int { return len(t.present) }

// Contains reports whether the table holds id.
func (t *Table) Contains(id NodeID) bool { return t.present[id] }

// Add inserts an ID into its distance bucket. It reports whether the
// ID was stored (false for self, duplicates, or a full bucket —
// classic Kademlia keeps old, live entries).
func (t *Table) Add(id NodeID) (bool, error) {
	if id == t.self {
		return false, ErrSelfInsert
	}
	if t.present[id] {
		return false, nil
	}
	b := LogDist(t.self, id)
	if len(t.buckets[b]) >= t.k {
		return false, nil
	}
	t.buckets[b] = append(t.buckets[b], id)
	t.present[id] = true
	t.lo, t.hi = min(t.lo, b), max(t.hi, b)
	return true, nil
}

// Closest returns up to n stored IDs ordered by XOR distance to
// target.
func (t *Table) Closest(target NodeID, n int) []NodeID {
	if n < 1 {
		return nil
	}
	return ids(t.closest(target, n, make([]keyed, 0, min(n, len(t.present)))))
}

// closest writes the n stored IDs nearest target, nearest first, over
// best (n >= 1). Bucket b holds the IDs whose distance x to self has
// its top bit at b-1, and the buckets' distances to target lie in
// disjoint ranges. With l = LogDist(self, target), bucket l's IDs are
// the nearest (their top bits cancel). A bucket b below l keeps the
// bits of self^target above b-1 and flips bit b-1, so it is nearer
// than every bucket below it iff self^target has bit b-1 set: those
// come next, from l-1 down, then the rest from 1 up. A bucket b above
// l lies at [2^(b-1), 2^b), beyond all of them, in increasing order.
// The walk takes the non-empty span of buckets in that order and stops
// at the first one it reaches with n IDs in hand, each nearer than
// anything left. Distinct IDs have distinct distances, so the result is
// exact.
func (t *Table) closest(target NodeID, n int, best []keyed) []keyed {
	l := LogDist(t.self, target)
	best = nearest(best[:0], t.buckets[l], target, n)
	for b := min(l-1, t.hi); b >= t.lo && len(best) < n; b-- {
		if xorBit(t.self, target, b-1) {
			best = nearest(best, t.buckets[b], target, n)
		}
	}
	for b := t.lo; b < l && b <= t.hi && len(best) < n; b++ {
		if !xorBit(t.self, target, b-1) {
			best = nearest(best, t.buckets[b], target, n)
		}
	}
	for b := max(l+1, t.lo); b <= t.hi && len(best) < n; b++ {
		best = nearest(best, t.buckets[b], target, n)
	}
	return best
}

// xorBit reports whether bit i (0: the least significant) of a^b is
// set.
func xorBit(a, b NodeID, i int) bool {
	j := IDLen - 1 - i/8
	return (a[j]^b[j])>>(i%8)&1 == 1
}

// nearest merges ids into best, the at most n IDs nearest target so
// far in a bounded insertion buffer, nearest first.
func nearest(best []keyed, ids []NodeID, target NodeID, n int) []keyed {
	for _, id := range ids {
		e := keyed{distanceKey(target, id), id}
		if len(best) == n && compareKeyed(e, best[n-1]) >= 0 {
			continue
		}
		if len(best) < n {
			best = append(best, e)
		}
		i := len(best) - 1
		for ; i > 0 && compareKeyed(e, best[i-1]) < 0; i-- {
			best[i] = best[i-1]
		}
		best[i] = e
	}
	return best
}

// Universe is the simulated discovery network: every participant's
// table, addressable for iterative lookups. Discovery messages are not
// latency-modeled — the table converges during a node's long uptime,
// well before measurements start (§II deploys weeks ahead of
// analysis).
type Universe struct {
	tables map[NodeID]*Table
	order  []NodeID
	k      int
	// Lookup's scratch, reused from lookup to lookup: the candidate
	// list and the buffer the next one is merged into, one findNode
	// answer, the round's queried IDs and the asked set.
	cand, next, found []keyed
	queried           []NodeID
	asked             map[NodeID]bool
}

// Universe errors.
var (
	ErrUnknownNode = errors.New("discovery: unknown node")
	ErrDuplicate   = errors.New("discovery: duplicate node")
)

// NewUniverse creates an empty discovery network with bucket size k.
func NewUniverse(k int) (*Universe, error) {
	if k < 1 {
		return nil, ErrBadK
	}
	return &Universe{tables: make(map[NodeID]*Table), k: k}, nil
}

// Join registers a node.
func (u *Universe) Join(id NodeID) error {
	if _, dup := u.tables[id]; dup {
		return fmt.Errorf("%w: %x", ErrDuplicate, id[:4])
	}
	table, err := NewTable(id, u.k)
	if err != nil {
		return err
	}
	u.tables[id] = table
	u.order = append(u.order, id)
	return nil
}

// Len returns the number of joined nodes.
func (u *Universe) Len() int { return len(u.order) }

// Table returns a node's routing table.
func (u *Universe) Table(id NodeID) (*Table, error) {
	t, ok := u.tables[id]
	if !ok {
		return nil, fmt.Errorf("%w: %x", ErrUnknownNode, id[:4])
	}
	return t, nil
}

// Lookup performs an iterative Kademlia lookup from a node toward a
// target, returning the k closest IDs found and inserting everything
// learned into the searcher's table (how discv4 fills buckets).
// Candidates carry their distance keys and stay sorted: each findNode
// answer arrives sorted and is merged in, dropping the IDs already
// listed. Distinct IDs have distinct distances, so the merged order is
// the one exact order a sort would give.
func (u *Universe) Lookup(from, target NodeID, alpha int) ([]NodeID, error) {
	self, ok := u.tables[from]
	if !ok {
		return nil, fmt.Errorf("%w: %x", ErrUnknownNode, from[:4])
	}
	if alpha < 1 {
		alpha = 3
	}
	if u.asked == nil {
		u.asked = make(map[NodeID]bool)
	}
	asked := u.asked
	clear(asked)
	asked[from] = true
	candidates, next := self.closest(target, u.k, u.cand), u.next
	for round := 0; round < 24; round++ {
		// Query the alpha closest unasked candidates (the FindNode RPC:
		// each answers with its own closest entries to the target).
		queried := u.queried[:0]
		for _, c := range candidates {
			if len(queried) >= alpha {
				break
			}
			if !asked[c.id] {
				asked[c.id] = true
				queried = append(queried, c.id)
			}
		}
		u.queried = queried
		progressed := false
		for _, q := range queried {
			t, ok := u.tables[q]
			if !ok {
				continue
			}
			u.found = t.closest(target, u.k, u.found)
			for _, learned := range u.found {
				if learned.id == from {
					continue
				}
				// Stored or bucket-full, the ID can still advance the
				// lookup frontier.
				_, _ = self.Add(learned.id)
				progressed = true
			}
			next = mergeUnique(next, candidates, u.found, from, 4*u.k)
			candidates, next = next, candidates
		}
		if len(queried) == 0 || !progressed {
			break
		}
	}
	u.cand, u.next = candidates, next
	return ids(candidates[:min(len(candidates), u.k)]), nil
}

// mergeUnique writes the first n entries of the union of a and b over
// dst, nearest first, leaving out skip. Both inputs are sorted by
// distance and free of duplicates; an ID in both is written once.
func mergeUnique(dst, a, b []keyed, skip NodeID, n int) []keyed {
	dst = dst[:0]
	i, j := 0, 0
	for len(dst) < n {
		if j < len(b) && b[j].id == skip {
			j++
			continue
		}
		var c int
		switch {
		case i == len(a) && j == len(b):
			return dst
		case i == len(a):
			c = 1
		case j == len(b):
			c = -1
		default:
			c = compareKeyed(a[i], b[j])
		}
		switch {
		case c < 0:
			dst = append(dst, a[i])
			i++
		case c > 0:
			dst = append(dst, b[j])
			j++
		default:
			dst = append(dst, a[i])
			i, j = i+1, j+1
		}
	}
	return dst
}

// Bootstrap seeds every node with `seeds` random contacts and runs
// `lookups` iterative self-lookups plus random-target lookups per
// node, converging the tables the way a long-running devp2p node
// does.
func (u *Universe) Bootstrap(rng *sim.RNG, seeds, lookups int) error {
	n := len(u.order)
	if n < 2 {
		return nil
	}
	if seeds < 1 {
		seeds = 1
	}
	for _, id := range u.order {
		table := u.tables[id]
		for s := 0; s < seeds; s++ {
			contact := u.order[rng.IntN(n)]
			if contact == id {
				continue
			}
			if _, err := table.Add(contact); err != nil && !errors.Is(err, ErrSelfInsert) {
				return err
			}
		}
	}
	for round := 0; round < lookups; round++ {
		for _, id := range u.order {
			target := id
			if round > 0 {
				target = RandomID(rng)
			}
			if _, err := u.Lookup(id, target, 3); err != nil {
				return err
			}
		}
	}
	return nil
}

// SamplePeers draws up to n peer IDs for a node from its converged
// table, uniformly across stored entries — how a devp2p node picks
// dial targets. Returns an error for unknown nodes.
func (u *Universe) SamplePeers(rng *sim.RNG, id NodeID, n int) ([]NodeID, error) {
	t, ok := u.tables[id]
	if !ok {
		return nil, fmt.Errorf("%w: %x", ErrUnknownNode, id[:4])
	}
	byDist := make([]keyed, 0, len(t.present))
	for b := range t.buckets {
		for _, e := range t.buckets[b] {
			byDist = append(byDist, keyed{distanceKey(id, e), e})
		}
	}
	entries := ids(sortUnique(byDist))
	sim.Shuffle(rng, entries)
	if len(entries) > n {
		entries = entries[:n]
	}
	return entries, nil
}
