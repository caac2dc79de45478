package analysis

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/chain"
	"repro/internal/sim"
	"repro/internal/types"
)

// ChainFold computes the chain-level analyses one height at a time, in
// height order: Fig. 6 (EmptyBlocks), Table III (Forks), §III-C5
// (OneMinerForks), Fig. 7 (Sequences), the §III-D withholding verdicts
// (TestWithholding) and the reward tallies behind the incentive
// accounting (Rewards). A settling chain-only run feeds it the heights
// its tree retires (Settled as mining.Config.OnSettled), so no run
// holds its whole chain; the analyses over a ChainView are the same
// fold fed from the view (FoldView).
//
// A block can be named as an uncle up to types.MaxUncleDepth heights
// above its own, so the fold holds that many heights back before it
// judges one: its uncle recognition is then final. A ChainView's
// UncleRefs are the uncles its main-chain blocks name, always from
// within that depth; the fold reads the names themselves.
//
// The zero value is an empty fold. Reading any result ends it.
type ChainFold struct {
	// pending are the fed heights still open to uncle references,
	// oldest first; spare recycles their storage.
	pending []*foldHeight
	spare   []*foldHeight
	// last is the number and main-chain hash of the last judged
	// height, the parent a fork root hangs from.
	last        uint64
	lastMain    types.Hash
	lastHasMain bool
	done        bool

	// Fig. 6.
	totalMain, totalEmpty int
	perPool               map[string]PoolEmptyCount

	// Table III: the off-main blocks of the last judged height that
	// hang from a root (open), the roots whose branches may still
	// grow, and the closed roots' branches, each root's together.
	uncleBlocks, unrecognized int
	open, nextOpen            []*forkNode
	roots                     []*forkNode
	branches                  []ForkBranch
	byLength                  map[int]ForkLengthCount

	// §III-C5.
	tupleCounts                   map[int]int
	oneMinerHeights, forkHeights  int
	extrasTotal, extrasRecognized int
	pairsTotal, pairsSameTx       int
	group                         []int

	// Fig. 7.
	seq SequenceFold

	// §III-D, when armed.
	wh *withholdingFold

	// The incentive accounting's inputs.
	rewards map[string]*RewardTally

	scratch []BlockMeta
}

// foldHeight is one fed height: its blocks, each with the height of
// the first main-chain block that named it (0 while none has), and the
// index of its main-chain block (-1 when none was fed).
type foldHeight struct {
	number uint64
	main   int
	blocks []foldBlock
}

type foldBlock struct {
	BlockMeta
	namedAt uint64
}

// forkNode is an off-main block that hangs, through off-main parents,
// from a main-chain block.
type forkNode struct {
	hash       types.Hash
	recognized bool
	root       *forkNode
	kids       []*forkNode
}

// RewardTally is what one pool's blocks earned under the reward rules,
// counted: rewards.Revenue prices it with a schedule.
type RewardTally struct {
	// Mined counts the pool's main-chain blocks, Txs their
	// transactions and Nephews the uncles they name.
	Mined   int
	Txs     uint64
	Nephews uint64
	// Uncles[d] counts the pool's off-main blocks first named as an
	// uncle d heights above their own; OneMinerUncles[d] those of
	// them at heights whose main-chain block the pool mined too.
	Uncles         [types.MaxUncleDepth + 1]int
	OneMinerUncles [types.MaxUncleDepth + 1]int
}

// FoldView runs a fold over a chain view, height by height.
func FoldView(view *ChainView) *ChainFold {
	f := &ChainFold{}
	f.AddView(view)
	return f
}

// AddView feeds a chain view's heights, lowest first. A height below
// or outside the view's main chain (a measured view's first heights,
// whose main-chain blocks nobody observed) is fed without one.
func (f *ChainFold) AddView(view *ChainView) {
	if view == nil {
		return
	}
	byHeight := make(map[uint64][]BlockMeta)
	for _, meta := range view.All {
		byHeight[meta.Number] = append(byHeight[meta.Number], meta)
	}
	mainAt := make(map[uint64]BlockMeta, len(view.Main))
	for _, meta := range view.Main {
		mainAt[meta.Number] = meta
		if _, ok := view.All[meta.Hash]; !ok {
			byHeight[meta.Number] = append(byHeight[meta.Number], meta)
		}
	}
	heights := make([]uint64, 0, len(byHeight))
	for n := range byHeight {
		heights = append(heights, n)
	}
	sort.Slice(heights, func(i, j int) bool { return heights[i] < heights[j] })
	for _, n := range heights {
		blocks := byHeight[n]
		sort.Slice(blocks, func(i, j int) bool { return lessHash(blocks[i].Hash, blocks[j].Hash) })
		main := -1
		if m, ok := mainAt[n]; ok {
			for i := range blocks {
				if blocks[i].Hash == m.Hash {
					main = i
				}
			}
		}
		f.add(blocks, main)
	}
}

// Settled feeds one height a settling chain-only run retires; it is
// the fold's mining.Config.OnSettled. Genesis is skipped: the paper's
// counts are over real blocks, as in ViewFromTree.
func (f *ChainFold) Settled(h chain.Height) {
	if h.Main.Header.Number == 0 {
		return
	}
	blocks, main := f.scratch[:0], -1
	for i, b := range h.Blocks {
		if b == h.Main {
			main = i
		}
		blocks = append(blocks, metaFromBlock(b, true))
	}
	f.add(blocks, main)
	f.scratch = blocks
}

// add feeds the next height: all its blocks, and the index among them
// of its main-chain block (-1 when it has none). Heights come in
// ascending order; the fold copies what it keeps.
func (f *ChainFold) add(blocks []BlockMeta, main int) {
	if f.done {
		panic("analysis: ChainFold fed after a result was read")
	}
	if len(blocks) == 0 {
		return
	}
	n := blocks[0].Number
	fh := f.newHeight(n, main)
	for _, b := range blocks {
		fh.blocks = append(fh.blocks, foldBlock{BlockMeta: b})
	}
	if main >= 0 {
		f.addMain(&blocks[main])
	}
	if f.wh != nil {
		for i := range blocks {
			delete(f.wh.times, blocks[i].Hash)
		}
	}
	f.pending = append(f.pending, fh)
	for len(f.pending) > 0 && f.pending[0].number+types.MaxUncleDepth <= n {
		f.judge(f.pending[0])
		f.spare = append(f.spare, f.pending[0])
		f.pending = f.pending[:copy(f.pending, f.pending[1:])]
	}
}

func (f *ChainFold) newHeight(n uint64, main int) *foldHeight {
	var fh *foldHeight
	if k := len(f.spare); k > 0 {
		fh, f.spare = f.spare[k-1], f.spare[:k-1]
	} else {
		fh = &foldHeight{}
	}
	clear(fh.blocks)
	fh.number, fh.main, fh.blocks = n, main, fh.blocks[:0]
	return fh
}

// addMain takes in a main-chain block: everything it settles at once,
// and the uncles it names among the pending heights.
func (f *ChainFold) addMain(m *BlockMeta) {
	f.totalMain++
	if f.perPool == nil {
		f.perPool = make(map[string]PoolEmptyCount)
	}
	c := f.perPool[m.Miner]
	c.Mined++
	if m.TxCount == 0 {
		f.totalEmpty++
		c.Empty++
	}
	f.perPool[m.Miner] = c
	f.seq.Add(m.Miner)
	t := f.tally(m.Miner)
	t.Mined++
	t.Txs += uint64(m.TxCount)
	t.Nephews += uint64(len(m.Uncles))
	if f.wh != nil {
		f.wh.add(m)
	}
	for _, u := range m.Uncles {
		f.name(u, m.Number)
	}
}

// name records that the main-chain block at height at names u, if u
// is a pending block no earlier one named.
func (f *ChainFold) name(u types.Hash, at uint64) {
	for _, fh := range f.pending {
		for i := range fh.blocks {
			if b := &fh.blocks[i]; b.Hash == u {
				if b.namedAt == 0 {
					b.namedAt = at
				}
				return
			}
		}
	}
}

func (f *ChainFold) tally(pool string) *RewardTally {
	if f.rewards == nil {
		f.rewards = make(map[string]*RewardTally)
	}
	t, ok := f.rewards[pool]
	if !ok {
		t = &RewardTally{}
		f.rewards[pool] = t
	}
	return t
}

// judge folds a height no later block can name as an uncle.
func (f *ChainFold) judge(fh *foldHeight) {
	mainMiner := ""
	if fh.main >= 0 {
		mainMiner = fh.blocks[fh.main].Miner
	}
	forked := false
	f.nextOpen = f.nextOpen[:0]
	for i := range fh.blocks {
		if i == fh.main {
			continue
		}
		b := &fh.blocks[i]
		forked = true
		recognized := b.namedAt != 0
		if recognized {
			f.uncleBlocks++
			d := b.namedAt - fh.number
			t := f.tally(b.Miner)
			t.Uncles[d]++
			if b.Miner == mainMiner {
				t.OneMinerUncles[d]++
			}
		} else {
			f.unrecognized++
		}
		node := &forkNode{hash: b.Hash, recognized: recognized}
		// A block at height 1 stands on genesis, the main chain's
		// block at height 0, which no view counts among its blocks.
		if fh.number == 1 || f.lastHasMain && f.last+1 == fh.number && b.Parent == f.lastMain {
			node.root = node
			f.roots = append(f.roots, node)
		} else if parent := findNode(f.open, b.Parent); parent != nil {
			node.root = parent.root
			parent.kids = append(parent.kids, node)
		} else {
			// Its parent was never observed: it opens no branch.
			continue
		}
		f.nextOpen = append(f.nextOpen, node)
	}
	f.open, f.nextOpen = f.nextOpen, f.open
	// A root none of whose blocks stands at this height can grow no
	// further.
	kept := f.roots[:0]
	for _, r := range f.roots {
		growing := false
		for _, n := range f.open {
			if n.root == r {
				growing = true
				break
			}
		}
		if growing {
			kept = append(kept, r)
		} else {
			f.closeRoot(r)
		}
	}
	clear(f.roots[len(kept):])
	f.roots = kept
	if forked {
		f.forkHeights++
	}
	f.judgeOneMiner(fh)
	f.last, f.lastHasMain = fh.number, fh.main >= 0
	if f.lastHasMain {
		f.lastMain = fh.blocks[fh.main].Hash
	}
}

func findNode(nodes []*forkNode, h types.Hash) *forkNode {
	for _, n := range nodes {
		if n.hash == h {
			return n
		}
	}
	return nil
}

// closeRoot files a root's branches, one per path to a leaf, children
// in hash order.
func (f *ChainFold) closeRoot(root *forkNode) {
	var walk func(n *forkNode, path []*forkNode)
	walk = func(n *forkNode, path []*forkNode) {
		path = append(path, n)
		if len(n.kids) > 0 {
			sort.Slice(n.kids, func(i, j int) bool { return lessHash(n.kids[i].hash, n.kids[j].hash) })
			for _, kid := range n.kids {
				walk(kid, path)
			}
			return
		}
		branch := ForkBranch{Blocks: make([]types.Hash, len(path)), Length: len(path), Recognized: true}
		for i, node := range path {
			branch.Blocks[i] = node.hash
			if node.recognized {
				branch.AnyRecognized = true
			} else {
				branch.Recognized = false
			}
		}
		if f.byLength == nil {
			f.byLength = make(map[int]ForkLengthCount)
		}
		c := f.byLength[branch.Length]
		c.Total++
		if branch.Recognized {
			c.Recognized++
		} else {
			c.Unrecognized++
		}
		f.byLength[branch.Length] = c
		f.branches = append(f.branches, branch)
	}
	walk(root, nil)
}

// judgeOneMiner folds a height's same-miner groups (§III-C5).
func (f *ChainFold) judgeOneMiner(fh *foldHeight) {
	for i := range fh.blocks {
		miner := fh.blocks[i].Miner
		first := true
		for j := 0; j < i; j++ {
			if fh.blocks[j].Miner == miner {
				first = false
				break
			}
		}
		if !first {
			continue
		}
		group := f.group[:0]
		for j := i; j < len(fh.blocks); j++ {
			if fh.blocks[j].Miner == miner {
				group = append(group, j)
			}
		}
		f.group = group
		if len(group) < 2 {
			continue
		}
		if f.tupleCounts == nil {
			f.tupleCounts = make(map[int]int)
		}
		f.oneMinerHeights++
		f.tupleCounts[len(group)]++
		sort.Slice(group, func(a, b int) bool { return lessHash(fh.blocks[group[a]].Hash, fh.blocks[group[b]].Hash) })
		ref := &fh.blocks[group[0]]
		for _, g := range group {
			if g == fh.main {
				ref = &fh.blocks[g]
			}
		}
		for _, g := range group {
			if g == fh.main {
				continue
			}
			b := &fh.blocks[g]
			if len(group) <= 3 {
				f.extrasTotal++
				if b.namedAt != 0 {
					f.extrasRecognized++
				}
			}
			if ref.Hash != b.Hash {
				f.pairsTotal++
				if sameTxSet(&ref.BlockMeta, &b.BlockMeta) {
					f.pairsSameTx++
				}
			}
		}
	}
}

// finish judges the pending heights and closes the open roots.
func (f *ChainFold) finish() {
	if f.done {
		return
	}
	f.done = true
	for _, fh := range f.pending {
		f.judge(fh)
	}
	f.pending = nil
	for _, r := range f.roots {
		f.closeRoot(r)
	}
	f.roots, f.open = nil, nil
	if f.wh != nil {
		f.wh.closeRun()
	}
}

// EmptyBlocks ends the fold with Fig. 6.
func (f *ChainFold) EmptyBlocks() (*EmptyBlocksResult, error) {
	f.finish()
	if f.totalMain == 0 {
		return nil, ErrNoBlocks
	}
	res := &EmptyBlocksResult{
		TotalMain:  f.totalMain,
		TotalEmpty: f.totalEmpty,
		Fraction:   float64(f.totalEmpty) / float64(f.totalMain),
		PerPool:    f.perPool,
	}
	for p := range res.PerPool {
		res.Pools = append(res.Pools, p)
	}
	sort.Slice(res.Pools, func(i, j int) bool {
		a, b := res.PerPool[res.Pools[i]], res.PerPool[res.Pools[j]]
		if a.Mined != b.Mined {
			return a.Mined > b.Mined
		}
		return res.Pools[i] < res.Pools[j]
	})
	return res, nil
}

// Forks ends the fold with Table III: off-main blocks grouped into
// parent-linked branches rooted at a main-chain block, in the order of
// their roots' hashes.
func (f *ChainFold) Forks() (*ForksResult, error) {
	f.finish()
	if f.totalMain == 0 {
		return nil, ErrNoBlocks
	}
	res := &ForksResult{
		ByLength:           f.byLength,
		MainBlocks:         f.totalMain,
		UncleBlocks:        f.uncleBlocks,
		UnrecognizedBlocks: f.unrecognized,
	}
	if res.ByLength == nil {
		res.ByLength = make(map[int]ForkLengthCount)
	}
	// A branch starts at its root; the stable sort keeps each root's
	// branches in walk order.
	sort.SliceStable(f.branches, func(i, j int) bool { return lessHash(f.branches[i].Blocks[0], f.branches[j].Blocks[0]) })
	res.Branches = f.branches
	return res, nil
}

// OneMinerForks ends the fold with §III-C5.
func (f *ChainFold) OneMinerForks() (*OneMinerForkResult, error) {
	f.finish()
	if f.totalMain == 0 {
		return nil, ErrNoBlocks
	}
	res := &OneMinerForkResult{TupleCounts: f.tupleCounts}
	if res.TupleCounts == nil {
		res.TupleCounts = make(map[int]int)
	}
	if f.extrasTotal > 0 {
		res.RecognizedFraction = float64(f.extrasRecognized) / float64(f.extrasTotal)
	}
	if f.pairsTotal > 0 {
		res.SameTxSetFraction = float64(f.pairsSameTx) / float64(f.pairsTotal)
	}
	if f.forkHeights > 0 {
		res.FractionOfForks = float64(f.oneMinerHeights) / float64(f.forkHeights)
	}
	return res, nil
}

// Sequences ends the fold with Fig. 7.
func (f *ChainFold) Sequences() (*SequencesResult, error) {
	f.finish()
	return f.seq.Result()
}

// Rewards ends the fold with each pool's reward tally: every pool that
// mined a main-chain block or an uncle named from one.
func (f *ChainFold) Rewards() (map[string]*RewardTally, error) {
	f.finish()
	if f.totalMain == 0 {
		return nil, ErrNoBlocks
	}
	return f.rewards, nil
}

// TestWithholding arms the §III-D burst test: same-miner main-chain
// runs of at least minRun blocks, judged by the publish or observation
// times in times against burstThreshold. Call it before the first
// height; the fold deletes each fed height's blocks from times, so a
// run's publish map holds only the heights not yet fed.
func (f *ChainFold) TestWithholding(times map[types.Hash]sim.Time, minRun int, burstThreshold float64) {
	f.wh = &withholdingFold{times: times, minRun: minRun, threshold: burstThreshold}
}

// Withholding ends the fold with the burst test's verdicts.
func (f *ChainFold) Withholding() (*WithholdingResult, error) {
	f.finish()
	if f.wh == nil {
		return nil, errors.New("analysis: withholding test not armed")
	}
	return f.wh.result()
}

// withholdingFold is the burst test one main-chain block at a time:
// the chain-wide gap sum and the open same-miner run. A closed run's
// verdict waits for the chain-wide mean gap.
type withholdingFold struct {
	times     map[types.Hash]sim.Time
	minRun    int
	threshold float64

	mains     int
	prev      sim.Time
	prevTimed bool
	gapSum    float64
	gaps      int

	run      WithholdingVerdict
	intraSum float64
	intra    int
	verdicts []WithholdingVerdict
}

func (w *withholdingFold) add(m *BlockMeta) {
	t, timed := w.times[m.Hash]
	same := w.mains > 0 && m.Miner == w.run.Pool
	if w.mains > 0 && timed && w.prevTimed {
		g := float64(t - w.prev)
		if g < 0 {
			g = 0
		}
		w.gapSum += g
		w.gaps++
		if same {
			w.intraSum += g
			w.intra++
		}
	}
	if !same {
		w.closeRun()
		w.run = WithholdingVerdict{Pool: m.Miner, StartHeight: m.Number}
		w.intraSum, w.intra = 0, 0
	}
	w.run.Length++
	w.mains++
	w.prev, w.prevTimed = t, timed
}

// closeRun files the open run when it is long enough and timed.
func (w *withholdingFold) closeRun() {
	if w.run.Length >= w.minRun && w.intra > 0 {
		v := w.run
		v.MeanIntraGapMillis = w.intraSum / float64(w.intra)
		w.verdicts = append(w.verdicts, v)
	}
	w.run = WithholdingVerdict{}
}

func (w *withholdingFold) result() (*WithholdingResult, error) {
	if w.mains < 2 {
		return nil, ErrNoBlocks
	}
	if w.minRun < 2 {
		return nil, fmt.Errorf("analysis: minRun %d < 2", w.minRun)
	}
	if w.threshold <= 0 || w.threshold >= 1 {
		return nil, fmt.Errorf("analysis: burst threshold %v outside (0,1)", w.threshold)
	}
	if w.gaps == 0 {
		return nil, fmt.Errorf("analysis: no timed consecutive blocks")
	}
	globalMean := w.gapSum / float64(w.gaps)
	if globalMean <= 0 {
		return nil, fmt.Errorf("analysis: degenerate global gap %v", globalMean)
	}
	res := &WithholdingResult{}
	for _, v := range w.verdicts {
		v.GlobalMeanGapMillis = globalMean
		v.BurstRatio = v.MeanIntraGapMillis / globalMean
		v.Flagged = v.BurstRatio < w.threshold
		res.Verdicts = append(res.Verdicts, v)
		res.RunsExamined++
		if v.Flagged {
			res.FlaggedRuns++
		}
	}
	return res, nil
}
