package analysis_test

// The chain-level analyses as they were before analysis.ChainFold
// replaced them: whole-view bodies over a ChainView's maps. They are
// kept here as the references the fold is pinned against —
// FuzzChainFold on settled chain-only runs, TestChainFoldMeasuredViews
// on measured views. Below them, the log scan BuildIndex was before it
// replayed records through measure.Fold, pinned by FuzzBuildIndex and
// TestBuildIndexReferenceRealLog.

import (
	"encoding/hex"
	"errors"
	"fmt"
	"maps"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/geo"
	"repro/internal/measure"
	"repro/internal/mining"
	"repro/internal/rewards"
	"repro/internal/sim"
	"repro/internal/txgen"
	"repro/internal/types"
)

func refEmptyBlocks(view *analysis.ChainView) (*analysis.EmptyBlocksResult, error) {
	if view == nil || len(view.Main) == 0 {
		return nil, analysis.ErrNoBlocks
	}
	res := &analysis.EmptyBlocksResult{PerPool: make(map[string]analysis.PoolEmptyCount)}
	for _, meta := range view.Main {
		res.TotalMain++
		c := res.PerPool[meta.Miner]
		c.Mined++
		if meta.TxCount == 0 {
			res.TotalEmpty++
			c.Empty++
		}
		res.PerPool[meta.Miner] = c
	}
	res.Fraction = float64(res.TotalEmpty) / float64(res.TotalMain)
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

func refForks(view *analysis.ChainView) (*analysis.ForksResult, error) {
	if view == nil || len(view.Main) == 0 {
		return nil, analysis.ErrNoBlocks
	}
	res := &analysis.ForksResult{ByLength: make(map[int]analysis.ForkLengthCount)}

	// children index over off-main blocks.
	children := make(map[types.Hash][]types.Hash)
	var roots []types.Hash
	for h, meta := range view.All {
		if view.MainSet[h] {
			res.MainBlocks++
			continue
		}
		if view.UncleRefs[h] {
			res.UncleBlocks++
		} else {
			res.UnrecognizedBlocks++
		}
		if view.MainSet[meta.Parent] || meta.Number == 1 {
			roots = append(roots, h)
		} else {
			children[meta.Parent] = append(children[meta.Parent], h)
		}
	}
	sort.Slice(roots, func(i, j int) bool { return lessHash(roots[i], roots[j]) })
	for k := range children {
		hs := children[k]
		sort.Slice(hs, func(i, j int) bool { return lessHash(hs[i], hs[j]) })
	}

	var walk func(h types.Hash, acc []types.Hash)
	walk = func(h types.Hash, acc []types.Hash) {
		acc = append(acc, h)
		kids := children[h]
		if len(kids) == 0 {
			branch := analysis.ForkBranch{Blocks: append([]types.Hash(nil), acc...), Length: len(acc)}
			branch.Recognized = true
			for _, bh := range branch.Blocks {
				if view.UncleRefs[bh] {
					branch.AnyRecognized = true
				} else {
					branch.Recognized = false
				}
			}
			res.Branches = append(res.Branches, branch)
			c := res.ByLength[branch.Length]
			c.Total++
			if branch.Recognized {
				c.Recognized++
			} else {
				c.Unrecognized++
			}
			res.ByLength[branch.Length] = c
			return
		}
		for _, kid := range kids {
			walk(kid, acc)
		}
	}
	for _, root := range roots {
		walk(root, nil)
	}
	return res, nil
}

func refOneMinerForks(view *analysis.ChainView) (*analysis.OneMinerForkResult, error) {
	if view == nil || len(view.Main) == 0 {
		return nil, analysis.ErrNoBlocks
	}
	type heightKey struct {
		number uint64
		miner  string
	}
	byHeightMiner := map[heightKey][]analysis.BlockMeta{}
	forkHeights := map[uint64]bool{}
	for h, meta := range view.All {
		byHeightMiner[heightKey{meta.Number, meta.Miner}] = append(byHeightMiner[heightKey{meta.Number, meta.Miner}], meta)
		if !view.MainSet[h] {
			forkHeights[meta.Number] = true
		}
	}
	res := &analysis.OneMinerForkResult{TupleCounts: make(map[int]int)}
	extrasTotal, extrasRecognized := 0, 0
	pairsTotal, pairsSameTx := 0, 0
	oneMinerHeights := 0
	for _, metas := range byHeightMiner {
		if len(metas) < 2 {
			continue
		}
		oneMinerHeights++
		res.TupleCounts[len(metas)]++
		sort.Slice(metas, func(i, j int) bool { return lessHash(metas[i].Hash, metas[j].Hash) })
		var mainMeta *analysis.BlockMeta
		for i := range metas {
			if view.MainSet[metas[i].Hash] {
				mainMeta = &metas[i]
			}
		}
		for i := range metas {
			if view.MainSet[metas[i].Hash] {
				continue
			}
			if len(metas) <= 3 {
				extrasTotal++
				if view.UncleRefs[metas[i].Hash] {
					extrasRecognized++
				}
			}
			ref := mainMeta
			if ref == nil {
				ref = &metas[0]
			}
			if ref.Hash != metas[i].Hash {
				pairsTotal++
				if sameTxSet(ref, &metas[i]) {
					pairsSameTx++
				}
			}
		}
	}
	if extrasTotal > 0 {
		res.RecognizedFraction = float64(extrasRecognized) / float64(extrasTotal)
	}
	if pairsTotal > 0 {
		res.SameTxSetFraction = float64(pairsSameTx) / float64(pairsTotal)
	}
	if len(forkHeights) > 0 {
		res.FractionOfForks = float64(oneMinerHeights) / float64(len(forkHeights))
	}
	return res, nil
}

func sameTxSet(a, b *analysis.BlockMeta) bool {
	if len(a.TxHashes) > 0 || len(b.TxHashes) > 0 {
		if len(a.TxHashes) != len(b.TxHashes) {
			return false
		}
		set := make(map[types.Hash]bool, len(a.TxHashes))
		for _, h := range a.TxHashes {
			set[h] = true
		}
		for _, h := range b.TxHashes {
			if !set[h] {
				return false
			}
		}
		return true
	}
	return a.TxCount == b.TxCount
}

func lessHash(a, b types.Hash) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

func refDetectWithholding(view *analysis.ChainView, times map[types.Hash]sim.Time, minRun int, burstThreshold float64) (*analysis.WithholdingResult, error) {
	if view == nil || len(view.Main) < 2 {
		return nil, analysis.ErrNoBlocks
	}
	if minRun < 2 {
		return nil, fmt.Errorf("analysis: minRun %d < 2", minRun)
	}
	if burstThreshold <= 0 || burstThreshold >= 1 {
		return nil, fmt.Errorf("analysis: burst threshold %v outside (0,1)", burstThreshold)
	}
	var gaps []float64
	for i := 1; i < len(view.Main); i++ {
		a, okA := times[view.Main[i-1].Hash]
		b, okB := times[view.Main[i].Hash]
		if !okA || !okB {
			continue
		}
		g := float64(b - a)
		if g < 0 {
			g = 0
		}
		gaps = append(gaps, g)
	}
	if len(gaps) == 0 {
		return nil, fmt.Errorf("analysis: no timed consecutive blocks")
	}
	var sum float64
	for _, g := range gaps {
		sum += g
	}
	globalMean := sum / float64(len(gaps))
	if globalMean <= 0 {
		return nil, fmt.Errorf("analysis: degenerate global gap %v", globalMean)
	}

	res := &analysis.WithholdingResult{}
	i := 0
	for i < len(view.Main) {
		j := i
		for j+1 < len(view.Main) && view.Main[j+1].Miner == view.Main[i].Miner {
			j++
		}
		runLen := j - i + 1
		if runLen >= minRun {
			verdict := analysis.WithholdingVerdict{
				Pool:                view.Main[i].Miner,
				StartHeight:         view.Main[i].Number,
				Length:              runLen,
				GlobalMeanGapMillis: globalMean,
			}
			var intra []float64
			for k := i + 1; k <= j; k++ {
				a, okA := times[view.Main[k-1].Hash]
				b, okB := times[view.Main[k].Hash]
				if !okA || !okB {
					continue
				}
				g := float64(b - a)
				if g < 0 {
					g = 0
				}
				intra = append(intra, g)
			}
			if len(intra) > 0 {
				var is float64
				for _, g := range intra {
					is += g
				}
				verdict.MeanIntraGapMillis = is / float64(len(intra))
				verdict.BurstRatio = verdict.MeanIntraGapMillis / globalMean
				verdict.Flagged = verdict.BurstRatio < burstThreshold
				res.Verdicts = append(res.Verdicts, verdict)
				res.RunsExamined++
				if verdict.Flagged {
					res.FlaggedRuns++
				}
			}
		}
		i = j + 1
	}
	sort.Slice(res.Verdicts, func(a, b int) bool {
		return res.Verdicts[a].StartHeight < res.Verdicts[b].StartHeight
	})
	return res, nil
}

// errNoView is refAccounting's answer for a nil or empty view; a fold
// over one reports no rewards.
var errNoView = errors.New("rewards: nil or empty chain view")

func refAccounting(view *analysis.ChainView, s rewards.Schedule, meanGasPriceWei uint64) (map[string]*rewards.PoolRevenue, error) {
	if view == nil || len(view.Main) == 0 {
		return nil, errNoView
	}
	out := make(map[string]*rewards.PoolRevenue)
	get := func(pool string) *rewards.PoolRevenue {
		r, ok := out[pool]
		if !ok {
			r = &rewards.PoolRevenue{Pool: pool}
			out[pool] = r
		}
		return r
	}
	mainMinerAt := make(map[uint64]string, len(view.Main))
	for _, meta := range view.Main {
		mainMinerAt[meta.Number] = meta.Miner
	}
	includedAt := make(map[types.Hash]uint64)
	for _, meta := range view.Main {
		for _, u := range meta.Uncles {
			if _, dup := includedAt[u]; !dup {
				includedAt[u] = meta.Number
			}
		}
	}
	for _, meta := range view.Main {
		r := get(meta.Miner)
		r.BlocksMined++
		r.BlockRewardGwei += s.BlockRewardGwei
		r.FeeGwei += uint64(meta.TxCount) * types.TxGas * (meanGasPriceWei / rewards.WeiPerGwei)
		r.NephewGwei += uint64(len(meta.Uncles)) * s.NephewReward()
	}
	for h, include := range includedAt {
		uncle, ok := view.All[h]
		if !ok {
			continue
		}
		reward, err := s.UncleReward(uncle.Number, include)
		if err != nil {
			return nil, err
		}
		r := get(uncle.Miner)
		r.UnclesRewarded++
		r.UncleGwei += reward
		if mainMinerAt[uncle.Number] == uncle.Miner {
			r.OneMinerUncleGwei += reward
		}
	}
	return out, nil
}

// refSequences is Fig. 7 over a main chain in height order, one
// SequenceFold fed straight from the view.
func refSequences(main []analysis.BlockMeta) (*analysis.SequencesResult, error) {
	var f analysis.SequenceFold
	for _, meta := range main {
		f.Add(meta.Miner)
	}
	return f.Result()
}

// The withholding test's calibration and the fee price INC uses.
const (
	refMinRun    = analysis.DefaultWithholdingMinRun
	refThreshold = analysis.DefaultWithholdingBurstRatio
	refGasPrice  = 10_000_000_000
)

// same fails t unless a fold's result and error equal the reference's:
// reflect.DeepEqual on the results, equal messages on the errors.
func same[T any](t *testing.T, what string, got T, gotErr error, want T, wantErr error) {
	t.Helper()
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: error %v, reference %v", what, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: fold differs from the reference\n got %+v\nwant %+v", what, got, want)
	}
}

// checkFold pins every result of fold against the reference bodies
// over view, whose withholding test reads times.
func checkFold(t *testing.T, fold *analysis.ChainFold, view *analysis.ChainView, times map[types.Hash]sim.Time) {
	t.Helper()
	empty, err := fold.EmptyBlocks()
	wantEmpty, wantErr := refEmptyBlocks(view)
	same(t, "EmptyBlocks", empty, err, wantEmpty, wantErr)
	forks, err := fold.Forks()
	wantForks, wantErr := refForks(view)
	same(t, "Forks", forks, err, wantForks, wantErr)
	om, err := fold.OneMinerForks()
	wantOM, wantErr := refOneMinerForks(view)
	same(t, "OneMinerForks", om, err, wantOM, wantErr)
	seq, err := fold.Sequences()
	wantSeq, wantErr := refSequences(view.Main)
	same(t, "Sequences", seq, err, wantSeq, wantErr)
	wh, err := fold.Withholding()
	wantWH, wantErr := refDetectWithholding(view, times, refMinRun, refThreshold)
	same(t, "Withholding", wh, err, wantWH, wantErr)
	revenue, err := foldRevenue(fold)
	wantRevenue, wantErr := refAccounting(view, rewards.DefaultSchedule(), refGasPrice)
	same(t, "Rewards", revenue, err, wantRevenue, wantErr)
}

// foldRevenue prices a fold's reward tallies the way INC does.
func foldRevenue(fold *analysis.ChainFold) (map[string]*rewards.PoolRevenue, error) {
	tallies, err := fold.Rewards()
	if err != nil {
		return nil, errNoView
	}
	return rewards.Revenue(tallies, rewards.DefaultSchedule(), refGasPrice)
}

// checkView pins the analyses over a view — the fold fed from the
// view — against the reference bodies.
func checkView(t *testing.T, view *analysis.ChainView, times map[types.Hash]sim.Time) {
	t.Helper()
	fold := &analysis.ChainFold{}
	fold.TestWithholding(maps.Clone(times), refMinRun, refThreshold)
	fold.AddView(view)
	checkFold(t, fold, view, times)

	empty, err := analysis.FoldView(view).EmptyBlocks()
	wantEmpty, wantErr := refEmptyBlocks(view)
	same(t, "EmptyBlocks(view)", empty, err, wantEmpty, wantErr)
	forks, err := analysis.FoldView(view).Forks()
	wantForks, wantErr := refForks(view)
	same(t, "Forks(view)", forks, err, wantForks, wantErr)
	om, err := analysis.FoldView(view).OneMinerForks()
	wantOM, wantErr := refOneMinerForks(view)
	same(t, "OneMinerForks(view)", om, err, wantOM, wantErr)
	wh, err := analysis.DetectWithholding(view, times, refMinRun, refThreshold)
	wantWH, wantErr := refDetectWithholding(view, times, refMinRun, refThreshold)
	same(t, "DetectWithholding(view)", wh, err, wantWH, wantErr)
	acct, err := foldRevenue(analysis.FoldView(view))
	wantAcct, wantErr := refAccounting(view, rewards.DefaultSchedule(), refGasPrice)
	same(t, "Rewards(view)", acct, err, wantAcct, wantErr)
}

// foldPool builds one pool of the hand-made models below.
func foldPool(name string, share float64, region geo.Region, withhold bool) mining.PoolConfig {
	return mining.PoolConfig{
		Name: name, HashrateShare: share, GatewayRegions: []geo.Region{region},
		MultiVersionProb: 0.05, MultiVersionSameTxProb: 0.5,
		SwitchDelayMean: 300 * sim.Millisecond, Withholder: withhold,
	}
}

// foldModels are the pool models the fold is pinned on.
var foldModels = []func(*mining.Config){
	// The default model: forks, uncles, empty blocks and one-miner
	// multi-versions.
	nil,
	// The §V restricted-uncle rule.
	func(c *mining.Config) { c.Uncles.RestrictOneMinerUncles = true },
	// Two withholders: bursts of releases, the deepest reorgs.
	func(c *mining.Config) {
		c.Pools = []mining.PoolConfig{
			foldPool("A", 0.3, geo.EasternAsia, true),
			foldPool("B", 0.3, geo.NorthAmerica, true),
			foldPool("C", 0.4, geo.WesternEurope, false),
		}
	},
	// Many one-miner forks: tuples, same- and different-body
	// versions, and their uncles at every depth.
	func(c *mining.Config) {
		for i := range c.Pools {
			c.Pools[i].MultiVersionProb = 0.4
		}
	},
}

// foldMaxBlocks caps a fuzzed run's length.
const foldMaxBlocks = 20_000

// FuzzChainFold pins the settled fold against the reference bodies run
// over ViewFromTree of the whole tree: the same seed, block count and
// pool model run once keeping every block and once handing each
// settled height to a ChainFold, whose every result — withholding
// verdicts on the publish times and the priced reward tallies
// included — must DeepEqual the reference's. The view-fed fold is
// checked against the same references. The corpus covers one block,
// runs around the uncle depth (7, 8), the settle depth (64, 65) and
// the first retired batch (128, 129), 1,000 and 20,000 blocks, under
// each pool model.
func FuzzChainFold(f *testing.F) {
	for _, blocks := range []uint64{1, 7, 8, 64, 65, 128, 129, 1000, foldMaxBlocks} {
		for m := range foldModels {
			f.Add(uint64(11)+blocks, blocks, uint8(m))
		}
	}
	f.Fuzz(func(t *testing.T, seed, blocks uint64, model uint8) {
		if blocks == 0 || blocks > foldMaxBlocks {
			blocks = 1 + blocks%foldMaxBlocks
		}
		mutate := foldModels[int(model)%len(foldModels)]
		var publish map[types.Hash]sim.Time
		whole, err := core.RunChainOnly(seed, blocks, func(c *mining.Config) {
			if mutate != nil {
				mutate(c)
			}
			publish = mining.RecordPublishTimes(c)
		})
		if err != nil {
			t.Fatal(err)
		}
		view, err := analysis.ViewFromTree(whole.Tree)
		if err != nil {
			t.Fatal(err)
		}
		fold := &analysis.ChainFold{}
		var settledPublish map[types.Hash]sim.Time
		if _, err := core.RunChainOnly(seed, blocks, func(c *mining.Config) {
			if mutate != nil {
				mutate(c)
			}
			c.OnSettled = fold.Settled
			settledPublish = mining.RecordPublishTimes(c)
			fold.TestWithholding(settledPublish, refMinRun, refThreshold)
		}); err != nil {
			t.Fatalf("settled run: %v", err)
		}
		checkFold(t, fold, view, publish)
		// The fold deleted every fed height's publish times: what is
		// left stands above the head's height, which no view reaches.
		for h := range settledPublish {
			if b, ok := whole.Tree.Block(h); !ok || b.Header.Number <= whole.Tree.MaxHeight() {
				t.Fatalf("publish time of %s left behind", h.Short())
			}
		}
		checkView(t, view, publish)
	})
}

// TestChainFoldMeasuredViews pins the fold on views measured from a
// network run (ViewFromIndex, the D1–D3 and ethanalyze path): a small
// campaign under a partition, crashes, loss and churn, with the
// blocks' earliest observations as the withholding test's times; then
// the same view and a settled-run view with one height's main-chain
// block taken off, a height with no main block in the middle of the
// chain.
func TestChainFoldMeasuredViews(t *testing.T) {
	horizon := 60 * 13300 * sim.Millisecond
	cfg := core.DefaultCampaignConfig(5)
	cfg.NetworkNodes = 120
	cfg.Blocks = 60
	cfg.Streaming = true
	cfg.Mining.Pools = append([]mining.PoolConfig(nil), cfg.Mining.Pools...)
	for i := range cfg.Mining.Pools {
		cfg.Mining.Pools[i].MultiVersionProb = 0.3
	}
	cfg.Faults = &faults.Config{
		Crash: &faults.Crash{MeanBetween: horizon / 20, MeanDowntime: 30 * sim.Second},
		Partitions: []faults.Partition{{
			Start:    horizon / 4,
			Duration: horizon / 3,
			Regions:  []geo.Region{geo.EasternAsia, geo.Oceania},
		}},
		Loss:  &faults.Loss{DropProb: 0.01, ExtraDelayMean: 10 * sim.Millisecond},
		Churn: &faults.Churn{MeanBetween: horizon / 30},
	}
	res, err := core.RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	times := make(map[types.Hash]sim.Time, len(res.Index.BlockFirst))
	for h, perNode := range res.Index.BlockFirst {
		if o, ok := analysis.EarliestObservation(perNode); ok {
			times[h] = o.Local
		}
	}
	forks, err := refForks(res.View)
	if err != nil || len(forks.Branches) == 0 || forks.UncleBlocks == 0 {
		t.Fatalf("measured view too thin to compare: %+v, %v", forks, err)
	}
	checkView(t, res.View, times)
	checkView(t, withoutMain(res.View, len(res.View.Main)/2), times)

	var publish map[types.Hash]sim.Time
	whole, err := core.RunChainOnly(3, 400, func(c *mining.Config) {
		foldModels[3](c)
		publish = mining.RecordPublishTimes(c)
	})
	if err != nil {
		t.Fatal(err)
	}
	view, err := analysis.ViewFromTree(whole.Tree)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{0, 1, 100, len(view.Main) - 1} {
		checkView(t, withoutMain(view, k), publish)
	}
}

// withoutMain copies a view with the k-th main-chain block taken off
// the main chain (it stays in All, an off-main block now) and the
// uncle references rebuilt from the remaining main blocks.
func withoutMain(view *analysis.ChainView, k int) *analysis.ChainView {
	v := &analysis.ChainView{
		All:       view.All,
		UncleRefs: make(map[types.Hash]bool),
		MainSet:   make(map[types.Hash]bool),
	}
	v.Main = append(append([]analysis.BlockMeta(nil), view.Main[:k]...), view.Main[k+1:]...)
	for _, meta := range v.Main {
		v.MainSet[meta.Hash] = true
		for _, u := range meta.Uncles {
			v.UncleRefs[u] = true
		}
	}
	return v
}

// refBuildIndex is BuildIndex as a single scan of the records: each
// record updates its node's first sighting (refNoteFirst) and
// reception count directly, the first record of an item supplies its
// skeleton or identity, and the first malformed hash in record order
// fails the scan.
func refBuildIndex(ds *analysis.Dataset) (*analysis.Index, error) {
	if ds == nil || len(ds.Records) == 0 {
		return nil, measure.ErrEmptyLog
	}
	idx := &analysis.Index{
		BlockFirst:      make(map[types.Hash]map[string]analysis.Observation),
		BlockReceptions: make(map[types.Hash]map[string]map[measure.RecordKind]int),
		TxFirst:         make(map[types.Hash]map[string]analysis.Observation),
		TxMeta:          make(map[types.Hash]analysis.TxMeta),
		BlockMeta:       make(map[types.Hash]analysis.BlockMeta),
	}
	for _, r := range ds.Records {
		h, err := refParseHash(r.Hash)
		if err != nil {
			return nil, fmt.Errorf("record from %s: %w", r.Node, err)
		}
		switch r.Kind {
		case measure.KindBlock, measure.KindAnnouncement:
			refNoteFirst(idx.BlockFirst, h, r)
			perNode := idx.BlockReceptions[h]
			if perNode == nil {
				perNode = make(map[string]map[measure.RecordKind]int)
				idx.BlockReceptions[h] = perNode
			}
			perKind := perNode[r.Node]
			if perKind == nil {
				perKind = make(map[measure.RecordKind]int)
				perNode[r.Node] = perKind
			}
			perKind[r.Kind]++
			if r.Kind == measure.KindBlock {
				if _, ok := idx.BlockMeta[h]; !ok {
					meta, err := refBlockMeta(h, r)
					if err != nil {
						return nil, err
					}
					idx.BlockMeta[h] = meta
				}
			}
		case measure.KindTx:
			refNoteFirst(idx.TxFirst, h, r)
			if _, ok := idx.TxMeta[h]; !ok {
				idx.TxMeta[h] = analysis.TxMeta{Sender: r.Sender, Nonce: r.Nonce}
			}
		}
	}
	if len(idx.BlockFirst) == 0 {
		return nil, analysis.ErrNoBlocks
	}
	return idx, nil
}

func refNoteFirst(m map[types.Hash]map[string]analysis.Observation, h types.Hash, r measure.Record) {
	perNode := m[h]
	if perNode == nil {
		perNode = make(map[string]analysis.Observation)
		m[h] = perNode
	}
	prev, ok := perNode[r.Node]
	if !ok || r.LocalTime() < prev.Local {
		perNode[r.Node] = analysis.Observation{Node: r.Node, Local: r.LocalTime(), Kind: r.Kind}
	}
}

func refBlockMeta(h types.Hash, r measure.Record) (analysis.BlockMeta, error) {
	parent, err := refParseHash(r.ParentHash)
	if err != nil {
		return analysis.BlockMeta{}, fmt.Errorf("block %s parent: %w", r.Hash, err)
	}
	meta := analysis.BlockMeta{
		Hash:    h,
		Parent:  parent,
		Number:  r.Number,
		Miner:   r.Miner,
		TxCount: r.TxCount,
		Size:    r.SizeBytes,
		Extra:   r.Extra,
	}
	for _, u := range r.Uncles {
		uh, err := refParseHash(u)
		if err != nil {
			return analysis.BlockMeta{}, fmt.Errorf("block %s uncle: %w", r.Hash, err)
		}
		meta.Uncles = append(meta.Uncles, uh)
	}
	for _, txh := range r.TxHashes {
		th, err := refParseHash(txh)
		if err != nil {
			return analysis.BlockMeta{}, fmt.Errorf("block %s tx: %w", r.Hash, err)
		}
		meta.TxHashes = append(meta.TxHashes, th)
	}
	return meta, nil
}

// refParseHash decodes the 0x-prefixed hex form of types.Hash.String,
// either case.
func refParseHash(s string) (types.Hash, error) {
	var h types.Hash
	if len(s) != 2+2*types.HashLen || s[:2] != "0x" {
		return h, fmt.Errorf("analysis: malformed hash %q", s)
	}
	if _, err := hex.Decode(h[:], []byte(s[2:])); err != nil {
		return types.Hash{}, fmt.Errorf("analysis: malformed hash %q", s)
	}
	return h, nil
}

// sameIndex fails t unless BuildIndex over ds DeepEquals the
// reference scan, errors included.
func sameIndex(t *testing.T, ds *analysis.Dataset) *analysis.Index {
	t.Helper()
	got, err := analysis.BuildIndex(ds)
	want, wantErr := refBuildIndex(ds)
	if !reflect.DeepEqual(err, wantErr) {
		t.Fatalf("BuildIndex error %v, reference %v", err, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("BuildIndex differs from the reference scan\n got %+v\nwant %+v", got, want)
	}
	return got
}

// fuzzNodes and fuzzHashes are the small alphabets fuzzed logs draw
// from, so nodes and items repeat.
var (
	fuzzNodes  = []string{"NA", "EA", "WE", "CE", ""}
	fuzzKinds  = []measure.RecordKind{measure.KindBlock, measure.KindAnnouncement, measure.KindTx, "other"}
	fuzzHashes = func() []string {
		out := make([]string, 6)
		for i := range out {
			out[i] = types.HashBytes([]byte{byte(i)}).String()
		}
		// Upper-case hex is a valid spelling of the same hash.
		out[5] = "0x" + strings.ToUpper(out[0][2:])
		return out
	}()
	fuzzMalformed = []string{"", "nope", "0x12", "1x" + fuzzHashes[1][2:], fuzzHashes[1][:65] + "g"}
)

// fuzzRecords decodes a log from data, four bytes a record: node and
// kind; item; local time (eight values, so ties are common); and the
// bits that pick the block fields, the sender and nonce, and which
// hash — the item's, the parent's, an uncle's or a tx link's — is
// malformed, if any.
func fuzzRecords(data []byte) []measure.Record {
	var out []measure.Record
	hash := func(b byte) string { return fuzzHashes[int(b)%len(fuzzHashes)] }
	for ; len(data) >= 4; data = data[4:] {
		b0, b1, b2, b3 := data[0], data[1], data[2], data[3]
		r := measure.Record{
			Node:        fuzzNodes[int(b0)%len(fuzzNodes)],
			Kind:        fuzzKinds[int(b0>>4)%len(fuzzKinds)],
			Hash:        hash(b1),
			LocalMillis: int64(b2 % 8),
			TrueMillis:  int64(b2),
		}
		switch r.Kind {
		case measure.KindBlock:
			r.ParentHash = hash(b1 + 1)
			r.Number = uint64(b1 % 8)
			r.Miner = fuzzNodes[int(b3)%len(fuzzNodes)]
			r.TxCount = int(b3 % 3)
			r.SizeBytes = 500 + int(b2)
			r.Extra = uint64(b3 >> 7)
			if b3&0x08 != 0 {
				r.Uncles = []string{hash(b1 + 2)}
			}
			for i := 0; i < r.TxCount; i++ {
				r.TxHashes = append(r.TxHashes, hash(b3+byte(i)))
			}
		case measure.KindTx:
			r.Sender, r.Nonce = fuzzNodes[int(b3)%len(fuzzNodes)], uint64(b3>>5)
		}
		if bad := fuzzMalformed[int(b2>>3)%len(fuzzMalformed)]; b2&0xc0 == 0xc0 {
			switch b3 % 4 {
			case 0:
				r.Hash = bad
			case 1:
				r.ParentHash = bad
			case 2:
				r.Uncles = append(r.Uncles, bad)
			case 3:
				r.TxHashes = append(r.TxHashes, bad)
			}
		}
		out = append(out, r)
	}
	return out
}

// FuzzBuildIndex pins BuildIndex — the replay through measure.Fold —
// against the reference scan on decoded logs: several nodes (one
// unnamed), repeated items under both hex spellings, tied local times,
// announcements before and after a block's record, items seen as both
// block and transaction, one transaction under two identities,
// tx-only and unknown-kind-only logs, and malformed item, parent,
// uncle and tx-link hashes. Index and error must DeepEqual.
func FuzzBuildIndex(f *testing.F) {
	for _, seed := range [][]byte{
		nil,
		// Announcement before the block, at another node.
		{0x11, 0, 5, 0, 0x00, 0, 6, 0x08, 0x02, 0, 6, 0},
		// Tied local times across nodes and kinds.
		{0x00, 1, 3, 1, 0x11, 1, 3, 0, 0x02, 1, 3, 0, 0x13, 1, 3, 0},
		// Tx-only log; the same tx under two identities.
		{0x20, 2, 4, 0x21, 0x21, 2, 1, 0xe3, 0x22, 3, 7, 0},
		// NA logs first, but CE logs a tx before NA logs it under
		// another identity: the log's first identity wins.
		{0x00, 0, 1, 0, 0x21, 2, 2, 0x01, 0x23, 2, 3, 0x02},
		// Unknown kind only.
		{0x30, 0, 0, 0, 0x31, 1, 1, 1},
		// Upper-case spelling of a block seen in lower case.
		{0x00, 0, 4, 0, 0x01, 5, 2, 0, 0x12, 5, 1, 0},
		// A malformed item hash after a good record.
		{0x00, 0, 4, 0, 0x01, 1, 0xc0, 0},
		// A malformed parent, uncle or tx link on a block's first
		// record, each before a good record.
		{0x02, 2, 0xc8, 1, 0x10, 2, 1, 0},
		{0x00, 3, 0xd2, 0x0a, 0x10, 3, 1, 0},
		{0x01, 4, 0xe1, 0x0b, 0x10, 4, 1, 0},
		// A bad hash on an unknown-kind record still fails the log.
		{0x00, 0, 1, 0, 0x30, 1, 0xc0, 0},
		// Uncles, tx links and a malformed tx link after the meta.
		{0x00, 0, 2, 0x0a, 0x01, 0, 1, 0x0a, 0x02, 0, 0xc3, 0x03, 0x22, 1, 0, 0x40},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ds := &analysis.Dataset{Records: fuzzRecords(data)}
		sameIndex(t, ds)
	})
}

// TestBuildIndexReferenceRealLog pins the reference scan, BuildIndex
// and the campaign's own Index (the nodes' live fold) on one real log:
// a small campaign with tx links, a transaction workload and all four
// fault classes, on the serial loop and on the conductor.
func TestBuildIndexReferenceRealLog(t *testing.T) {
	horizon := 40 * 13300 * sim.Millisecond
	cfg := core.DefaultCampaignConfig(13)
	cfg.NetworkNodes = 80
	cfg.Blocks = 40
	cfg.Degree = 5
	cfg.Measurement = core.PaperMeasurementSpecs(20)
	wl := txgen.DefaultConfig()
	wl.Senders = 30
	wl.MeanInterArrival = 500 * sim.Millisecond
	cfg.Workload = &wl
	cfg.Faults = &faults.Config{
		Crash: &faults.Crash{MeanBetween: horizon / 20, MeanDowntime: 30 * sim.Second},
		Partitions: []faults.Partition{{
			Start:    horizon / 4,
			Duration: horizon / 4,
			Regions:  []geo.Region{geo.EasternAsia, geo.Oceania},
		}},
		Loss:  &faults.Loss{DropProb: 0.01, ExtraDelayMean: 10 * sim.Millisecond},
		Churn: &faults.Churn{MeanBetween: horizon / 30},
	}
	for _, shards := range []int{0, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cfg.Shards = shards
			res, err := core.RunCampaign(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var records []measure.Record
			for _, n := range res.Nodes {
				records = append(records, n.Records()...)
			}
			ds, err := analysis.FromRecords(records)
			if err != nil {
				t.Fatal(err)
			}
			idx := sameIndex(t, ds)
			if !reflect.DeepEqual(idx, res.Index) {
				t.Fatal("reference scan of the raw log differs from the campaign's Index")
			}
			if len(idx.TxFirst) == 0 || res.MessagesDropped == 0 {
				t.Fatalf("log too thin to pin: %d txs, %d dropped messages", len(idx.TxFirst), res.MessagesDropped)
			}
		})
	}
}
