package experiments

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/mining"
	"repro/internal/p2p"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Output is one row of the output table: a named analysis of one run.
// The built-in "campaign plus outputs" specs (network, T2, commit,
// chain) and every scenario file request rows by name, so a paper
// figure and the scenario output of the same name are one extractor
// with one metric set.
//
// Every row emits the same metric keys in every run: a vantage without
// a first observation reads a zero share, a pool without a flagged run
// a zero count, a quantile of an empty sample -1. The runner averages
// each key over the repeats that carry it, so a key that comes and
// goes would skew the mean.
type Output struct {
	// Name is the key scenario files request ("propagation", ...).
	Name string
	// ID is the paper artifact the row regenerates (F1, T3, ...);
	// empty for outputs the paper has no figure for.
	ID string
	// Title names the artifact.
	Title string
	// Network and Chain report the run modes the row reads.
	Network, Chain bool
	// NeedsWorkload / NeedsFaults: the run must carry a transaction
	// workload / a fault schedule.
	NeedsWorkload, NeedsFaults bool
	// extract reads the row's figure and metrics from one run.
	extract func(*source) (rendered string, metrics map[string]float64, err error)
}

// source is what the output rows read from one run.
type source struct {
	// Index and View are the run's observation index and the chain
	// reconstructed from it: an overlay campaign's, or a measurement
	// log's read back from JSONL. Nil for a chain-only run.
	Index *analysis.Index
	View  *analysis.ChainView
	// Res is the overlay campaign's result, which the transport,
	// bandwidth and availability rows read; nil for a chain-only run
	// and for a measurement log.
	Res *core.CampaignResult
	// Fold is the run's chain fold. A chain-only run feeds it as it
	// settles; otherwise View is folded when a chain row first asks,
	// so runs that request none never pay for it.
	Fold *analysis.ChainFold
	// Vantages names the measurement nodes the rows report on, in
	// display order: first_observation emits a share for each,
	// pool_first_observation renders a column for each, redundancy
	// reads the first.
	Vantages []string
	// Nodes is the overlay size (the availability denominator).
	Nodes int
	// Pools names the configured pools (withholding counts each).
	Pools []string
	// InterBlock is the configured mean inter-block time, at which
	// sequences prices a run's censorship window.
	InterBlock sim.Time
}

// fold returns the chain fold, building it from the view on first use.
func (s *source) fold() *analysis.ChainFold {
	if s.Fold == nil {
		s.Fold = analysis.FoldView(s.View)
	}
	return s.Fold
}

// outputs is the table, in paper order.
var outputs = []Output{
	{Name: "propagation", ID: "F1", Title: "Figure 1 — block propagation delay", Network: true,
		extract: func(s *source) (string, map[string]float64, error) {
			prop, err := analysis.PropagationDelays(s.Index)
			if err != nil {
				return "", nil, err
			}
			return analysis.RenderPropagation(prop), map[string]float64{
				"median_ms": prop.Summary.Median,
				"mean_ms":   prop.Summary.Mean,
				"p95_ms":    prop.Summary.P95,
				"p99_ms":    prop.Summary.P99,
			}, nil
		}},
	{Name: "first_observation", ID: "F2", Title: "Figure 2 — first observation share per region", Network: true,
		extract: func(s *source) (string, map[string]float64, error) {
			first, err := analysis.FirstObservations(s.Index)
			if err != nil {
				return "", nil, err
			}
			m := make(map[string]float64, len(s.Vantages))
			for _, v := range s.Vantages {
				m[v+"_share"] = first.Share[v]
			}
			return analysis.RenderFirstObservations(first), m, nil
		}},
	{Name: "pool_first_observation", ID: "F3", Title: "Figure 3 — first observation per mining pool", Network: true,
		extract: func(s *source) (string, map[string]float64, error) {
			pools, err := analysis.PoolFirstObservations(s.Index, 15)
			if err != nil {
				return "", nil, err
			}
			return analysis.RenderPoolObservations(pools, s.Vantages), map[string]float64{
				"sparkpool_EA_first": pools.FirstShare["Sparkpool"]["EA"],
				"pools":              float64(len(pools.Pools)),
			}, nil
		}},
	{Name: "redundancy", ID: "T2", Title: "Table II — redundant block receptions", Network: true,
		extract: func(s *source) (string, map[string]float64, error) {
			red, err := analysis.Redundancy(s.Index, s.Vantages[0])
			if err != nil {
				return "", nil, err
			}
			return analysis.RenderRedundancy(red), map[string]float64{
				"announce_mean": red.Announcements.Mean,
				"whole_mean":    red.WholeBlocks.Mean,
				"combined_mean": red.Combined.Mean,
				"combined_p99":  red.Combined.P99,
			}, nil
		}},
	{Name: "commit_times", ID: "F4", Title: "Figure 4 — transaction inclusion and commit times", Network: true, NeedsWorkload: true,
		extract: func(s *source) (string, map[string]float64, error) {
			commit, err := analysis.CommitTimes(s.Index, s.View)
			if err != nil {
				return "", nil, err
			}
			return analysis.RenderCommit(commit), map[string]float64{
				"inclusion_median_s": quantile(commit.Inclusion, 0.5),
				"inclusion_p90_s":    quantile(commit.Inclusion, 0.9),
				"conf12_median_s":    quantile(commit.Confirmations[12], 0.5),
				"txs":                float64(commit.Txs),
			}, nil
		}},
	{Name: "reordering", ID: "F5", Title: "Figure 5 — commit delay by observed ordering", Network: true, NeedsWorkload: true,
		extract: func(s *source) (string, map[string]float64, error) {
			reorder, err := analysis.Reordering(s.Index, s.View)
			if err != nil {
				return "", nil, err
			}
			return analysis.RenderReordering(reorder), map[string]float64{
				"ooo_fraction":     reorder.OutOfOrderFraction,
				"inorder_median_s": quantile(reorder.InOrder, 0.5),
				"inorder_p90_s":    quantile(reorder.InOrder, 0.9),
				"ooo_median_s":     quantile(reorder.OutOfOrder, 0.5),
				"ooo_p90_s":        quantile(reorder.OutOfOrder, 0.9),
			}, nil
		}},
	{Name: "empty_blocks", ID: "F6", Title: "Figure 6 — empty blocks per mining pool", Network: true, Chain: true,
		extract: func(s *source) (string, map[string]float64, error) {
			empty, err := s.fold().EmptyBlocks()
			if err != nil {
				return "", nil, err
			}
			return analysis.RenderEmptyBlocks(empty, 16), map[string]float64{
				"empty_fraction": empty.Fraction,
				"zhizhu_rate":    empty.PerPool["Zhizhu"].Rate(),
				"nanopool_empty": float64(empty.PerPool["Nanopool"].Empty),
			}, nil
		}},
	{Name: "forks", ID: "T3", Title: "Table III — fork types and lengths", Network: true, Chain: true,
		extract: func(s *source) (string, map[string]float64, error) {
			forks, err := s.fold().Forks()
			if err != nil {
				return "", nil, err
			}
			// fork_rate counts off-main blocks per 100 main blocks.
			rate := 0.0
			if forks.MainBlocks > 0 {
				rate = 100 * float64(forks.UncleBlocks+forks.UnrecognizedBlocks) / float64(forks.MainBlocks)
			}
			return analysis.RenderForks(forks), map[string]float64{
				"len1_total":      float64(forks.ByLength[1].Total),
				"len1_recognized": float64(forks.ByLength[1].Recognized),
				"len2_total":      float64(forks.ByLength[2].Total),
				"len3_total":      float64(forks.ByLength[3].Total),
				"main_blocks":     float64(forks.MainBlocks),
				"uncle_blocks":    float64(forks.UncleBlocks),
				"unrecognized":    float64(forks.UnrecognizedBlocks),
				"fork_rate":       rate,
			}, nil
		}},
	{Name: "one_miner_forks", ID: "S1", Title: "§III-C5 — one-miner forks", Network: true, Chain: true,
		extract: func(s *source) (string, map[string]float64, error) {
			om, err := s.fold().OneMinerForks()
			if err != nil {
				return "", nil, err
			}
			return analysis.RenderOneMinerForks(om), map[string]float64{
				"pairs":               float64(om.TupleCounts[2]),
				"triples":             float64(om.TupleCounts[3]),
				"recognized_fraction": om.RecognizedFraction,
				"same_tx_fraction":    om.SameTxSetFraction,
				"fraction_of_forks":   om.FractionOfForks,
			}, nil
		}},
	{Name: "sequences", ID: "F7", Title: "Figure 7 — consecutive main-chain sequences per pool", Network: true, Chain: true,
		extract: func(s *source) (string, map[string]float64, error) {
			seq, err := s.fold().Sequences()
			if err != nil {
				return "", nil, err
			}
			censor, err := analysis.CensorshipWindows(seq, 6, s.InterBlock.Seconds())
			if err != nil {
				return "", nil, err
			}
			maxRun := 0
			for _, r := range seq.MaxRun {
				maxRun = max(maxRun, r)
			}
			return analysis.RenderSequences(seq, 6, 9) + analysis.RenderCensorship(censor), map[string]float64{
				"max_run":           float64(maxRun),
				"ethermine_max_run": float64(seq.MaxRun["Ethermine"]),
				"sparkpool_max_run": float64(seq.MaxRun["Sparkpool"]),
			}, nil
		}},
	{Name: "transport", Title: "transport message and byte totals", Network: true,
		extract: func(s *source) (string, map[string]float64, error) {
			return fmt.Sprintf("Transport totals\n  messages %d\n  bytes    %d\n", s.Res.MessagesSent, s.Res.BytesSent),
				map[string]float64{
					"messages": float64(s.Res.MessagesSent),
					"bytes":    float64(s.Res.BytesSent),
				}, nil
		}},
	{Name: "bandwidth", Title: "per-protocol bandwidth accounting", Network: true,
		extract: func(s *source) (string, map[string]float64, error) {
			bw := s.Res.Bandwidth
			rendered, err := analysis.RenderBandwidth(bw)
			if err != nil {
				return "", nil, err
			}
			r := bw.Reconstruction
			m := map[string]float64{
				"total_messages":        float64(bw.TotalMessages),
				"total_bytes":           float64(bw.TotalBytes),
				"bytes_per_block":       bw.BytesPerBlock(),
				"reconstruct_hit_rate":  r.HitRate(),
				"reconstruct_full":      float64(r.ReconstructFull),
				"reconstruct_roundtrip": float64(r.ReconstructPartial),
				"reconstruct_fallback":  float64(r.ReconstructFallback),
			}
			// Every wire kind gets a class key; the transport lists
			// only the kinds the run sent.
			for k := p2p.MsgNewBlock; k <= p2p.MsgBlockTxns; k++ {
				m["class_"+k.String()+"_bytes"] = 0
			}
			for _, c := range bw.Classes {
				m["class_"+c.Kind.String()+"_bytes"] = float64(c.Bytes)
			}
			return rendered, m, nil
		}},
	{Name: "availability", Title: "availability under injected faults", Network: true, NeedsFaults: true,
		extract: func(s *source) (string, map[string]float64, error) {
			avail, err := availabilityFrom(s.Res, s.Nodes)
			if err != nil {
				return "", nil, err
			}
			return analysis.RenderAvailability(avail), map[string]float64{
				"availability":     avail.Availability,
				"crashes":          float64(avail.Crashes),
				"joins":            float64(avail.Joins),
				"leaves":           float64(avail.Leaves),
				"dropped_messages": float64(avail.DroppedMessages),
				"partition_s":      avail.PartitionS,
				"max_quiet_gap_s":  avail.MaxQuietGapS,
			}, nil
		}},
	{Name: "withholding", Title: "withholding burst detection", Chain: true,
		extract: func(s *source) (string, map[string]float64, error) {
			det, err := s.Fold.Withholding()
			if err != nil {
				return "", nil, err
			}
			m := map[string]float64{
				"runs_examined": float64(det.RunsExamined),
				"flagged_runs":  float64(det.FlaggedRuns),
			}
			// The pool_ prefix keeps per-pool keys disjoint from the
			// aggregates above whatever the pool is named.
			for _, p := range s.Pools {
				m["pool_"+p+"_runs"] = 0
				m["pool_"+p+"_flagged"] = 0
			}
			for _, v := range det.Verdicts {
				m["pool_"+v.Pool+"_runs"]++
				if v.Flagged {
					m["pool_"+v.Pool+"_flagged"]++
				}
			}
			return analysis.RenderWithholding(det), m, nil
		}},
}

// availabilityFrom assembles the availability summary of a faulted
// campaign result.
func availabilityFrom(res *core.CampaignResult, nodes int) (*analysis.AvailabilityResult, error) {
	quiet := make(map[string]sim.Time, len(res.Nodes))
	for _, n := range res.Nodes {
		quiet[n.Name()] = n.Fold().MaxQuietGap()
	}
	return analysis.Availability(res.Faults, nodes, res.Duration, res.MessagesDropped, quiet)
}

// quantile reads the q-quantile of e; an empty sample reads -1.
func quantile(e *stats.ECDF, q float64) float64 {
	if e == nil {
		return -1
	}
	v, err := e.Value(q)
	if err != nil {
		return -1
	}
	return v
}

// LookupOutput finds a table row by name.
func LookupOutput(name string) (Output, bool) {
	i := slices.IndexFunc(outputs, func(o Output) bool { return o.Name == name })
	if i < 0 {
		return Output{}, false
	}
	return outputs[i], true
}

// OutputNames lists every row's name, sorted.
func OutputNames() []string {
	names := make([]string, 0, len(outputs))
	for _, o := range outputs {
		names = append(names, o.Name)
	}
	sort.Strings(names)
	return names
}

// outputIDs lists the outcome IDs the named rows produce.
func outputIDs(names []string) []string {
	ids := make([]string, len(names))
	for i, name := range names {
		o, _ := LookupOutput(name)
		ids[i] = o.ID
	}
	return ids
}

// extract runs the named row over src.
func (src *source) extract(name string) (*Outcome, error) {
	o, ok := LookupOutput(name)
	if !ok {
		return nil, fmt.Errorf("unknown output %q", name)
	}
	id := o.ID
	if id == "" {
		id = name
	}
	rendered, metrics, err := o.extract(src)
	return &Outcome{ID: id, Title: o.Title, Rendered: rendered, Metrics: metrics}, err
}

// extractOutputs runs the named rows over one run, in order. Each
// outcome carries the row's paper ID, or its name when it has none.
func extractOutputs(src *source, names []string) ([]*Outcome, error) {
	out := make([]*Outcome, 0, len(names))
	for _, name := range names {
		o, err := src.extract(name)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		out = append(out, o)
	}
	return out, nil
}

// IndexOutputs extracts the named rows from a measurement log: its
// observation index and the chain reconstructed from it, reporting on
// the given vantages as CampaignOutputs does. Only rows that read the
// index and the chain apply: the rows with a paper ID (the others read
// a campaign). The censorship window is priced at the default mean
// inter-block time. Each row runs on its own: errs[i] is row i's
// failure, and outs[i] then carries only its ID and title (nil for an
// unknown name).
func IndexOutputs(idx *analysis.Index, view *analysis.ChainView, vantages, names []string) (outs []*Outcome, errs []error) {
	src := &source{Index: idx, View: view, Vantages: vantages,
		InterBlock: mining.DefaultConfig().InterBlockMean}
	outs, errs = make([]*Outcome, len(names)), make([]error, len(names))
	for i, name := range names {
		outs[i], errs[i] = src.extract(name)
	}
	return outs, errs
}

// CampaignOutputs runs one overlay campaign and extracts the named
// outputs from it, reporting on the given vantages (nil: every
// measurement node, in attachment order).
func CampaignOutputs(cfg core.CampaignConfig, vantages []string, names []string) ([]*Outcome, error) {
	res, err := core.RunCampaign(cfg)
	if err != nil {
		return nil, err
	}
	if vantages == nil {
		for _, m := range cfg.Measurement {
			vantages = append(vantages, m.Name)
		}
	}
	return extractOutputs(&source{Index: res.Index, View: res.View, Res: res, Vantages: vantages,
		Nodes: cfg.NetworkNodes, InterBlock: cfg.Mining.InterBlockMean}, names)
}

// ChainOutputs runs one settling chain-only simulation of blocks
// heights and extracts the named outputs from its fold. mutate, when
// set, adjusts the mining model first; its error fails the run.
func ChainOutputs(seed, blocks uint64, mutate func(*mining.Config) error, names []string) ([]*Outcome, error) {
	var src source
	var mutateErr error
	fold, err := settledFold(seed, blocks, func(c *mining.Config, fold *analysis.ChainFold) {
		if mutate != nil {
			mutateErr = mutate(c)
		}
		if slices.Contains(names, "withholding") {
			fold.TestWithholding(mining.RecordPublishTimes(c),
				analysis.DefaultWithholdingMinRun, analysis.DefaultWithholdingBurstRatio)
		}
		for _, p := range c.Pools {
			src.Pools = append(src.Pools, p.Name)
		}
		src.InterBlock = c.InterBlockMean
	})
	if mutateErr != nil {
		return nil, mutateErr
	}
	if err != nil {
		return nil, err
	}
	src.Fold = fold
	return extractOutputs(&src, names)
}
