package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/store"
)

// workers pins every worker count the harness controls: runner
// Parallel, Shards, ethserve executors and budget, HTTP clients.
const workers = 2

// workload is one named benchmark input. Later issues refer to the
// workloads by these names; why is the reason BENCHMARK.json records.
type workload struct {
	name string
	why  string
	// reps is the rep count of one local set (`-set e2e`), sized so each
	// workload measures 30-40 s on the authoring box. Contract runs
	// (`--seconds`) fit as many reps as the budget allows instead.
	reps int
}

var workloads = []workload{
	{"overlay-10k", "one big single-engine run: sim.Engine heap, p2p transport and geo sampling are ~97% of the wall", 9},
	{"overlay-10k-sharded", "same campaign on sim.Conductor with 2 workers: conductor-only changes move this and not overlay-10k", 9},
	{"paper-small", "15 paper specs fanned over 2 runner workers: tx workload, chain-only Monte-Carlo, faults and compact relay dominate", 4},
	{"serve-mix", "25 campaigns through ethserve by 2 closed-loop clients: HTTP, SSE, worker budget and a store seal per ~0.5 s", 4},
}

// paperSmallSpecs are the registry specs of the paper-small workload;
// the bench-owned compact spec rides along.
var paperSmallSpecs = []string{"T1", "network", "T2", "commit", "chain", "L1", "W1", "C1", "INC", "A1", "A2", "D1", "D2", "D3"}

// families groups specs by the layer that does most of their work, for
// the experiments.family.* rows. T1 is a static table and has none.
var families = map[string]string{
	"overlay": "blockgossip", "network": "blockgossip", "T2": "blockgossip", "A1": "blockgossip", "A2": "blockgossip",
	"commit": "txworkload",
	"chain":  "chainonly", "L1": "chainonly", "W1": "chainonly", "C1": "chainonly", "INC": "chainonly",
	"D1": "faults", "D2": "faults", "D3": "faults",
	"compact": "compact",
}

var familyNames = []string{"blockgossip", "txworkload", "chainonly", "faults", "compact"}

// probe carries the span recorder into spec Run functions, which have
// no context parameter. parent is the span the next runs hang under
// (the runner span); it is set before experiments.Run starts workers.
type probe struct {
	rec    *recorder
	parent int
}

// instrument wraps a spec's Run in a span named spec.<ID>.
func (p *probe) instrument(s experiments.Spec) experiments.Spec {
	run := s.Run
	s.Run = func(seed uint64, sc experiments.Scale) ([]*experiments.Outcome, error) {
		id := p.rec.start("spec."+s.ID, p.parent)
		defer p.rec.end(id)
		return run(seed, sc)
	}
	return s
}

// overlaySpec is the bench-owned big-overlay campaign: the calls
// NetworkExperiments makes, at a pinned 40-block size, with a span
// around each module boundary. shards 0 is the single engine; >= 1 the
// conductor with that many phase-B workers.
func overlaySpec(p *probe, nodes, shards int) experiments.Spec {
	return experiments.Spec{
		ID:       "overlay",
		Title:    fmt.Sprintf("bench — %d-node overlay, 40 blocks, shards=%d", nodes, shards),
		Produces: []string{"F1", "F2", "F3"},
		Run: func(seed uint64, _ experiments.Scale) ([]*experiments.Outcome, error) {
			top := p.rec.start("spec.overlay", p.parent)
			defer p.rec.end(top)

			cfg := core.DefaultCampaignConfig(seed)
			cfg.NetworkNodes = nodes
			cfg.Blocks = 40
			cfg.Streaming = true
			cfg.Shards = shards
			sp := p.rec.start("core.build", top)
			c, err := core.NewCampaign(cfg)
			p.rec.end(sp)
			if err != nil {
				return nil, err
			}
			sp = p.rec.start("core.run", top)
			res, err := c.Run()
			p.rec.end(sp)
			if err != nil {
				return nil, err
			}
			// Campaign.Run indexes internally; building the index again
			// from outside is the only way to time it on its own.
			sp = p.rec.start("analysis.index", top)
			idx, err := analysis.IndexFromStreams(res.Nodes)
			p.rec.end(sp)
			if err != nil {
				return nil, err
			}
			for h, seen := range idx.BlockFirst {
				if len(seen) != len(cfg.Measurement) {
					return nil, fmt.Errorf("block %s seen by %d of %d vantages", h, len(seen), len(cfg.Measurement))
				}
			}

			sp = p.rec.start("analysis.compute", top)
			prop, err := analysis.PropagationDelays(res.Index)
			if err != nil {
				return nil, err
			}
			first, err := analysis.FirstObservations(res.Index)
			if err != nil {
				return nil, err
			}
			pools, err := analysis.PoolFirstObservations(res.Index, 15)
			p.rec.end(sp)
			if err != nil {
				return nil, err
			}

			sp = p.rec.start("analysis.render", top)
			defer p.rec.end(sp)
			return []*experiments.Outcome{
				{
					ID: "F1", Title: "Figure 1 — block propagation delay",
					Rendered: analysis.RenderPropagation(prop),
					Metrics: map[string]float64{
						"median_ms": prop.Summary.Median, "mean_ms": prop.Summary.Mean,
						"p95_ms": prop.Summary.P95, "p99_ms": prop.Summary.P99,
					},
				},
				{
					ID: "F2", Title: "Figure 2 — first observation share per region",
					Rendered: analysis.RenderFirstObservations(first),
					Metrics: map[string]float64{
						"EA_share": first.Share["EA"], "NA_share": first.Share["NA"],
						"WE_share": first.Share["WE"], "CE_share": first.Share["CE"],
					},
				},
				{
					ID: "F3", Title: "Figure 3 — first observation per mining pool",
					Rendered: analysis.RenderPoolObservations(pools, []string{"EA", "NA", "WE", "CE"}),
					Metrics:  map[string]float64{"pools": float64(len(pools.Pools))},
				},
			}, nil
		},
	}
}

// compactSpec wraps experiments.CompactRelaySpread (the one relay mode
// no small-scale registry spec runs on its own) as a campaign spec.
func compactSpec(p *probe) experiments.Spec {
	return experiments.Spec{
		ID:       "compact",
		Title:    "bench — compact relay with 15% private order flow",
		Produces: []string{"compact"},
		Run: func(seed uint64, sc experiments.Scale) ([]*experiments.Outcome, error) {
			top := p.rec.start("spec.compact", p.parent)
			defer p.rec.end(top)
			sp := p.rec.start("experiments.compact_spread", top)
			res, err := experiments.CompactRelaySpread(seed, sc)
			p.rec.end(sp)
			if err != nil {
				return nil, err
			}
			sp = p.rec.start("analysis.compute", top)
			prop, err := analysis.PropagationDelays(res.Index)
			p.rec.end(sp)
			if err != nil {
				return nil, err
			}
			sp = p.rec.start("analysis.render", top)
			defer p.rec.end(sp)
			rendered, err := analysis.RenderBandwidth(res.Bandwidth)
			if err != nil {
				return nil, err
			}
			return []*experiments.Outcome{{
				ID: "compact", Title: "Compact relay spread",
				Rendered: rendered,
				Metrics: map[string]float64{
					"median_ms":    prop.Summary.Median,
					"hit_rate":     res.Bandwidth.Reconstruction.HitRate(),
					"kb_per_block": res.Bandwidth.BytesPerBlock() / 1e3,
				},
			}}, nil
		},
	}
}

// campaignSpecs resolves a campaign workload's spec list.
func campaignSpecs(name string, p *probe) ([]experiments.Spec, error) {
	switch name {
	case "overlay-10k":
		return []experiments.Spec{overlaySpec(p, 10_000, 0)}, nil
	case "overlay-10k-sharded":
		return []experiments.Spec{overlaySpec(p, 10_000, workers)}, nil
	case "paper-small":
		specs, err := experiments.Select(paperSmallSpecs)
		if err != nil {
			return nil, err
		}
		for i := range specs {
			specs[i] = p.instrument(specs[i])
		}
		return append(specs, compactSpec(p)), nil
	}
	return nil, fmt.Errorf("bench: no campaign workload %q", name)
}

// sealed is what one campaign left behind, as the harness saw it.
type sealed struct {
	// ops / failed count operations: every (spec, repeat) run, plus the
	// write + seal + verify tail as one.
	ops, failed int
	errs        []string
	// digest is the SHA-256 of outcomes.json.
	digest string
	// rows are the telemetry.json rows (one per run).
	rows []experiments.TelemetryRow
	// runnerS is the wall time of experiments.Run; runElapsed sums
	// Result.Elapsed over its runs.
	runnerS    float64
	runElapsed time.Duration
}

func (s *sealed) fail(err error) {
	s.failed++
	s.errs = append(s.errs, err.Error())
}

// runCampaign takes specs from submission to a sealed, verified run
// directory the way `ethrepro -out dir` does: experiments.Run, then
// artifacts, telemetry, manifest, and store.Verify on the result.
func runCampaign(p *probe, parent int, specs []experiments.Spec, seed uint64, dir string) sealed {
	var out sealed
	sp := p.rec.start("experiments.runner", parent)
	p.parent = sp
	t0 := time.Now()
	report, runErr := experiments.Run(context.Background(), specs, experiments.RunnerConfig{
		Seed:     seed,
		Scale:    experiments.ScaleSmall,
		Parallel: workers,
	})
	out.runnerS = time.Since(t0).Seconds()
	p.rec.end(sp)
	if report == nil {
		out.ops = 1
		out.fail(runErr)
		return out
	}
	for _, r := range report.Results {
		out.ops++
		out.runElapsed += r.Elapsed
		if r.Err != nil {
			out.fail(fmt.Errorf("%s/%d: %w", r.Spec.ID, r.Repeat, r.Err))
		}
	}
	tel := experiments.BuildTelemetry(report, obs.Default.Take(experiments.ReportSeeds(report)))
	out.rows = tel.Runs

	out.ops++
	st := store.NewFS(dir)
	sp = p.rec.start("experiments.write", parent)
	err := errors.Join(
		experiments.WriteArtifacts(st, report),
		st.Delete(scenario.ArtifactFile),
		experiments.WriteTelemetry(st, tel),
	)
	p.rec.end(sp)
	if err == nil {
		sp = p.rec.start("store.seal", parent)
		err = experiments.WriteManifest(st, report)
		p.rec.end(sp)
	}
	if err == nil {
		sp = p.rec.start("store.verify", parent)
		err = store.Verify(st)
		p.rec.end(sp)
	}
	if err != nil {
		out.fail(err)
		return out
	}
	out.digest, err = outcomesDigest(st)
	if err != nil {
		out.fail(err)
	}
	return out
}

// outcomesDigest hashes a run directory's outcomes.json: every
// simulated statistic of the campaign, and no wall-clock content.
func outcomesDigest(st store.Store) (string, error) {
	data, err := st.Get(experiments.OutcomesJSON)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// shardProbe checks the property the sharded workload rests on: the
// conductor's artifacts do not depend on the worker count. It runs the
// overlay spec at 1,000 nodes with 1 and with 2 shards.
func shardProbe(seed uint64, dir string) error {
	var digests []string
	for shards := 1; shards <= workers; shards++ {
		p := &probe{}
		got := runCampaign(p, 0, []experiments.Spec{overlaySpec(p, 1000, shards)}, seed,
			filepath.Join(dir, fmt.Sprintf("probe-shards%d", shards)))
		if got.failed > 0 {
			return fmt.Errorf("shard probe (shards=%d): %s", shards, strings.Join(got.errs, "; "))
		}
		digests = append(digests, got.digest)
	}
	if digests[0] != digests[1] {
		return fmt.Errorf("shard probe: outcomes.json differs between 1 and %d shards (%s vs %s)", workers, digests[0][:12], digests[1][:12])
	}
	return nil
}
